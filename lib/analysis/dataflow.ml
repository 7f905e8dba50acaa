(** Generic forward-dataflow framework over the KIR CFG.

    A client supplies an abstract {!domain}: an entry value, equality,
    a join over predecessor out-facts, and a per-block transfer
    function. {!solve} runs a round-robin worklist in reverse postorder
    until the per-block in/out facts stabilize, joining a block again
    only after one of its predecessors' out-facts changed.

    The solver is *optimistic about reachability*: a block's in-fact
    joins only the predecessors that have produced an out-fact so far,
    and blocks never reached from the entry keep [None]. This is the
    standard iterative scheme — edges not yet executed contribute
    bottom — and converges to a sound fixpoint for monotone transfer
    functions over finite-height lattices. *)

type 'a domain = {
  entry : 'a;  (** in-fact of the entry block (before joining back edges) *)
  equal : 'a -> 'a -> bool;
  join : block:int -> 'a list -> 'a;
      (** combine predecessor out-facts at the head of [block]; the list
          is non-empty *)
  transfer : block:int -> 'a -> 'a;  (** flow a fact through [block] *)
}

type 'a solution = {
  block_in : 'a option array;  (** [None] = unreachable from entry *)
  block_out : 'a option array;
  sweeps : int;  (** RPO sweeps until fixpoint, for diagnostics *)
}

exception Diverged of string
(** Raised when the fixpoint fails to stabilize within the sweep cap —
    only possible for a non-monotone or infinite-height client domain.
    Callers treat it as "analysis refused", never as "module safe". *)

let solve (d : 'a domain) (cfg : Kir.Cfg.t) : 'a solution =
  let n = Kir.Cfg.n_blocks cfg in
  let rpo = Kir.Cfg.reverse_postorder cfg in
  let block_in = Array.make (max n 1) None in
  let block_out = Array.make (max n 1) None in
  (* every sweep over a fixed CFG either changes some out-fact or is the
     last; finite-height domains stabilize in O(height * loop depth)
     sweeps, so the cap only trips on a broken domain *)
  let max_sweeps = 16 + (4 * n) in
  let sweeps = ref 0 in
  let changed = ref (n > 0) in
  (* a block's in-fact is a function of its predecessors' out-facts, so
     it is joined again only after one of them changed *)
  let stale = Array.make (max n 1) true in
  let visit b =
    stale.(b) <- false;
    let pred_outs =
      List.filter_map (fun p -> block_out.(p)) cfg.Kir.Cfg.pred.(b)
    in
    let new_in =
      if b = 0 then Some (d.join ~block:b (d.entry :: pred_outs))
      else
        match pred_outs with
        | [] -> None
        | ps -> Some (d.join ~block:b ps)
    in
    match new_in with
    | None -> ()
    | Some niv ->
      let dirty =
        match block_in.(b) with
        | None -> true
        | Some old -> not (d.equal old niv)
      in
      if dirty then begin
        block_in.(b) <- Some niv;
        let out = d.transfer ~block:b niv in
        match block_out.(b) with
        | Some old when d.equal old out -> ()
        | _ ->
          block_out.(b) <- Some out;
          List.iter (fun s -> stale.(s) <- true) cfg.Kir.Cfg.succ.(b);
          changed := true
      end
  in
  while !changed do
    incr sweeps;
    if !sweeps > max_sweeps then
      raise
        (Diverged
           (Printf.sprintf "no fixpoint after %d sweeps over %d blocks"
              max_sweeps n));
    changed := false;
    List.iter (fun b -> if stale.(b) then visit b) rpo
  done;
  { block_in; block_out; sweeps = !sweeps }
