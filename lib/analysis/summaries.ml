(** Interprocedural region summaries.

    For every function of a module, two facts usable at its call sites:

    - {b policy-purity}: the function provably performs no
      policy-mutating operation, transitively — no indirect calls, no
      inline asm, no calls to externs or to impure module functions;
      only the guard family and pure module functions. A call to a
      policy-pure function preserves the caller's coverage facts (it
      cannot reach the policy module, so the table the caller's guards
      checked against is still in force when it returns). Purity is a
      greatest fixpoint: mutually recursive functions that only call
      each other stay pure.

    - {b guarantees}: coverage facts the function establishes on every
      path to every return, expressed over its formal parameters (and
      module symbols). These hold in the caller immediately after the
      call returns — even for an impure callee, because facts that
      survive to its returns postdate its last policy-mutating
      operation by construction (the callee's own analysis kills facts
      at such calls). Guarantees are a least fixpoint from the empty
      summary, so they are always an under-approximation — sound to
      assume, never complete.

    This is what lets the certified optimizer (and the certifier that
    re-checks its output) delete a caller's re-check of a range the
    callee just guarded: e.g. [e1000e_xmit_frame]'s loads of the
    adapter fields that [e1000e_tx_avail] already checked. *)

open Kir.Types
module GC = Guard_cover

type fsum = {
  sm_pure : bool;
  sm_guarantees : (GC.sv * int * int * int) list;
      (** core (over formals/symbols), lo, hi, flags *)
  sm_params : reg list;
  sm_solved : GC.solved option;
      (** the function's coverage solve, kept when it ran against the
          final summaries of everything it calls *)
}

type t = (string, fsum) Hashtbl.t

let default_neutral = Cert_check.extension_guard

(* -- guarantees: least fixpoint ------------------------------------ *)

(* a core exportable across the call boundary: built only from module
   symbols, immediates and the function's own formals *)
let rec exportable = function
  | GC.S_imm _ | GC.S_sym _ | GC.S_param _ -> true
  | GC.S_gep (b, i, _) -> exportable b && exportable i
  | GC.S_undef _ | GC.S_def _ | GC.S_merge _ -> false

(* the solve of [f] and the facts holding at the end of every
   reachable Ret block, exported *)
let solve_rets ~ctx (f : func) =
  match GC.solve ctx f with
  | exception Dataflow.Diverged _ -> (None, [])
  | solved ->
    let facts =
      match List.rev (GC.rets solved) with
      | [] -> []
      | t0 :: rest ->
        let facts =
          List.fold_left
            (fun acc (t : GC.t) -> GC.inter_facts acc t.GC.facts)
            t0.GC.facts rest
        in
        GC.SvMap.fold
          (fun core fs acc ->
            if exportable core then
              List.fold_left
                (fun acc (f : GC.fact) ->
                  (core, f.GC.lo, f.GC.hi, f.GC.flags) :: acc)
                acc fs
            else acc)
          facts []
        |> List.sort compare
    in
    (Some solved, facts)

let ret_facts ~ctx f = snd (solve_rets ~ctx f)

(** Strongly connected components of the module's call graph, callees
    first: Tarjan's algorithm emits a component only after every
    component it calls. Members keep module order. *)
let sccs (m : modul) : func list list =
  let funcs = Hashtbl.create 16 and order = Hashtbl.create 16 in
  List.iteri
    (fun k f ->
      Hashtbl.replace funcs f.f_name f;
      Hashtbl.replace order f.f_name k)
    m.funcs;
  let callees f =
    List.concat_map
      (fun b ->
        List.filter_map
          (function
            | Call { callee; _ } when Hashtbl.mem funcs callee -> Some callee
            | _ -> None)
          b.body)
      f.blocks
  in
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 and stack = ref [] and next = ref 0 in
  let out = ref [] in
  let rec visit v =
    Hashtbl.replace index v !next;
    Hashtbl.replace low v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    let lower w = Hashtbl.replace low v (min (Hashtbl.find low v) w) in
    List.iter
      (fun c ->
        if not (Hashtbl.mem index c) then (visit c; lower (Hashtbl.find low c))
        else if Hashtbl.mem on_stack c then lower (Hashtbl.find index c))
      (callees (Hashtbl.find funcs v));
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | x :: rest ->
          stack := rest;
          Hashtbl.remove on_stack x;
          if x = v then x :: acc else pop (x :: acc)
        | [] -> acc
      in
      let by_order a b = compare (Hashtbl.find order a) (Hashtbl.find order b) in
      out := List.map (Hashtbl.find funcs) (List.sort by_order (pop [])) :: !out
    end
  in
  List.iter (fun f -> if not (Hashtbl.mem index f.f_name) then visit f.f_name) m.funcs;
  List.rev !out

(** The {!Guard_cover.ctx} call-effect function for this module:
    summarized effects for module functions, fully opaque for
    everything else. *)
let effect_of (t : t) (callee : string) : GC.call_effect =
  match Hashtbl.find_opt t callee with
  | None -> GC.opaque_effect
  | Some s ->
    {
      GC.ce_kills = not s.sm_pure;
      ce_adds = s.sm_guarantees;
      ce_params = s.sm_params;
    }

(** Compute the module's summaries component by component, callees
    first: a function outside any call cycle is analyzed exactly once,
    against final summaries of everything it calls, and only recursive
    components iterate to fixpoint (each under the round cap). Each
    solve that ran against final summaries is kept for {!solved}: every
    function outside a cycle, and every member of a component whose
    last round changed nothing.

    [prev] is an earlier computation for this module, before some of
    its functions changed. A function's solve kept there, with the
    guarantees read off it, is taken over instead of solving again
    whenever {!Guard_cover.reusable} holds for it: its code is
    physically what that solve read, and every callee's purity and
    guarantees are what it assumed. A solve is a function of exactly
    those, so the summaries equal a computation without [prev]. *)
let compute ?prev (m : modul) : t =
  let pure = Cert_check.purity m in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.f_name
        {
          sm_pure = (try Hashtbl.find pure f.f_name with Not_found -> false);
          sm_guarantees = [];
          sm_params = List.map fst f.params;
          sm_solved = None;
        })
    m.funcs;
  let ctx = { GC.neutral = default_neutral; call_effect = effect_of tbl } in
  let earlier f =
    match Option.bind prev (fun p -> Hashtbl.find_opt p f.f_name) with
    | Some { sm_solved = Some solved; sm_guarantees; _ } when GC.reusable ctx f solved ->
      Some (Some solved, sm_guarantees)
    | _ -> None
  in
  let update f =
    let s = Hashtbl.find tbl f.f_name in
    let solved, g = match earlier f with Some kept -> kept | None -> solve_rets ~ctx f in
    Hashtbl.replace tbl f.f_name { s with sm_guarantees = g; sm_solved = solved };
    g <> s.sm_guarantees
  in
  let calls_itself f =
    List.exists
      (fun b ->
        List.exists
          (function Call { callee; _ } -> callee = f.f_name | _ -> false)
          b.body)
      f.blocks
  in
  List.iter
    (function
      | [ f ] when not (calls_itself f) -> ignore (update f)
      | scc ->
        let rounds = ref (List.length m.funcs + 2) in
        let changed = ref true in
        while !changed && !rounds > 0 do
          decr rounds;
          changed := List.fold_left (fun c f -> update f || c) false scc
        done;
        (* at the round cap the last solves saw summaries still moving *)
        if !changed then
          List.iter
            (fun f ->
              let s = Hashtbl.find tbl f.f_name in
              Hashtbl.replace tbl f.f_name { s with sm_solved = None })
            scc)
    (sccs m);
  tbl

(** The kept coverage solve of [f], if {!compute} kept one for this very
    function; it equals [Guard_cover.solve] under {!effect_of} the same
    summaries, as long as [f] has not changed since. *)
let solved (t : t) (f : func) =
  match Hashtbl.find_opt t f.f_name with
  | Some { sm_solved = Some s; _ } when s.GC.cfg.Kir.Cfg.func == f -> Some s
  | _ -> None

let is_pure (t : t) name =
  match Hashtbl.find_opt t name with
  | Some s -> s.sm_pure
  | None -> false

let guarantees (t : t) name =
  match Hashtbl.find_opt t name with
  | Some s -> s.sm_guarantees
  | None -> []
