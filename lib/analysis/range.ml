(** Loop induction-variable range analysis.

    Finds the counted loops {!Kir.Builder.for_loop} emits —

    {v
      pre:   mov  i, init            ; last def of i in the preheader
             br   head
      head:  c = icmp slt i, N       ; N an immediate
             cond_br c, body, exit
      body:  ...                     ; exactly one redefinition of i:
             t = add i, step         ;   step an immediate >= 1
             mov  i, t
             br   head
    v}

    — as {!Cert_check.counted_loop} recognizes them (the exact rules
    live there), and claims that inside the loop body (excluding the
    header, where [i] can already equal the exit bound), the symbolic
    value [S_merge (header, i)] lies in [\[init, last\]] with
    [last = N - 1] for [Slt] and [N] for [Sle].

    The claim is keyed on the merge symbol deliberately: after the
    in-loop increment, [i]'s symbolic value becomes the [S_def] of the
    add, so reads past the increment (where [i] may equal the bound)
    never match, and neither do reads of [i] in the exit blocks — their
    environment also sees the merge symbol, which is why validity is
    restricted to loop-body blocks.

    This is what lets the certifier accept a single widened pre-header
    guard covering a whole loop footprint ({!Optimize}'s
    hoist-widening): the per-iteration access [base + i*scale] of
    [size] bytes stays within [\[init*scale, last*scale + size)]. *)

open Kir.Types
module GC = Guard_cover

type loop_bound = {
  lb_header : int;  (** header block index *)
  lb_preheader : int;  (** unique outside predecessor block index *)
  lb_split : bool;
      (** the predecessor has successors besides the header, so a
          widening transform must split the entry edge
          ({!Kir.Cfg.insert_preheader}) before placing guards *)
  lb_reg : reg;  (** induction register *)
  lb_lo : int;
  lb_hi : int;  (** inclusive value range inside the body *)
  lb_step : int;
  lb_body : int list;  (** blocks where the bound holds (body minus header) *)
}

type t = {
  bounds : loop_bound list;
  in_body : (int * reg, loop_bound) Hashtbl.t;  (** (block, reg) index *)
}

(** Every counted loop of the function, as {!Cert_check.counted_loop}
    recognizes it: the certifier can only prove a widened guard the
    checker accepts. *)
let analyze_func (cfg : Kir.Cfg.t) : t =
  let fn = Cert_check.of_cfg cfg in
  let n = Kir.Cfg.n_blocks cfg in
  let bounds =
    List.filter_map
      (fun h ->
        Option.map
          (fun (l : Cert_check.loop) ->
            {
              lb_header = h;
              lb_preheader = l.l_pre;
              lb_split = cfg.Kir.Cfg.succ.(l.l_pre) <> [ h ];
              lb_reg = l.l_reg;
              lb_lo = l.l_lo;
              lb_hi = l.l_hi;
              lb_step = l.l_step;
              lb_body = List.filter (fun b -> b <> h && l.l_blocks.(b)) (List.init n Fun.id);
            })
          (Cert_check.counted_loop fn h))
      (List.init n Fun.id)
  in
  let in_body = Hashtbl.create 16 in
  List.iter
    (fun lb ->
      List.iter (fun bi -> Hashtbl.replace in_body (bi, lb.lb_reg) lb) lb.lb_body)
    bounds;
  { bounds; in_body }

let loop_bounds t = t.bounds

(** Inclusive bounds of symbolic value [sv] when read in [block], or
    [None]. Only the loop-merge symbol of a proven counted loop gets an
    answer, and only inside that loop's body. *)
let bounds_at t ~block (sv : GC.sv) : (int * int) option =
  match sv with
  | GC.S_merge (h, r) -> (
    match Hashtbl.find_opt t.in_body (block, r) with
    | Some lb when lb.lb_header = h -> Some (lb.lb_lo, lb.lb_hi)
    | _ -> None)
  | _ -> None

(** Convenience: full per-function analysis. *)
let compute (f : func) : t = analyze_func (Kir.Cfg.of_func f)
