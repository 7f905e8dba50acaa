(** Guard-completeness certificate checker: the only analysis the kernel
    runs at insmod.

    A v2 certificate ({!Cert_format}) carries one witness per reachable
    load/store and, per function, the guarantees its callers rely on.
    The checker derives nothing — no dataflow fixpoint, no summaries, no
    range analysis. Per function it builds the CFG once and checks each
    witness by local pattern matching and graph reachability:

    - the named guards cut every path from entry to the access;
    - the base reaches the access unchanged, and no policy-impure call
      lies between guard and access;
    - the interval and flags are the guards' joint coverage and contain
      the access;
    - a widened guard's loop header has the counted-loop shape;
    - every callee guarantee a witness names is itself witnessed.

    Bases are read off the code, never trusted: an operand reads as its
    register, then as each step of that register's [mov]/[gep] chain
    ({!forms}). DESIGN.md ("proof-carrying certificates") argues
    soundness. *)

open Kir.Types
open Cert_format

type validate_error =
  | Cert_missing
  | Cert_stale of { expected : string; found : string }
      (** module body changed after certification *)
  | Cert_invalid of string  (** malformed, or a witness does not check *)
  | Cert_mismatch  (** sections or witnesses do not line up with the module *)
  | Cert_wrong_domain of { expected : string; found : string option }
      (** proven against another policy domain than the load targets *)

let validate_error_to_string = function
  | Cert_missing -> "module carries no guard-completeness certificate"
  | Cert_stale { expected; found } ->
    Printf.sprintf
      "certificate is stale: module body digest %s, certificate claims %s"
      expected found
  | Cert_invalid reason -> "certificate check failed: " ^ reason
  | Cert_mismatch -> "certificate witnesses do not match the module"
  | Cert_wrong_domain { expected; found } ->
    Printf.sprintf
      "certificate proven against domain %s, but load targets domain %s"
      (Option.value found ~default:"<none>")
      expected

(** Digest of the canonical (meta-free) module body; [body] is that
    text when the caller has already printed it. *)
let body_digest ?body m =
  let body =
    match body with Some b -> b | None -> Kir.Printer.to_string ~with_meta:false m
  in
  Printf.sprintf "%016x" (Passes.Signing.fnv1a64 body)

(** The extension guards (intrinsic and CFI): they cannot change the
    policy. *)
let extension_guard s =
  s = Passes.Cfi_guard.guard_symbol || s = Passes.Intrinsic_guard.guard_symbol

(** Calls that cannot change the policy: a guard call or an extension
    guard. *)
let guard_family = function
  | Call { callee; _ } as i ->
    extension_guard callee || Passes.Guard_injection.parse_guard i <> None
  | _ -> false

(** Policy purity, a greatest fixpoint: a pure function makes no
    indirect call and no inline asm, and calls only the guard family
    and pure module functions. *)
let purity (m : modul) : (string, bool) Hashtbl.t =
  let pure = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace pure f.f_name true) m.funcs;
  let ok = function
    | Callind _ | Inline_asm _ -> false
    | Call { callee; _ } as i -> guard_family i || Hashtbl.find_opt pure callee = Some true
    | _ -> true
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        if
          Hashtbl.find pure f.f_name
          && not (List.for_all (fun (b : block) -> List.for_all ok b.body) f.blocks)
        then (
          Hashtbl.replace pure f.f_name false;
          changed := true))
      m.funcs
  done;
  pure

(* -- one function ---------------------------------------------------- *)

(** A counted loop, {!Kir.Builder.for_loop}'s shape at 64 bits: its
    register set to an immediate on the unique entry path, tested
    [slt]/[sle] against an immediate in the header, and advanced only by
    [t = add i, step; mov i, t] within one block of the body that no
    cycle reaches again without passing the header. Each increment then
    follows a passed exit test, so the register never wraps. *)
type loop = {
  l_reg : reg;
  l_lo : int;
  l_hi : int;  (** inclusive bounds of [l_reg] in the body, header excluded *)
  l_step : int;
  l_pre : int;  (** the header's one predecessor outside the loop *)
  l_blocks : bool array;  (** the loop's blocks, header included *)
}

type fn = {
  cfg : Kir.Cfg.t;
  body : instr array array;
  base : int array;  (** id of each block's first instruction *)
  at : (int * int) array;  (** instruction id -> (block, index) *)
  live : bool array;  (** reachable from entry *)
  dst : reg array;  (** instruction id -> the register it defines, or "" *)
  defs : (reg, int list) Hashtbl.t Lazy.t;
      (** register -> ids of its definitions, built on first use *)
  dom : Passes.Dominators.t Lazy.t;
}

let of_cfg cfg : fn =
  let body =
    Array.map (fun (b : block) -> Array.of_list b.body) cfg.Kir.Cfg.blocks
  in
  let base = Array.make (Array.length body) 0 in
  let total = Array.fold_left (fun n ins -> n + Array.length ins) 0 body in
  let at = Array.make total (0, 0) and dst = Array.make total "" in
  let n = ref 0 in
  Array.iteri
    (fun b ins ->
      base.(b) <- !n;
      Array.iteri
        (fun j i ->
          at.(!n) <- (b, j);
          Option.iter (fun r -> dst.(!n) <- r) (def_of_instr i);
          incr n)
        ins)
    body;
  let defs =
    lazy
      (let t = Hashtbl.create 32 in
       Array.iteri
         (fun iid r ->
           let prev = Option.value ~default:[] (Hashtbl.find_opt t r) in
           if r <> "" then Hashtbl.replace t r (iid :: prev))
         dst;
       t)
  in
  let live = Kir.Cfg.reachable cfg and dom = lazy (Passes.Dominators.compute cfg) in
  { cfg; body; base; at; live; dst; defs; dom }

let context (f : func) = of_cfg (Kir.Cfg.of_func f)

let instr fn iid =
  let b, j = fn.at.(iid) in
  fn.body.(b).(j)

let defs fn r =
  Option.value ~default:[] (Hashtbl.find_opt (Lazy.force fn.defs) r)

(* the last definition of [r] before position [j + 1] of block [b], or -1 *)
let rec last_def fn b j r =
  if j < 0 then -1
  else if String.equal fn.dst.(fn.base.(b) + j) r then j
  else last_def fn b (j - 1) r

(* no register [c] reads is redefined at positions [d, k) of block [b] *)
let current fn b d k (c, _) =
  let ls = leaves [] c in
  let rec ok j =
    j >= k || ((not (List.mem fn.dst.(fn.base.(b) + j) ls)) && ok (j + 1))
  in
  ls = [] || ok d

(* the readings of [r] read before position [k] of block [b], through
   its last definition in the block when that is a mov or gep and the
   reading is still current at [k] — or, with no definition earlier in
   the block, through its only definition anywhere, when that runs on
   every path to [b] (its block strictly dominates [b]; a parameter is
   set at entry, so it can be read before its one definition runs) and
   everything the reading reads is never redefined: [r] then holds that
   value at the read. [fuel] bounds the hops between blocks. *)
let rec chain fuel fn b k r =
  match last_def fn b (k - 1) r with
  | -1 -> (
    match if fuel > 0 then defs fn r else [] with
    | [ only ] ->
      let db, dj = fn.at.(only) in
      let constant (c, _) = List.for_all (fun l -> defs fn l = []) (leaves [] c) in
      if db <> b && Passes.Dominators.dominates (Lazy.force fn.dom) db b then
        List.filter constant (through fuel fn db dj)
      else []
    | _ -> [])
  | d -> List.filter (current fn b d k) (through fuel fn b d)

(* the readings of what instruction [d] of block [b] defines; a
   narrower mov truncates, so it reads as nothing *)
and through fuel fn b d =
  match fn.body.(b).(d) with
  | Mov { ty = I64 | Ptr; src; _ } -> forms ~fuel fn b d src
  | Gep { base; idx; scale; _ } -> (
    match (match idx with Imm n -> V_imm n | _ -> value ~fuel fn b d idx) with
    | V_imm n ->
      List.map (fun (c, o) -> (c, o + (n * scale))) (forms ~fuel fn b d base)
    | vi -> [ (V_gep (value ~fuel fn b d base, vi, scale), 0) ])
  | _ -> []

(** Every (core, offset) reading of operand [o] before (b, k),
    shallowest first. *)
and forms ?(fuel = 4) fn b k = function
  | Imm n -> [ (V_imm n, 0) ]
  | Sym s -> [ (V_sym s, 0) ]
  | Reg r -> (V_reg r, 0) :: chain (fuel - 1) fn b k r

(** The deepest reading of [o] as one expression. *)
and value ?fuel fn b k o =
  match List.fold_left (fun _ x -> x) (V_imm 0, 0) (forms ?fuel fn b k o) with
  | c, 0 -> c
  | c, off -> V_gep (c, V_imm off, 1)

(** Can [target] be reached from one of [starts] along a path that runs
    no instruction in [cut] and does not enter block [stop]? *)
let escapes fn ~starts ~cut ?(stop = -1) target =
  let seen = Array.make (Array.length fn.body) false in
  let rec scan b j =
    let len = Array.length fn.body.(b) in
    target b j
    || (j >= len && List.exists enter fn.cfg.Kir.Cfg.succ.(b))
    || (j < len && (not (cut (fn.base.(b) + j))) && scan b (j + 1))
  and enter s =
    s <> stop && (not seen.(s)) && (seen.(s) <- true; scan s 0)
  in
  List.exists (fun (b, j) -> if j = 0 then enter b else scan b j) starts

let wide = function I64 | Ptr -> true | _ -> false

(** The counted loop headed by block [h], if it is one. {!Range} derives
    its loop bounds from this, so the certifier and the checker agree on
    which loops are counted. *)
let counted_loop fn h =
  let cfg = fn.cfg in
  let def_in b r =
    match last_def fn b (Array.length fn.body.(b) - 1) r with
    | -1 -> None
    | j -> Some fn.body.(b).(j)
  in
  let idx l = Hashtbl.find_opt cfg.Kir.Cfg.index l in
  let exit_test =
    if h < 0 || h >= Array.length fn.body then None
    else
      match (Kir.Cfg.block cfg h).term with
      | Cond_br { cond = Reg c; if_true; if_false } -> (
        match (def_in h c, idx if_true, idx if_false) with
        | Some (Icmp { cond = (Slt | Sle) as cond; ty; a = Reg i; b = Imm lim; _ }), Some tt, Some ft
          when wide ty ->
          Some (i, (if cond = Slt then lim - 1 else lim), tt, ft)
        | _ -> None)
      | _ -> None
  in
  match exit_test with
  | None -> None
  | Some (i, hi, tt, ft) -> (
    let inl = Array.make (Array.length fn.body) false in
    let rec pull t =
      if not inl.(t) then (
        inl.(t) <- true;
        List.iter pull cfg.Kir.Cfg.pred.(t))
    in
    inl.(h) <- true;
    List.iter
      (fun t -> if Passes.Dominators.dominates (Lazy.force fn.dom) h t then pull t)
      cfg.Kir.Cfg.pred.(h);
    let in_loop r = List.filter (fun (b, _) -> inl.(b)) (List.map (fun d -> fn.at.(d)) (defs fn r)) in
    let rec init b fuel =
      match (def_in b i, cfg.Kir.Cfg.pred.(b)) with
      | Some d, _ -> Some d
      | None, [ q ] when fuel > 0 -> init q (fuel - 1)
      | _ -> None
    in
    (* [mov i, t] whose [t] is set once in the loop, by [t = add i, step]
       earlier in the same block, which the mov cannot reach again
       without the header's test *)
    let step_of (bm, jm) =
      match fn.body.(bm).(jm) with
      | Mov { ty; src = Reg t; _ } when wide ty -> (
        match List.map (fun (b, j) -> (b, j, fn.body.(b).(j))) (in_loop t) with
        | [ (ba, ja, Binop { op = Add; ty; a = Reg i'; b = Imm step; _ }) ]
          when wide ty && ba = bm && ja < jm && i' = i
               && not
                    (escapes fn ~starts:[ (bm, jm + 1) ] ~cut:(fun _ -> false) ~stop:h
                       (fun b j -> b = bm && j = ja)) ->
          Some step
        | _ -> None)
      | _ -> None
    in
    match (List.filter (fun p -> not inl.(p)) cfg.Kir.Cfg.pred.(h), in_loop i) with
    | [ p ], [ (bm, jm) ] when inl.(tt) && (not inl.(ft)) && bm <> h -> (
      match (init p 4, step_of (bm, jm)) with
      | Some (Mov { ty; src = Imm lo; _ }), Some step
        when wide ty && step >= 1 && step <= 1 lsl 32 && lo <= hi && add hi step <> None ->
        Some { l_reg = i; l_lo = lo; l_hi = hi; l_step = step; l_pre = p; l_blocks = inl }
      | _ -> None)
    | _ -> None)

(* -- witnesses -------------------------------------------------------- *)

type ctx = {
  pure : (string, bool) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  gtab : (string, guarantee array) Hashtbl.t;  (** declared guarantees *)
  exempt : bool;  (** accesses inside the function's own frame are exempt *)
}

(** The (lo, hi, flags) origin [o] establishes on core [c], reading its
    operands just before it runs. *)
let cover cx fn c o =
  let iid = origin_id o in
  if iid < 0 || iid >= Array.length fn.at then None
  else
    let b, j = fn.at.(iid) in
    let on_core a = List.assoc_opt c (forms fn b j a) in
    match (fn.body.(b).(j), o) with
    | i, O_guard _ -> (
      match Passes.Guard_injection.parse_guard i with
      | Some (a, size, fl, _) ->
        Option.bind (on_core a) (fun off ->
            Option.map (fun (l, h) -> (l, h, fl)) (span ~off size))
      | None -> None)
    | Call { callee; args; _ }, O_call (_, k) -> (
      match (Hashtbl.find_opt cx.gtab callee, Hashtbl.find_opt cx.funcs callee) with
      | Some gs, Some g
        when k >= 0 && k < Array.length gs
             && List.length g.params = List.length args -> (
        let { g_base; g_lo; g_hi; g_flags; _ } = gs.(k) in
        let arg p = List.assoc_opt p (List.combine (List.map fst g.params) args) in
        let shift off =
          match (add off g_lo, add off g_hi) with
          | Some l, Some h -> Some (l, h, g_flags)
          | _ -> None
        in
        (* the callee's parameters become the call's arguments *)
        let rec inst = function
          | V_reg p -> Option.map (value fn b j) (arg p)
          | V_gep (x, y, s) -> (
            match (inst x, inst y) with
            | Some x, Some y -> Some (V_gep (x, y, s))
            | _ -> None)
          | e -> Some e
        in
        match g_base with
        | V_reg p -> Option.bind (Option.bind (arg p) on_core) shift
        | _ -> (
          match Option.map base_off (inst g_base) with
          | Some (c', off) when c' = c -> shift off
          | _ -> None))
      | _ -> None)
    | _ -> None

let covers cx fn c os (lo, hi, fl) =
  List.for_all
    (fun o ->
      match cover cx fn c o with
      | Some (l, h, x) -> l <= lo && hi <= h && fl land x = fl
      | None -> false)
    os

(** Which instructions are policy-impure calls: everything but the
    guard family and pure module functions. *)
let impure cx fn =
  Array.init (Array.length fn.at) (fun iid ->
      match instr fn iid with
      | Call { callee; _ } as i ->
        not (guard_family i || Hashtbl.find_opt cx.pure callee = Some true)
      | Callind _ | Inline_asm _ -> true
      | _ -> false)

(* every path from entry, and from just after each definition of a
   register [c] reads (and, under [policy], each impure call), runs an
   origin before [target]; under [policy] no origin redefines what [c]
   reads, since its coverage is about the value before it ran *)
let guarded ?(policy = true) ?at ~impure fn c os target =
  let ls = leaves [] c and ids = List.map origin_id os in
  let kills k = List.mem fn.dst.(k) ls || (policy && impure.(k)) in
  (* the common case needs no search: an origin earlier in the access's
     own block, with nothing in between that kills *)
  let local (b, j) o =
    let ob, oj = fn.at.(o) in
    let rec clear k = k >= fn.base.(b) + j || ((not (kills k)) && clear (k + 1)) in
    ob = b && oj < j && clear (o + 1)
  in
  let starts () =
    List.filter_map
      (fun k ->
        let b, j = fn.at.(k) in
        if fn.live.(b) && kills k && not (List.mem k ids) then Some (b, j + 1)
        else None)
      (List.init (Array.length fn.at) Fun.id)
  in
  List.for_all (fun o -> o >= 0 && o < Array.length fn.at) ids
  && ((not policy) || List.for_all (fun o -> not (List.mem fn.dst.(o) ls)) ids)
  && ((match at with Some p -> List.exists (local p) ids | None -> false)
     || not
          (escapes fn ~starts:((0, 0) :: starts ()) ~cut:(fun i -> List.mem i ids)
             target))

(** A guarantee of [f]: its base reads only never-redefined parameters,
    and its origins cover it on every path to every return. *)
let check_guarantee cx fn ~impure (f : func) g =
  let exported r = List.mem_assoc r f.params && defs fn r = [] in
  let ret_end b j =
    fn.live.(b)
    && j = Array.length fn.body.(b)
    && match (Kir.Cfg.block fn.cfg b).term with Ret _ -> true | _ -> false
  in
  List.for_all exported (leaves [] g.g_base)
  && covers cx fn g.g_base g.g_origins (g.g_lo, g.g_hi, g.g_flags)
  && guarded ~impure fn g.g_base g.g_origins ret_end

(** Witness [w] of the load/store at (b, j). *)
let check_witness cx fn ~impure b j w =
  let flags, size, addr =
    match fn.body.(b).(j) with
    | Load { ty; addr; _ } -> (1, size_of_ty ty, addr)
    | Store { ty; addr; _ } -> (2, size_of_ty ty, addr)
    | _ -> (0, 0, Imm 0)
  in
  let target b' j' = b' = b && j' = j and fs = forms fn b j addr in
  (* a widened guard: the index is the header's value of a counted
     loop, so every iteration stays inside the loop's footprint *)
  let footprint h c = function
    | V_gep (eb, V_reg iv, s), off when s > 0 && fst (base_off eb) = c -> (
      let after d =
        let db, dj = fn.at.(d) in
        (db, dj + 1)
      in
      let header_value () =
        not
          (escapes fn ~starts:(List.map after (defs fn iv)) ~cut:(fun _ -> false)
             ~stop:h target)
      in
      match (counted_loop fn h, add (snd (base_off eb)) off) with
      | Some l, Some off when l.l_reg = iv && l.l_blocks.(b) && b <> h && header_value () ->
        span ~lo:l.l_lo ~hi:l.l_hi ~scale:s ~off size
      | _ -> None)
    | _ -> None
  in
  flags <> 0
  &&
  match w with
  | W_exempt (os, (V_reg r as c)) -> (
    (* every named alloca defines [r], and the access's bytes lie in
       its frame *)
    let alloca off o =
      let d = origin_id o in
      d >= 0
      && d < Array.length fn.at
      &&
      match instr fn d with
      | Alloca { dst; size = frame } ->
        dst = r && Passes.Guard_injection.in_frame ~frame ~off size
      | _ -> false
    in
    match List.assoc_opt c fs with
    | Some off ->
      cx.exempt && List.for_all (alloca off) os
      && guarded ~policy:false ~at:(b, j) ~impure fn c os target
    | None -> false)
  | W_exempt _ -> false
  | W_guard { origins; base; lo; hi; flags = fl; header } -> (
    let need =
      match header with
      | None -> Option.bind (List.assoc_opt base fs) (fun off -> span ~off size)
      | Some h -> List.find_map (footprint h base) fs
    in
    let joint =
      List.fold_left
        (fun acc o ->
          match (acc, cover cx fn base o) with
          | Some (l, h, x), Some (l', h', x') -> Some (max l l', min h h', x land x')
          | _ -> None)
        (Some (min_int, max_int, -1))
        origins
    in
    match need with
    | Some (nlo, nhi) ->
      origins <> []
      && joint = Some (lo, hi, fl)
      && lo <= nlo && nhi <= hi
      && flags land fl = flags
      && guarded ~at:(b, j) ~impure fn base origins target
    | None -> false)

(* -- the module ------------------------------------------------------- *)

let context_of (m : modul) =
  let funcs = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace funcs f.f_name f) m.funcs;
  {
    pure = purity m;
    funcs;
    gtab = Hashtbl.create 16;
    exempt = meta_find m Passes.Guard_injection.meta_exempt_stack = Some "true";
  }

exception Reject of string

(** Check certificate [cert] against [m]: [Ok (accesses, guards)], the
    reachable loads/stores and guard sites it vouches for. [body] as for
    {!body_digest}. *)
let check ?body (m : modul) cert : (int * int, validate_error) result =
  let cx = context_of m in
  let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt in
  let check_func (accesses, guards) (f, gs, ws) =
    let fn = context f in
    let impure = impure cx fn in
    List.iteri
      (fun k g ->
        if not (check_guarantee cx fn ~impure f g) then
          reject "@%s: guarantee %d is not witnessed" f.f_name k)
      gs;
    let ws = ref ws and accesses = ref accesses and guards = ref guards in
    Array.iteri
      (fun b ins ->
        if fn.live.(b) then
          Array.iteri
            (fun j i ->
              match (i, !ws) with
              | Call _, _ when Passes.Guard_injection.parse_guard i <> None -> incr guards
              | (Load _ | Store _), [] -> reject ""
              | (Load _ | Store _), w :: rest ->
                (match parse_witness w with
                | Some w when check_witness cx fn ~impure b j w -> ()
                | _ ->
                  reject "@%s: witness %s in block %s does not check" f.f_name w
                    (Kir.Cfg.block fn.cfg b).b_label);
                ws := rest;
                incr accesses
              | _ -> ())
            ins)
      fn.body;
    if !ws <> [] then reject "";
    (!accesses, !guards)
  in
  match parse_header cert with
  | None -> Error (Cert_invalid "not a v2 certificate")
  | Some (found, _, _, _, _) when found <> body_digest ?body m ->
    Error (Cert_stale { expected = body_digest ?body m; found })
  | Some (_, g, x, _, _)
    when g <> Passes.Guard_injection.guard_symbol || x <> string_of_bool cx.exempt ->
    Error (Cert_invalid "certificate names another injection configuration")
  | Some (_, _, _, _, sections) when List.length sections <> List.length m.funcs ->
    Error Cert_mismatch
  | Some (_, _, _, _, sections) -> (
    try
      (* every section's guarantees first: call witnesses name them *)
      let funcs =
        List.map2
          (fun f s ->
            match parse_section s with
            | Some (name, gs, ws) when name = f.f_name ->
              Hashtbl.replace cx.gtab name (Array.of_list gs);
              (f, gs, ws)
            | Some _ -> reject ""
            | None -> reject "@%s: malformed section" f.f_name)
          m.funcs sections
      in
      Ok (List.fold_left check_func (0, 0) funcs)
    with
    | Reject "" -> Error Cert_mismatch
    | Reject why -> Error (Cert_invalid why))

(** Load-time validation: the stored certificate must exist, name
    [expect_domain] when one is given, match the body digest, and check.
    [body] as for {!body_digest}. *)
let validate ?body ?expect_domain (m : modul) : (unit, validate_error) result =
  match meta_find m Passes.Attest.meta_cert with
  | None -> Error Cert_missing
  | Some cert -> (
    match (parse_header cert, expect_domain) with
    | Some (_, _, _, found, _), Some e when found <> Some e ->
      Error (Cert_wrong_domain { expected = e; found })
    | _ -> Result.map ignore (check ?body m cert))
