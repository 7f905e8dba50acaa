(** Guard-completeness certifier.

    Runs the {!Guard_cover} domain through the {!Dataflow} solver and
    proves that every reachable [Load]/[Store] in the module is
    dominated (on every path) by a [carat_guard] call whose coverage —
    base value, byte interval and access flags — subsumes the access.
    This is the static soundness argument the paper's attestation only
    gestures at: not just "the transform pass ran", but "after
    [guard_elim]/[guard_hoist]/[dce] rewrote guard placement, no access
    escaped".

    The proof is written out as a {b v2 certificate}: one witness per
    reachable access (the covering guards, the symbolic base, the byte
    interval and flags, a widened guard's loop header, the callee
    guarantees an interprocedural fact used) plus each function's
    exported guarantees, under a digest of the canonical module body.
    It is stored under the {!Passes.Attest.meta_cert} key and covered
    by the code signature. {!Cert_check} checks it without re-deriving
    anything; that small checker, not this module, is what the kernel
    runs at insmod.

    The guard contract is the kernel's, not the module's: only
    {!Passes.Guard_injection.guard_symbol} calls count, and every load
    and store needs one. The one recorded injection option,
    [exempt_stack], lets an access go unguarded when its bytes provably
    lie inside one of the function's own allocas, at a constant offset
    ({!Passes.Guard_injection.in_frame}). *)

open Kir.Types
module GC = Guard_cover

type access_kind = A_load | A_store

let access_kind_to_string = function A_load -> "load" | A_store -> "store"

type uncovered = {
  u_func : string;
  u_block : label;
  u_iid : int;  (** function-wide instruction id *)
  u_kind : access_kind;
  u_addr : string;  (** printed symbolic address *)
  u_size : int;
}

type guard_site = {
  gs_func : string;
  gs_block : label;
  gs_iid : int;
  gs_site : int;  (** compiler-assigned site id; -1 for the 3-arg form *)
  gs_used : bool;  (** justifies at least one reachable access *)
  gs_redundant : bool;  (** its coverage was already established *)
  gs_shadowed_by : int list;  (** iids of the guards that subsume it *)
}

(** How the analysis discharged one reachable access. *)
type proof =
  | P_covered of GC.fact * (int * reg) option
      (** covering fact; the counted loop (header, induction register)
          when its range licensed a widened guard *)
  | P_exempt of int
      (** alloca whose frame holds the access, at a constant offset *)
  | P_uncovered

type func_summary = {
  fs_name : string;
  fs_accesses : int;  (** reachable loads + stores *)
  fs_covered : int;  (** proven covered by a guard fact *)
  fs_exempt : int;  (** inside the function's own frame under [exempt_stack] *)
  fs_guards : guard_site list;
  fs_uncovered : uncovered list;
  fs_unreachable : label list;
  fs_sweeps : int;  (** dataflow sweeps to fixpoint *)
  fs_proofs : proof list;  (** one per reachable access, in block order *)
  fs_rets : GC.t list;  (** states at the end of each reachable return *)
}

type summary = {
  s_exempt_stack : bool;
  s_funcs : func_summary list;
  s_summaries : Summaries.t option;  (** when interprocedural *)
  s_solves : GC.solved list;  (** the solve each [s_funcs] entry walked *)
}

(** Analyze [f] with [call_effect] for its direct calls. [solved] is
    [f]'s coverage solve under that same [call_effect] when one is
    already at hand ({!Summaries.solved}); without it [f] is solved
    here. *)
let analyze_func ?(call_effect = fun _ -> GC.opaque_effect) ?solved ~exempt_stack
    (f : func) : func_summary =
  let ctx = { GC.neutral = Summaries.default_neutral; call_effect } in
  let solved = match solved with Some s -> s | None -> GC.solve ctx f in
  let { GC.cfg; bodies; base = iid_base; sol; states; _ } = solved in
  (* induction-variable ranges: lets one widened pre-header guard prove
     every iteration of a counted loop (see {!Range}); asked for only when
     no fact covers an access or guard directly *)
  let ranges = lazy (Range.analyze_func cfg) in
  (* function-wide instruction ids count off in block-array order *)
  let instr_at = Array.concat (Array.to_list bodies) in
  (* the alloca [k] when bytes [off, off + size) of it lie in its frame *)
  let frame_slot (core, off) size =
    match core with
    | GC.S_def k when k >= 0 && k < Array.length instr_at -> (
      match instr_at.(k) with
      | Alloca { size = frame; _ } when Passes.Guard_injection.in_frame ~frame ~off size ->
        Some k
      | _ -> None)
    | _ -> None
  in
  let used : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let guards = ref [] in
  let uncov = ref [] in
  let unreachable = ref [] in
  let proofs = ref [] in
  let accesses = ref 0
  and covered = ref 0
  and exempt = ref 0 in
  Array.iteri
    (fun b body ->
      match sol.Dataflow.block_in.(b) with
      | None -> unreachable := (Kir.Cfg.block cfg b).b_label :: !unreachable
      | Some _ ->
        let lbl = (Kir.Cfg.block cfg b).b_label in
        let bounds sv = Range.bounds_at (Lazy.force ranges) ~block:b sv in
        Array.iteri
          (fun k ins ->
            let iid = iid_base.(b) + k in
            (* the state before [ins], as the solve left it *)
            let t = states.(iid) in
            match ins with
            | Load { ty; addr; _ } | Store { ty; addr; _ } ->
              let kind = match ins with Load _ -> A_load | _ -> A_store in
              let size = size_of_ty ty in
              let flags =
                match kind with
                | A_load -> Passes.Guard_injection.flag_read
                | A_store -> Passes.Guard_injection.flag_write
              in
              incr accesses;
              let sv = GC.sv_of t.GC.env addr in
              let proof =
                match GC.covering_fact t sv ~size ~flags with
                | Some cf -> P_covered (cf, None)
                | None -> (
                  let ranged = GC.covering_fact ~bounds t sv ~size ~flags in
                  match (ranged, GC.base_off sv) with
                  | Some cf, (GC.S_gep (_, GC.S_merge (h, r), _), _) ->
                    P_covered (cf, Some (h, r))
                  | _, slot when exempt_stack -> (
                    match frame_slot slot size with
                    | Some k -> P_exempt k
                    | None -> P_uncovered)
                  | _ -> P_uncovered)
              in
              proofs := proof :: !proofs;
              (match proof with
              | P_covered (cf, _) ->
                incr covered;
                List.iter (fun o -> Hashtbl.replace used o ()) cf.GC.origins
              | P_exempt _ -> incr exempt
              | P_uncovered ->
                  uncov :=
                    {
                      u_func = f.f_name;
                      u_block = lbl;
                      u_iid = iid;
                      u_kind = kind;
                      u_addr = GC.sv_to_string sv;
                      u_size = size;
                    }
                    :: !uncov)
            | Call _ -> (
              match Passes.Guard_injection.parse_guard ins with
              | Some (addr, size, flags, site) ->
                let sv = GC.sv_of t.GC.env addr in
                let shadow = GC.covering_fact ~bounds t sv ~size ~flags in
                guards :=
                  {
                    gs_func = f.f_name;
                    gs_block = lbl;
                    gs_iid = iid;
                    gs_site = site;
                    gs_used = false;
                    gs_redundant = shadow <> None;
                    gs_shadowed_by =
                      (match shadow with
                      | Some cf -> cf.GC.origins
                      | None -> []);
                  }
                  :: !guards
              | None -> ())
            | _ -> ())
          body)
    bodies;
  let guards =
    List.rev_map (fun g -> { g with gs_used = Hashtbl.mem used g.gs_iid }) !guards
  in
  {
    fs_name = f.f_name;
    fs_accesses = !accesses;
    fs_covered = !covered;
    fs_exempt = !exempt;
    fs_guards = guards;
    fs_uncovered = List.rev !uncov;
    fs_unreachable = List.rev !unreachable;
    fs_sweeps = sol.Dataflow.sweeps;
    fs_proofs = List.rev !proofs;
    fs_rets = GC.rets solved;
  }

(** Does the module's signed metadata declare aggressive optimization?
    Only then does the certifier widen its proof search with
    interprocedural summaries — unoptimized modules keep the paper's
    strictly intraprocedural obligations, so e.g. the mutation sweep on
    a default-pipeline module behaves exactly as before. *)
let interprocedural m =
  meta_find m Passes.Guard_injection.meta_opt_level = Some "aggressive"

(** Analyze every function of [m] under its recorded [exempt_stack]
    option. Raises {!Dataflow.Diverged} only for a broken domain —
    callers treat that as a refusal, never as success.

    [prev] is an earlier analysis of [m], before some of its functions
    changed (the certified optimizer's previous derivation). Its
    interprocedural summaries go to {!Summaries.compute}, which takes
    over each function's solve that {!Guard_cover.reusable} allows; the
    proof walk over a solve taken over is taken over too, under the same
    [exempt_stack], since the walk reads nothing else. The result equals
    an analysis without [prev]. *)
let analyze ?prev (m : modul) : summary =
  let exempt_stack =
    meta_find m Passes.Guard_injection.meta_exempt_stack = Some "true"
  in
  let summaries =
    if interprocedural m then
      Some (Summaries.compute ?prev:(Option.bind prev (fun p -> p.s_summaries)) m)
    else None
  in
  let call_effect =
    match summaries with Some s -> Summaries.effect_of s | None -> fun _ -> GC.opaque_effect
  in
  let ctx = { GC.neutral = Summaries.default_neutral; call_effect } in
  let earlier = Hashtbl.create 32 in
  Option.iter
    (fun p ->
      List.iter2
        (fun fs solved -> Hashtbl.replace earlier fs.fs_name (solved, fs))
        p.s_funcs p.s_solves)
    prev;
  let same_exempt = match prev with Some p -> p.s_exempt_stack = exempt_stack | None -> false in
  let analyze f =
    let solved =
      match Option.bind summaries (fun s -> Summaries.solved s f) with
      | Some solved -> solved
      | None -> GC.solve ctx f
    in
    match Hashtbl.find_opt earlier f.f_name with
    | Some (s, fs) when s == solved && same_exempt -> (fs, solved)
    | _ -> (analyze_func ~call_effect ~solved ~exempt_stack f, solved)
  in
  let funcs = List.map analyze m.funcs in
  {
    s_exempt_stack = exempt_stack;
    s_funcs = List.map fst funcs;
    s_summaries = summaries;
    s_solves = List.map snd funcs;
  }

(* -- certificate --------------------------------------------------- *)

module CC = Cert_check
module CF = Cert_format

let body_digest = CC.body_digest

(** Module-metadata key naming the policy domain this module is meant to
    run under. When present, {!certify} stamps the domain into the
    certificate, so the proof names the policy it was derived against —
    a certificate for one tenant's domain cannot be replayed as another
    tenant's. Meta keys are outside {!body_digest}, so stamping the
    domain does not invalidate the body digest. *)
let meta_domain = "certify.domain"

let set_domain m name = meta_set m meta_domain name

(* an exported summary core (formals, symbols, immediates), with
   constant geps folded the way {!Cert_check.value} reads them *)
let rec vexp_of_sv sv =
  let fold e = match CF.base_off e with c, 0 -> c | c, o -> CF.V_gep (c, CF.V_imm o, 1) in
  match sv with
  | GC.S_imm n -> Some (CF.V_imm n)
  | GC.S_sym s -> Some (CF.V_sym s)
  | GC.S_param r -> Some (CF.V_reg r)
  | GC.S_gep (b, i, s) -> (
    match (vexp_of_sv b, vexp_of_sv i) with
    | Some b, Some i -> Some (fold (CF.V_gep (b, i, s)))
    | _ -> None)
  | GC.S_undef _ | GC.S_def _ | GC.S_merge _ -> None

exception Unwitnessed of string

(* One function's section: its exported guarantees, then one witness
   per reachable access. Each is the first reading of the analysis's
   proof that the checker accepts and the wire format can carry, so a
   certificate this writes always checks. *)
let section cx ~guarantees (f : func) (fs : func_summary) =
  let fn = CC.context f in
  let impure = CC.impure cx fn in
  let fail fmt =
    Printf.ksprintf (fun s -> raise (Unwitnessed (Printf.sprintf "@%s: %s" f.f_name s))) fmt
  in
  (* each origin id read as a guard, or as a call through one of its
     callee's guarantees: the first reading covering [need] on [c],
     with what it covers *)
  let pick c (lo, hi, fl) ids =
    let readings iid =
      match CC.instr fn iid with
      | i when Passes.Guard_injection.parse_guard i <> None -> [ CF.O_guard iid ]
      | Call { callee; _ } ->
        let gs = Option.value (Hashtbl.find_opt cx.CC.gtab callee) ~default:[||] in
        let n = Array.length gs in
        List.init n (fun k -> CF.O_call (iid, k))
      | _ -> []
    in
    let covering o =
      match CC.cover cx fn c o with
      | Some (l, h, x) when l <= lo && hi <= h && fl land x = fl -> Some (o, (l, h, x))
      | _ -> None
    in
    let os = List.map (fun iid -> List.find_map covering (readings iid)) ids in
    if ids <> [] && List.for_all Option.is_some os then Some (List.map Option.get os)
    else None
  in
  (* the guarantee [k] with the origins of the facts that establish it
     at each reachable return *)
  let guarantee k (core, lo, hi, fl) =
    let g_base = Option.get (vexp_of_sv core) in
    let ids =
      List.sort_uniq compare
        (List.concat_map
           (fun (t : GC.t) ->
             Option.value ~default:[] (GC.SvMap.find_opt core t.GC.facts)
             |> List.find_opt (fun (x : GC.fact) ->
                    GC.coverage_subsumes x { x with lo; hi; flags = fl })
             |> Option.fold ~none:[] ~some:(fun (x : GC.fact) -> x.GC.origins))
           fs.fs_rets)
    in
    match pick g_base (lo, hi, fl) ids with
    | Some os ->
      let g_origins = List.map fst os in
      let g = { CF.g_base; g_lo = lo; g_hi = hi; g_flags = fl; g_origins } in
      if CF.encodable g_base && CC.check_guarantee cx fn ~impure f g then g
      else fail "guarantee %d has no checkable witness" k
    | None -> fail "guarantee %d has no checkable witness" k
  in
  (* the witness for access [i] at (b, j), which the analysis proved by [p] *)
  let witness b j i p =
    let flags, size, addr =
      match i with
      | Load { ty; addr; _ } -> (1, size_of_ty ty, addr)
      | Store { ty; addr; _ } -> (2, size_of_ty ty, addr)
      | _ -> (0, 0, Imm 0)
    in
    let checks w =
      (match w with CF.W_guard { base; _ } | CF.W_exempt (_, base) -> CF.encodable base)
      && CC.check_witness cx fn ~impure b j w
    in
    (* candidate bases, deepest reading first, with the bytes each must cover *)
    let candidates range =
      let readings = List.rev (CC.forms fn b j addr) in
      match range with
      | None ->
        List.filter_map
          (fun (c, off) -> Option.map (fun need -> (c, need, None)) (CF.span ~off size))
          readings
      | Some (h, r) ->
        List.filter_map
          (function
            | CF.V_gep (eb, CF.V_reg r', sc), off when r' = r && sc > 0 -> (
              let c, boff = CF.base_off eb in
              match (CC.counted_loop fn h, CF.add boff off) with
              | Some l, Some off when l.CC.l_reg = r ->
                Option.map
                  (fun need -> (c, need, Some h))
                  (CF.span ~lo:l.CC.l_lo ~hi:l.CC.l_hi ~scale:sc ~off size)
              | _ -> None)
            | _ -> None)
          readings
    in
    match p with
    | P_covered (cf, range) ->
      List.find_map
        (fun (c, (nlo, nhi), header) ->
          Option.bind (pick c (nlo, nhi, flags) cf.GC.origins) (fun os ->
              let lo, hi, fl =
                List.fold_left
                  (fun (l, h, x) (_, (l', h', x')) -> (max l l', min h h', x land x'))
                  (min_int, max_int, -1) os
              in
              let origins = List.map fst os in
              let w = CF.W_guard { origins; base = c; lo; hi; flags = fl; header } in
              if checks w then Some w else None))
        (candidates range)
    | P_exempt k -> (
      match CC.instr fn k with
      | Alloca { dst; _ } ->
        List.find_opt checks [ CF.W_exempt ([ CF.O_guard k ], CF.V_reg dst) ]
      | _ -> None)
    | P_uncovered -> None
  in
  let gs = List.mapi guarantee (guarantees f) in
  let proofs = ref fs.fs_proofs and ws = ref [] in
  Array.iteri
    (fun b ins ->
      if fn.CC.live.(b) then
        Array.iteri
          (fun j i ->
            match (i, !proofs) with
            | (Load _ | Store _), p :: rest -> (
              proofs := rest;
              match witness b j i p with
              | Some w -> ws := w :: !ws
              | None ->
                fail "no checkable witness for the access in block %s"
                  (Kir.Cfg.block fn.CC.cfg b).b_label)
            | _ -> ())
          ins)
    fn.CC.body;
  (f.f_name, gs, List.rev !ws)

(* the v2 certificate text ({!Cert_format}) *)
let render ?domain (m : modul) (s : summary) =
  let reserved name = String.contains name ';' || String.contains name '|' in
  Option.iter (fun d -> if reserved d then raise (Unwitnessed ("domain name " ^ d))) domain;
  List.iter
    (fun f -> if reserved f.f_name then raise (Unwitnessed ("function name " ^ f.f_name)))
    m.funcs;
  let cx = CC.context_of m in
  let guarantees f =
    match s.s_summaries with Some t -> Summaries.guarantees t f.f_name | None -> []
  in
  (* declared first: call witnesses name a callee's guarantees by index *)
  List.iter
    (fun f ->
      Hashtbl.replace cx.CC.gtab f.f_name
        (Array.of_list
           (List.map
              (fun (core, g_lo, g_hi, g_flags) ->
                match vexp_of_sv core with
                | Some g_base -> { CF.g_base; g_lo; g_hi; g_flags; g_origins = [] }
                | None -> raise (Unwitnessed ("guarantee over " ^ GC.sv_to_string core)))
              (guarantees f))))
    m.funcs;
  CF.render ~digest:(body_digest m) ~guard:Passes.Guard_injection.guard_symbol
    ~exempt:s.s_exempt_stack ~domain
    (List.map2 (section cx ~guarantees) m.funcs s.s_funcs)

(** Prove guard completeness with [domain] taken verbatim ([None] = an
    undomained certificate). [prev] as for {!analyze}. *)
let certify_as ?prev ~domain (m : modul) : (string * summary, string) result =
  match analyze ?prev m with
  | exception Dataflow.Diverged why -> Error ("analysis diverged: " ^ why)
  | s -> (
    let uncov = List.concat_map (fun fs -> fs.fs_uncovered) s.s_funcs in
    match uncov with
    | [] -> (
      match render ?domain m s with
      | cert -> Ok (cert, s)
      | exception Unwitnessed why -> Error ("cannot write a checkable witness: " ^ why))
    | u :: _ ->
      Error
        (Printf.sprintf
           "%d unguarded access(es); first: %s of %d bytes at %s in @%s \
            block %s"
           (List.length uncov)
           (access_kind_to_string u.u_kind)
           u.u_size u.u_addr u.u_func u.u_block))

(** Prove guard completeness; [Ok (certificate, summary)] or a human-
    readable refusal naming the first unguarded access. The certificate
    names [domain] when given (or the module's {!meta_domain} stamp).
    [prev] as for {!analyze}. *)
let certify ?prev ?domain (m : modul) : (string * summary, string) result =
  let domain =
    match domain with Some _ -> domain | None -> meta_find m meta_domain
  in
  certify_as ?prev ~domain m

let certificate ?domain m = Result.map fst (certify ?domain m)

let stored_digest cert = Option.map (fun (d, _, _, _, _) -> d) (CF.parse_header cert)

(** The policy domain a certificate was proven against; [None] for
    undomained certificates. *)
let stored_domain cert = Option.bind (CF.parse_header cert) (fun (_, _, _, d, _) -> d)

type validate_error = CC.validate_error =
  | Cert_missing
  | Cert_stale of { expected : string; found : string }
  | Cert_invalid of string
  | Cert_mismatch
  | Cert_wrong_domain of { expected : string; found : string option }

let validate_error_to_string = CC.validate_error_to_string

(** Load-time validation is the checker's: no re-derivation. *)
let validate ?expect_domain m = CC.validate ?expect_domain m

(* -- pass ---------------------------------------------------------- *)

(* A certificate already stamped for this body and domain — the
   certified optimizer leaves one — is checked, not derived again. *)
let run (m : modul) : Passes.Pass.result =
  let remarks accesses guards =
    {
      Passes.Pass.changed = true;
      remarks =
        [
          ("accesses", string_of_int accesses);
          ("guards", string_of_int guards);
          ("verdict", "certified");
        ];
    }
  in
  let stamped =
    match meta_find m Passes.Attest.meta_cert with
    | Some cert
      when Option.map (fun (_, _, _, d, _) -> d) (CF.parse_header cert)
           = Some (meta_find m meta_domain) ->
      Result.to_option (CC.check m cert)
    | _ -> None
  in
  match stamped with
  | Some (accesses, guards) -> remarks accesses guards
  | None -> (
    match certify m with
    | Error reason -> Passes.Pass.fail "certify" "%s" reason
    | Ok (cert, s) ->
      meta_set m Passes.Attest.meta_cert cert;
      let sum f = List.fold_left (fun n fs -> n + f fs) 0 s.s_funcs in
      remarks (sum (fun fs -> fs.fs_accesses)) (sum (fun fs -> List.length fs.fs_guards)))

let pass () = Passes.Pass.make "certify" run

(* registering here lets the pipelines (one library below us) insert
   the certifier without a dependency cycle; any program that touches
   this library gets certified pipelines *)
let () = Passes.Pipeline.set_certifier pass
