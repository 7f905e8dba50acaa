(* Analysis: the dataflow solver, the guard-coverage domain, the
   guard-completeness certifier, certificate validation at module scale,
   and the KIR lints. *)

open Carat_kop
open Kir.Types

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let guard_sym = "carat_guard"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------- fixtures ---------- *)

let straightline_module () =
  let b = Kir.Builder.create "straight" in
  ignore (Kir.Builder.declare_global b "g" ~size:32);
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  let v1 = Kir.Builder.load b I64 (Reg "%p") in
  let v2 = Kir.Builder.load b I64 (Reg "%p") in
  let s = Kir.Builder.add b I64 v1 v2 in
  Kir.Builder.store b I64 s (Sym "g");
  Kir.Builder.ret b (Some s);
  Kir.Builder.modul b

let diamond_module () =
  let b = Kir.Builder.create "diamond" in
  ignore (Kir.Builder.declare_global b "g" ~size:32);
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  Kir.Builder.if_then_else b (Reg "%p")
    ~then_:(fun () -> ignore (Kir.Builder.load b I64 (Reg "%p")))
    ~else_:(fun () -> Kir.Builder.store b I64 (Imm 7) (Sym "g"));
  let v = Kir.Builder.load b I64 (Sym "g") in
  Kir.Builder.ret b (Some v);
  Kir.Builder.modul b

let loop_module () =
  let b = Kir.Builder.create "loopy" in
  ignore (Kir.Builder.declare_global b "table" ~size:64);
  ignore
    (Kir.Builder.start_func b "walk" ~params:[ ("%n", I64) ] ~ret:(Some I64));
  Kir.Builder.mov_to b "%acc" I64 (Imm 0);
  Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%n") ~step:(Imm 1)
    (fun _i ->
      let v = Kir.Builder.load b I64 (Sym "table") in
      let s = Kir.Builder.add b I64 (Reg "%acc") v in
      Kir.Builder.mov_to b "%acc" I64 s);
  Kir.Builder.ret b (Some (Reg "%acc"));
  Kir.Builder.modul b

(* a hand-guarded module: guard(args) immediately before each access,
   without running the injection pass *)
let manual_module ~guard_flags ~access () =
  let b = Kir.Builder.create "manual" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call
       { dst = None; callee = guard_sym;
         args = [ Reg "%p"; Imm 8; Imm guard_flags ] });
  (match access with
  | `Load -> ignore (Kir.Builder.load b I32 (Reg "%p"))
  | `Store -> Kir.Builder.store b I32 (Imm 1) (Reg "%p"));
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  m

let inject m =
  ignore (Passes.Guard_injection.run m);
  m

let optimize m =
  ignore (Passes.Guard_elim.run m);
  ignore (Passes.Guard_hoist.run m);
  ignore (Passes.Dce.run m);
  m

(* certify [m], stamp the certificate, and run the kernel's checker on
   it: every module the certifier accepts must also pass the checker *)
let certify_checked m =
  match Analysis.Certify.certify m with
  | Error _ as e -> e
  | Ok (cert, s) -> (
    meta_set m Passes.Attest.meta_cert cert;
    match Analysis.Cert_check.validate m with
    | Ok () -> Ok (cert, s)
    | Error e ->
      Alcotest.failf "certifier accepted, checker refused: %s"
        (Analysis.Cert_check.validate_error_to_string e))

(* the certificate with its body digest re-stamped for [m]'s current
   body, so only the witnesses stand between a forgery and insmod *)
let restamp m cert =
  match String.split_on_char ';' cert with
  | v :: _ :: rest ->
    String.concat ";" (v :: ("digest=" ^ Analysis.Cert_check.body_digest m) :: rest)
  | _ -> cert

let stamp m cert = meta_set m Passes.Attest.meta_cert (restamp m cert)

(* ---------- dataflow solver ---------- *)

let test_dataflow_block_counting () =
  (* saturating path-length domain: checks RPO iteration, joins, and
     convergence around the loop's back edge *)
  let m = loop_module () in
  let f = List.hd m.funcs in
  let cfg = Kir.Cfg.of_func f in
  let d =
    {
      Analysis.Dataflow.entry = 0;
      equal = Int.equal;
      join = (fun ~block:_ xs -> List.fold_left max 0 xs);
      transfer = (fun ~block:_ x -> min (x + 1) 8);
    }
  in
  let s = Analysis.Dataflow.solve d cfg in
  checkb "converged" true (s.Analysis.Dataflow.sweeps > 0);
  Array.iteri
    (fun i out ->
      match out with
      | Some v -> checkb (Printf.sprintf "block %d visited" i) true (v > 0)
      | None -> Alcotest.fail "reachable block not solved")
    s.Analysis.Dataflow.block_out

let test_dataflow_unreachable_stays_bottom () =
  let m = straightline_module () in
  let f = List.hd m.funcs in
  f.blocks <-
    f.blocks @ [ { b_label = "island"; body = []; term = Ret None } ];
  let cfg = Kir.Cfg.of_func f in
  let d =
    {
      Analysis.Dataflow.entry = ();
      equal = (fun () () -> true);
      join = (fun ~block:_ _ -> ());
      transfer = (fun ~block:_ () -> ());
    }
  in
  let s = Analysis.Dataflow.solve d cfg in
  let island = Kir.Cfg.index_of cfg "island" in
  checkb "island unsolved" true (s.Analysis.Dataflow.block_in.(island) = None)

(* ---------- certifier: positive and negative ---------- *)

let test_certify_rejects_raw () =
  match Analysis.Certify.certify (straightline_module ()) with
  | Error msg -> checkb "mentions unguarded" true (contains msg "unguarded")
  | Ok _ -> Alcotest.fail "unguarded module certified"

let test_certify_after_injection () =
  List.iter
    (fun mk ->
      let m = inject (mk ()) in
      match certify_checked m with
      | Ok (_, s) ->
        let covered =
          List.fold_left
            (fun n fs -> n + fs.Analysis.Certify.fs_covered)
            0 s.Analysis.Certify.s_funcs
        in
        checkb "covers accesses" true (covered > 0)
      | Error msg -> Alcotest.fail ("injected module failed: " ^ msg))
    [ straightline_module; diamond_module; loop_module ]

let test_certify_after_optimization () =
  List.iter
    (fun mk ->
      let m = optimize (inject (mk ())) in
      match certify_checked m with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("optimized module failed: " ^ msg))
    [ straightline_module; diamond_module; loop_module ]

let test_certify_hoisted_loop () =
  (* hoisting must actually fire on the loop fixture, and the hoisted
     guard must still dominate the in-loop access for the certifier *)
  let m = inject (loop_module ()) in
  let before = Passes.Guard_injection.count_guards m in
  ignore (Passes.Guard_elim.run m);
  let r = Passes.Guard_hoist.run m in
  checkb "hoist fired" true r.Passes.Pass.changed;
  checkb "guard moved, not dropped" true
    (Passes.Guard_injection.count_guards m <= before);
  checkb "still certifies" true (Result.is_ok (certify_checked m))

let test_certify_coverage_subsumption () =
  (* an 8-byte rw guard covers a narrower access at the same base *)
  checkb "load under rw guard" true
    (Result.is_ok (certify_checked (manual_module ~guard_flags:3 ~access:`Load ())));
  checkb "store under rw guard" true
    (Result.is_ok (certify_checked (manual_module ~guard_flags:3 ~access:`Store ())));
  (* a read-only guard does not license a store *)
  checkb "store under ro guard rejected" true
    (Result.is_error
       (Analysis.Certify.certify
          (manual_module ~guard_flags:1 ~access:`Store ())))

let test_certify_kill_at_opaque_call () =
  (* an un-analyzed callee invalidates coverage: it may unmap the page *)
  let m = manual_module ~guard_flags:3 ~access:`Load () in
  let f = List.hd m.funcs in
  m.externs <- m.externs @ [ ("ext", 0) ];
  (match f.blocks with
  | blk :: _ ->
    blk.body <-
      (match blk.body with
      | guard :: rest ->
        (guard :: [ Call { dst = None; callee = "ext"; args = [] } ]) @ rest
      | [] -> assert false)
  | [] -> assert false);
  checkb "opaque call kills coverage" true
    (Result.is_error (Analysis.Certify.certify m))

(* ---------- differential property ---------- *)

let gen_module =
  QCheck.Gen.(
    let gen_ty = oneofl [ I8; I16; I32; I64 ] in
    let* n = int_range 1 10 in
    let* ops = list_repeat n (tup2 gen_ty (int_bound 3)) in
    let* with_loop = bool in
    let b = Kir.Builder.create "gen" in
    ignore (Kir.Builder.declare_global b "g" ~size:256);
    ignore
      (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
    List.iter
      (fun (ty, kind) ->
        match kind with
        | 0 -> ignore (Kir.Builder.load b ty (Reg "%p"))
        | 1 -> Kir.Builder.store b ty (Imm 5) (Sym "g")
        | 2 ->
          let a = Kir.Builder.gep b (Reg "%p") (Imm 4) ~scale:1 in
          ignore (Kir.Builder.load b ty a)
        | _ -> ignore (Kir.Builder.load b ty (Reg "%p")))
      ops;
    if with_loop then
      Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Imm 8) ~step:(Imm 1)
        (fun i ->
          (* one invariant (hoistable) and one variant access *)
          ignore (Kir.Builder.load b I64 (Sym "g"));
          let a = Kir.Builder.gep b (Reg "%p") i ~scale:8 in
          Kir.Builder.store b I64 (Imm 1) a);
    Kir.Builder.ret b (Some (Imm 0));
    return (Kir.Builder.modul b))

let prop_certify_differential =
  QCheck.Test.make
    ~name:"random module certifies after injection and after optimization"
    ~count:80 (QCheck.make gen_module) (fun m ->
      let m = inject m in
      let ok_injected = Result.is_ok (certify_checked m) in
      let m = optimize m in
      ok_injected
      && Result.is_ok (certify_checked m)
      && Kir.Verify.is_valid m)

(* ---------- optimizer differential property ---------- *)

(* Random modules, random (object-granular) policies: the aggressive
   optimizer must preserve the observable behavior of the unoptimized
   compile — same return value, same final memory, same allow/deny
   verdict — while never executing more checks; and neither compile may
   behave differently across the two execution engines. *)

(* pure case data, so the same description builds two identical modules *)
let gen_opt_case =
  QCheck.Gen.(
    let* n_ops = int_range 1 6 in
    let* ops = list_repeat n_ops (tup2 (int_bound 3) (int_bound 3)) in
    let* loop_n = int_range 2 9 in
    let* widenable = bool in
    let* cover_buf = bool in
    let* buf_prot = int_range 1 3 in
    let* cover_infra = frequency [ (3, return true); (1, return false) ] in
    return (ops, loop_n, widenable, cover_buf, buf_prot, cover_infra))

let build_opt_module (ops, loop_n, widenable) =
  let b = Kir.Builder.create "diff" in
  ignore (Kir.Builder.declare_global b "g" ~size:256);
  (* a callee whose guard guarantees its parameter: interprocedural
     elimination can spare the caller's own check *)
  ignore (Kir.Builder.start_func b "h" ~params:[ ("%q", I64) ] ~ret:None);
  Kir.Builder.store b I64 (Imm 0x11) (Reg "%q");
  Kir.Builder.ret b None;
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  Kir.Builder.mov_to b "%acc" I64 (Imm 0);
  ignore (Kir.Builder.call b "h" [ Reg "%p" ]);
  List.iter
    (fun (t, kind) ->
      let ty = List.nth [ I8; I16; I32; I64 ] t in
      let accum v =
        let s = Kir.Builder.add b I64 (Reg "%acc") v in
        Kir.Builder.mov_to b "%acc" I64 s
      in
      match kind with
      | 0 -> accum (Kir.Builder.load b ty (Reg "%p"))
      | 1 -> Kir.Builder.store b ty (Imm 0x2A) (Sym "g")
      | 2 ->
        (* adjacent-offset access: coalescing fodder *)
        let a = Kir.Builder.gep b (Reg "%p") (Imm 8) ~scale:1 in
        Kir.Builder.store b ty (Imm 0x33) a
      | _ -> accum (Kir.Builder.load b ty (Sym "g")))
    ops;
  (* counted loop over buf: hoist-widening fodder when the stride is
     within the access width *)
  Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Imm loop_n) ~step:(Imm 1)
    (fun i ->
      let scale = if widenable then 8 else 1 in
      let a = Kir.Builder.gep b (Reg "%p") i ~scale in
      Kir.Builder.store b I64 (Imm 0x44) a);
  Kir.Builder.ret b (Some (Reg "%acc"));
  Kir.Builder.modul b

(* run [m] to completion under an object-granular policy (each
   allocation entirely in or entirely out); audit mode, so denies are
   recorded but execution continues and final memory is meaningful *)
let exec_opt_case m ~engine ~cover_buf ~buf_prot ~cover_infra =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Engine.install ~kind:engine k);
  let pm =
    Policy.Policy_module.install ~site_cache:true
      ~on_deny:Policy.Policy_module.Audit k
  in
  let buf = Kernel.kmalloc k ~size:256 in
  Policy.Policy_module.set_policy pm
    ((if cover_buf then
        [ Policy.Region.v ~tag:"buf" ~base:buf ~len:256 ~prot:buf_prot () ]
      else [])
    @
    if cover_infra then
      [
        Policy.Region.v ~tag:"module-area" ~base:Kernel.Layout.module_base
          ~len:Kernel.Layout.module_area_size ~prot:Policy.Region.prot_rw ();
      ]
    else []);
  (match Kernel.insmod k m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  let ret = Kernel.call_symbol k "f" [| buf |] in
  let mem = List.init 32 (fun i -> Kernel.read k ~addr:(buf + (8 * i)) ~size:8) in
  let st = Policy.Engine.stats (Policy.Policy_module.engine pm) in
  ( ret,
    mem,
    st.Policy.Engine.checks,
    st.Policy.Engine.allowed,
    st.Policy.Engine.denied )

let prop_optimizer_differential =
  QCheck.Test.make
    ~name:
      "aggressive opt preserves return, memory, and verdict; fewer checks; \
       engine parity"
    ~count:20 (QCheck.make gen_opt_case)
    (fun (ops, loop_n, widenable, cover_buf, buf_prot, cover_infra) ->
      let run opt engine =
        let m = build_opt_module (ops, loop_n, widenable) in
        ignore (Passes.Pipeline.compile ~opt m);
        if Analysis.Cert_check.validate m <> Ok () then
          Alcotest.fail "compiled module fails the certificate checker";
        exec_opt_case m ~engine ~cover_buf ~buf_prot ~cover_infra
      in
      let ((r_n, m_n, c_n, a_n, d_n) as none_i) =
        run Passes.Pipeline.O_none Vm.Engine.Interp
      in
      let ((r_a, m_a, c_a, a_a, d_a) as aggr_i) =
        run Passes.Pipeline.O_aggressive Vm.Engine.Interp
      in
      run Passes.Pipeline.O_none Vm.Engine.Compiled = none_i
      && run Passes.Pipeline.O_aggressive Vm.Engine.Compiled = aggr_i
      && r_n = r_a && m_n = m_a
      && (d_n > 0) = (d_a > 0)
      && c_a <= c_n
      && a_n + d_n = c_n
      && a_a + d_a = c_a)

(* ---------- e1000e driver: certification + mutation sweep ---------- *)

let compiled_driver_at ~opt () =
  let m = Nic.Driver_gen.generate ~module_scale:6 ~with_rogue:false () in
  ignore (Passes.Pipeline.compile ~opt m);
  m

let compiled_driver ~optimize () =
  compiled_driver_at
    ~opt:(if optimize then Passes.Pipeline.O_basic else Passes.Pipeline.O_none)
    ()

let test_driver_certifies () =
  checkb "default pipeline" true
    (Analysis.Certify.validate (compiled_driver ~optimize:false ()) = Ok ());
  checkb "optimized pipeline" true
    (Analysis.Certify.validate (compiled_driver ~optimize:true ()) = Ok ())

let test_driver_aggressive_certifies () =
  (* the certified optimizer must actually fire (not roll back), shrink
     the static guard census, and leave a module that re-validates *)
  let m = Nic.Driver_gen.generate ~module_scale:6 ~with_rogue:false () in
  let remarks = Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive m in
  let opt_remarks =
    match List.assoc_opt "guard-optimize" remarks with
    | Some (r : Passes.Pass.result) -> r.Passes.Pass.remarks
    | None -> Alcotest.fail "guard-optimize pass did not run"
  in
  checkb "optimizer was not rolled back" true
    (List.assoc_opt "restored" opt_remarks = None);
  checkb "optimizer changed something" true
    (List.exists (fun (_, v) -> v <> "0") opt_remarks);
  let basic = Passes.Guard_injection.count_guards (compiled_driver ~optimize:true ()) in
  checkb "fewer static guards than basic" true
    (Passes.Guard_injection.count_guards m < basic);
  checkb "re-validates" true (Analysis.Certify.validate m = Ok ());
  checkb "stamped aggressive" true
    (meta_find m Passes.Guard_injection.meta_opt_level = Some "aggressive")

(* the multi-queue drivers reach their per-queue state through a gep
   of the queue parameter defined in the entry block: the certificate
   must still carry the callee guarantees the optimizer relied on, or
   the optimizer rolls back *)
let test_driver_multiqueue_aggressive () =
  List.iter
    (fun (tx_queues, rx_queues) ->
      let m = Nic.Driver_gen.generate ~module_scale:6 ~tx_queues ~rx_queues () in
      let remarks = Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive m in
      let restored =
        List.exists
          (fun (pass, (r : Passes.Pass.result)) ->
            pass = "guard-optimize" && List.mem_assoc "restored" r.Passes.Pass.remarks)
          remarks
      in
      checkb
        (Printf.sprintf "%d/%d queues: optimizer kept its transforms" tx_queues rx_queues)
        false restored;
      checkb "checker accepts" true (Analysis.Cert_check.validate m = Ok ()))
    [ (1, 1); (4, 1); (4, 4); (Nic.Regs.max_tx_queues, 4) ]

let delete_nth_guard m n =
  (* remove the n-th carat_guard call (module order); true if deleted *)
  let k = ref 0 in
  let deleted = ref false in
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          blk.body <-
            List.filter
              (function
                | Call { callee; _ } when callee = guard_sym ->
                  let mine = !k = n in
                  incr k;
                  if mine then deleted := true;
                  not mine
                | _ -> true)
              blk.body)
        f.blocks)
    m.funcs;
  !deleted

(* replace the n-th guard call (module order) with a register move, so
   every instruction id stays put; true if a guard was replaced *)
let neuter_nth_guard m n =
  let k = ref 0 in
  let hit = ref false in
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          blk.body <-
            List.map
              (function
                | Call { callee; _ } as i when callee = guard_sym ->
                  let mine = !k = n in
                  incr k;
                  if mine then (hit := true; Mov { dst = "%mutant"; ty = I64; src = Imm 0 })
                  else i
                | i -> i)
              blk.body)
        f.blocks)
    m.funcs;
  !hit

(* acceptance: deleting ANY single guard must flip the certifier to
   reject, and the kernel's checker must refuse the mutant under the
   original certificate with its digest re-stamped — only the witnesses
   stand between the mutant and insmod *)
let mutation_sweep ~opt =
  let total = Passes.Guard_injection.count_guards (compiled_driver_at ~opt ()) in
  checkb "driver has guards" true (total > 0);
  let survivors = ref [] and forged = ref [] in
  for n = 0 to total - 1 do
    let m = compiled_driver_at ~opt () in
    checkb "mutant deleted a guard" true (delete_nth_guard m n);
    if Result.is_ok (Analysis.Certify.certify m) then survivors := n :: !survivors;
    let m = compiled_driver_at ~opt () in
    let cert = Option.get (meta_find m Passes.Attest.meta_cert) in
    checkb "mutant neutered a guard" true (neuter_nth_guard m n);
    stamp m cert;
    if Analysis.Cert_check.validate m = Ok () then forged := n :: !forged
  done;
  Alcotest.(check (list int)) "every mutant caught by the certifier" [] !survivors;
  Alcotest.(check (list int)) "every mutant caught by the checker" [] !forged

let test_driver_mutation_sweep () =
  mutation_sweep ~opt:Passes.Pipeline.O_none;
  mutation_sweep ~opt:Passes.Pipeline.O_basic

(* the same sweep over the certified optimizer's output: after
   elimination, widening, and coalescing every surviving guard is
   load-bearing *)
let test_driver_mutation_sweep_aggressive () =
  mutation_sweep ~opt:Passes.Pipeline.O_aggressive

(* ---------- certificate validation ---------- *)

let test_validate_errors () =
  let m = compiled_driver ~optimize:false () in
  checkb "fresh cert ok" true (Analysis.Certify.validate m = Ok ());
  (* missing *)
  let m1 = compiled_driver ~optimize:false () in
  m1.meta <-
    List.filter (fun (k, _) -> k <> Passes.Attest.meta_cert) m1.meta;
  checkb "missing" true
    (Analysis.Certify.validate m1 = Error Analysis.Certify.Cert_missing);
  (* stale: body changed after certification *)
  let m2 = compiled_driver ~optimize:false () in
  (match m2.funcs with
  | f :: _ ->
    f.blocks <-
      f.blocks @ [ { b_label = "tamper"; body = []; term = Ret None } ]
  | [] -> ());
  (match Analysis.Certify.validate m2 with
  | Error (Analysis.Certify.Cert_stale _) -> ()
  | _ -> Alcotest.fail "tampered body not flagged stale");
  (* invalid: garbage certificate *)
  let m3 = compiled_driver ~optimize:false () in
  meta_set m3 Passes.Attest.meta_cert "not a certificate";
  (match Analysis.Certify.validate m3 with
  | Error (Analysis.Certify.Cert_invalid _) -> ()
  | _ -> Alcotest.fail "garbage cert not flagged invalid");
  (* mismatch: digest field intact, but the census was doctored *)
  let m4 = compiled_driver ~optimize:false () in
  let cert = Option.get (meta_find m4 Passes.Attest.meta_cert) in
  meta_set m4 Passes.Attest.meta_cert (cert ^ ";forged=1");
  match Analysis.Certify.validate m4 with
  | Error Analysis.Certify.Cert_mismatch -> ()
  | _ -> Alcotest.fail "forged census not flagged"


(* ---------- proof-carrying certificates ---------- *)

module CF = Analysis.Cert_format

(* rewrite the certificate's witnesses for function [fname]: [f] maps
   the k-th witness to its replacement list ([] drops it) *)
let forge_witnesses m fname f =
  let cert = Option.get (meta_find m Passes.Attest.meta_cert) in
  match CF.parse_header cert with
  | None -> Alcotest.fail "unparsable certificate"
  | Some (digest, guard, exempt, domain, sections) ->
    let sections =
      List.map
        (fun sec ->
          match CF.parse_section sec with
          | Some (name, gs, ws) ->
            let ws = List.map (fun w -> Option.get (CF.parse_witness w)) ws in
            (name, gs, if name = fname then List.concat (List.mapi f ws) else ws)
          | None -> Alcotest.fail "unparsable section")
        sections
    in
    meta_set m Passes.Attest.meta_cert
      (CF.render ~digest ~guard ~exempt:(exempt = "true") ~domain sections)

let widen_first k = function
  | CF.W_guard g when k = 0 -> [ CF.W_guard { g with hi = g.hi + 1 } ]
  | w -> [ w ]

(* guards on both arms of a diamond, the access after the join: its
   witness names both guards *)
let two_path_module () =
  let b = Kir.Builder.create "twopath" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64); ("%c", I64) ] ~ret:None);
  let guard () =
    Kir.Builder.emit b
      (Call { dst = None; callee = guard_sym; args = [ Reg "%p"; Imm 8; Imm 1 ] })
  in
  Kir.Builder.if_then_else b (Reg "%c") ~then_:guard ~else_:guard;
  ignore (Kir.Builder.load b I64 (Reg "%p"));
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3); ("ext", 0) ];
  m

(* a counted loop over [p[0..8)] whose per-iteration guard the certified
   optimizer widens into one pre-header guard *)
let widened_loop_module () =
  let b = Kir.Builder.create "widen" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Imm 8) ~step:(Imm 1) (fun i ->
      let a = Kir.Builder.gep b (Reg "%p") i ~scale:8 in
      Kir.Builder.store b I64 (Imm 1) a);
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive m);
  m

(* @h guards 16 bytes of its argument; @f's store rides on that
   guarantee instead of a guard of its own *)
let guarantee_module () =
  let b = Kir.Builder.create "interproc" in
  ignore (Kir.Builder.start_func b "h" ~params:[ ("%q", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call { dst = None; callee = guard_sym; args = [ Reg "%q"; Imm 16; Imm 2 ] });
  Kir.Builder.store b I64 (Imm 0) (Reg "%q");
  Kir.Builder.ret b None;
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.call_unit b "h" [ Reg "%p" ];
  Kir.Builder.store b I64 (Imm 1) (Reg "%p");
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  meta_set m Passes.Guard_injection.meta_opt_level "aggressive";
  m

(* [text] parsed, with a hand-written certificate for its one function
   @f whose only witness, for its one access, reads that access as
   covered by @f's first guard on 8 bytes of @g *)
let with_witness text =
  let m = Kir.Parser.parse_string text in
  let body = List.concat_map (fun b -> b.body) (List.hd m.funcs).blocks in
  let rec first_guard k = function
    | Call { callee; _ } :: _ when callee = guard_sym -> k
    | _ :: rest -> first_guard (k + 1) rest
    | [] -> Alcotest.fail "no guard"
  in
  let w =
    CF.W_guard
      { origins = [ CF.O_guard (first_guard 0 body) ]; base = CF.V_sym "g"; lo = 0; hi = 8;
        flags = 1; header = None }
  in
  meta_set m Passes.Attest.meta_cert
    (CF.render ~digest:(Analysis.Cert_check.body_digest m) ~guard:guard_sym ~exempt:false
       ~domain:None
       [ ("f", [], [ w ]) ]);
  m

let insert_after_first_guard (f : func) ins =
  List.iter
    (fun blk ->
      let rec go = function
        | (Call { callee; _ } as g) :: rest when callee = guard_sym -> g :: ins :: rest
        | i :: rest -> i :: go rest
        | [] -> []
      in
      blk.body <- go blk.body)
    f.blocks

(* The checker alone refuses each forgery; where the forgery edits the
   body, the digest is re-stamped, so the witnesses are all that stand
   in its way. *)
let test_cert_forgeries () =
  let certified mk =
    let m = mk () in
    (match certify_checked m with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "fixture does not certify: %s" e);
    m
  in
  let edit_body m edit =
    let cert = Option.get (meta_find m Passes.Attest.meta_cert) in
    edit m;
    stamp m cert
  in
  let forgeries =
    [
      ( "a guard set that misses a path",
        fun () ->
          let m = certified two_path_module in
          forge_witnesses m "f" (fun _ -> function
            | CF.W_guard g -> [ CF.W_guard { g with origins = [ List.hd g.origins ] } ]
            | w -> [ w ]);
          m );
      ( "an interval widened by one byte",
        fun () ->
          let m = certified (fun () -> compiled_driver ~optimize:false ()) in
          forge_witnesses m "e1000e_io_write" widen_first;
          m );
      ( "a flags superset",
        fun () ->
          let m = certified (fun () -> compiled_driver ~optimize:false ()) in
          forge_witnesses m "e1000e_io_read" (fun k -> function
            | CF.W_guard g when k = 0 -> [ CF.W_guard { g with flags = 3 } ]
            | w -> [ w ]);
          m );
      ( "a base redefined between guard and access",
        fun () ->
          let m = certified (fun () -> manual_module ~guard_flags:1 ~access:`Load ()) in
          edit_body m (fun m ->
              insert_after_first_guard (List.hd m.funcs)
                (Mov { dst = "%p"; ty = I64; src = Imm 0x1000 }));
          m );
      ( "an impure call between guard and access",
        fun () ->
          let m = certified (fun () -> manual_module ~guard_flags:1 ~access:`Load ()) in
          edit_body m (fun m ->
              m.externs <- m.externs @ [ ("ext", 0) ];
              insert_after_first_guard (List.hd m.funcs)
                (Call { dst = None; callee = "ext"; args = [] }));
          m );
      ( "a loop bound off by one",
        fun () ->
          let m = widened_loop_module () in
          checkb "widened loop validates" true (Analysis.Cert_check.validate m = Ok ());
          edit_body m (fun m ->
              List.iter
                (fun blk ->
                  blk.body <-
                    List.map
                      (function
                        | Icmp ({ b = Imm 8; _ } as c) -> Icmp { c with b = Imm 9 }
                        | i -> i)
                      blk.body)
                (List.hd m.funcs).blocks);
          m );
      ( "an index advanced between the loop test and the access",
        fun () ->
          (* move the access after the increment, into a block of its
             own: the loop shape still checks, but the index it reads
             can be one past the bound *)
          let m = widened_loop_module () in
          edit_body m (fun m ->
              let f = List.hd m.funcs in
              let body = List.find (fun b -> b.b_label = "loop_body1") f.blocks in
              let access, step =
                List.partition (function Gep _ | Store _ -> true | _ -> false) body.body
              in
              body.body <- step;
              body.term <- Br "loop_tail";
              f.blocks <- f.blocks @ [ { b_label = "loop_tail"; body = access; term = Br "loop_head0" } ]);
          m );
      ( "a loop bound whose footprint overflows",
        fun () ->
          (* 2^60 iterations of 8 bytes end at 2^63, which wraps to 0:
             a 64-byte guard would look like it covers them all *)
          let m = widened_loop_module () in
          edit_body m (fun m ->
              List.iter
                (fun blk ->
                  blk.body <-
                    List.map
                      (function
                        | Icmp ({ b = Imm 8; _ } as c) -> Icmp { c with b = Imm (1 lsl 60) }
                        | i -> i)
                      blk.body)
                (List.hd m.funcs).blocks);
          m );
      ( "a parameter read through a definition that has not run",
        fun () ->
          (* %r's one definition is dead: the load goes through the
             caller's pointer, not @g *)
          with_witness
            {|module "fwd"
extern @carat_guard/3
global @g rw 64
func @f(%r: i64) : void {
entry:
  call @carat_guard(@g, 8, 1)
  %x = load i64, %r
  ret
dead:
  %r = mov i64 @g
  ret
}
|} );
      ( "a parameter defined on one arm of a diamond",
        fun () ->
          with_witness
            {|module "arm"
extern @carat_guard/3
global @g rw 64
func @f(%r: i64, %c: i64) : void {
entry:
  brc %c, set, join
set:
  %r = mov i64 @g
  br join
join:
  call @carat_guard(@g, 8, 1)
  %x = load i64, %r
  ret
}
|} );
      ( "a narrowing mov between guard and access",
        fun () ->
          with_witness
            {|module "narrow"
extern @carat_guard/3
global @g rw 64
func @f() : void {
entry:
  call @carat_guard(@g, 8, 1)
  %a = mov i8 @g
  %x = load i64, %a
  ret
}
|} );
      ( "a stale callee guarantee",
        fun () ->
          let m = certified guarantee_module in
          edit_body m (fun m ->
              List.iter
                (fun blk ->
                  blk.body <-
                    List.map
                      (function
                        | Call ({ callee; args = [ a; Imm 16; fl ]; _ } as c)
                          when callee = guard_sym ->
                          Call { c with args = [ a; Imm 8; fl ] }
                        | i -> i)
                      blk.body)
                (List.hd m.funcs).blocks);
          m );
      ( "a dropped witness",
        fun () ->
          let m = certified (fun () -> compiled_driver ~optimize:false ()) in
          forge_witnesses m "e1000e_xmit_frame" (fun k w -> if k = 3 then [] else [ w ]);
          m );
    ]
  in
  List.iter
    (fun (what, forge) ->
      match Analysis.Cert_check.validate (forge ()) with
      | Ok () -> Alcotest.failf "forgery accepted: %s" what
      | Error (Analysis.Certify.Cert_stale _) ->
        Alcotest.failf "digest, not witnesses, refused: %s" what
      | Error _ -> ())
    forgeries;
  (* the fixtures exercise what they claim to *)
  let cert m = Option.get (meta_find m Passes.Attest.meta_cert) in
  checkb "two-path witness names both guards" true
    (contains (cert (certified two_path_module)) "|g0,1/%p/0/8/1");
  checkb "widened witness names its loop header" true
    (contains (cert (widened_loop_module ())) "|g2/%p/0/64/2/1");
  checkb "caller rides on the callee guarantee" true
    (contains (cert (certified guarantee_module)) "g0:0/%p/0/16/2");
  (* a register's one definition still reads through when it runs on
     every path to the access *)
  checkb "dominating definition reads through" true
    (Analysis.Cert_check.validate
       (with_witness
          {|module "dom"
extern @carat_guard/3
global @g rw 64
func @f() : void {
entry:
  %q = mov i64 @g
  br next
next:
  call @carat_guard(@g, 8, 1)
  %x = load i64, %q
  ret
}
|})
    = Ok ())

(* The guard contract is the kernel's. A module cannot name another
   guard symbol or waive an access kind through its signed metadata:
   the certifier refuses to certify such a module, and the kernel's
   checker refuses a certificate that claims either. Both modules are
   signed with the vendor key, so only the certificate stands between
   them and a kernel that denies the memory they touch. *)
let strict_kernel () =
  let k =
    Kernel.create ~require_signature:true ~require_certificate:true Machine.Presets.r350
  in
  ignore (Vm.Interp.install k);
  Policy.Policy_module.set_policy (Policy.Policy_module.install k) Policy.Region.kernel_only;
  k

(* [m] carrying [cert], its digest re-stamped for [m]'s body, signed
   with the vendor key: the checker and insmod must both refuse it *)
let expect_refused what m cert =
  stamp m cert;
  ignore (Passes.Signing.sign ~key:Passes.Pipeline.default_key ~signer:"forger" m);
  (match Analysis.Cert_check.validate m with
  | Ok () -> Alcotest.failf "%s: the checker accepted the forgery" what
  | Error (Analysis.Certify.Cert_stale _) ->
    Alcotest.failf "%s: digest, not the contract, refused" what
  | Error _ -> ());
  match Kernel.insmod (strict_kernel ()) m with
  | Error (Kernel.Certificate_rejected _) -> ()
  | Ok _ -> Alcotest.failf "%s: insmod accepted the forgery" what
  | Error e -> Alcotest.failf "%s: wrong error: %s" what (Kernel.load_error_to_string e)

(* the signed metadata keys through which modules used to choose the
   guard symbol and the guarded access kinds; nothing reads them now *)
let old_contract_key what = "carat.kop.guard_" ^ what

(* [cert] with its header's guard field set to [g] *)
let claiming_guard g cert =
  match String.split_on_char ';' cert with
  | v :: d :: _ :: rest -> String.concat ";" (v :: d :: ("guard=" ^ g) :: rest)
  | _ -> cert

let test_module_chosen_guard_symbol () =
  let b = Kir.Builder.create "poke" in
  ignore (Kir.Builder.start_func b "poke" ~params:[ ("%a", I64) ] ~ret:None);
  Kir.Builder.store b I64 (Imm 0x41414141) (Reg "%a");
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Pipeline.compile m);
  let cert = Option.get (meta_find m Passes.Attest.meta_cert) in
  (* every guard call, the import and the old metadata key now name a
     harmless kernel export *)
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          blk.body <-
            List.map
              (function
                | Call ({ callee; _ } as c) when callee = guard_sym ->
                  Call { c with callee = "get_cycles" }
                | i -> i)
              blk.body)
        f.blocks)
    m.funcs;
  m.externs <-
    List.map (fun (s, n) -> ((if s = guard_sym then "get_cycles" else s), n)) m.externs;
  meta_set m (old_contract_key "symbol") "get_cycles";
  checkb "certify refuses" true (Result.is_error (Analysis.Certify.certify m));
  expect_refused "guard=get_cycles" m (claiming_guard "get_cycles" cert);
  expect_refused "the original certificate" m cert

let test_module_waived_loads () =
  let b = Kir.Builder.create "peek" in
  ignore (Kir.Builder.start_func b "peek" ~params:[ ("%a", I64) ] ~ret:(Some I64));
  let v = Kir.Builder.load b I64 (Reg "%a") in
  Kir.Builder.ret b (Some v);
  let m = Kir.Builder.modul b in
  ignore (Passes.Pipeline.compile m);
  checkb "the load guard is gone" true (delete_nth_guard m 0);
  meta_set m (old_contract_key "reads") "false";
  checkb "certify refuses" true (Result.is_error (Analysis.Certify.certify m));
  expect_refused "an s witness" m "v2;digest=;guard=carat_guard;exempt=false;domain=;peek||s"

(* @f stores 8 bytes at [off] into its 16-byte frame, compiled with
   [exempt_stack] and then stripped of any guard, with a hand-made
   certificate whose one witness exempts the store as frame-local *)
let frame_store_module off =
  let b = Kir.Builder.create "frame" in
  ignore (Kir.Builder.start_func b "f" ~params:[] ~ret:None);
  let a = Kir.Builder.alloca b 16 in
  Kir.Builder.store b I64 (Imm 1) (Kir.Builder.gep b a (Imm off) ~scale:1);
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Pipeline.compile ~exempt_stack:true m);
  checkb "the compiled certificate checks" true (Analysis.Cert_check.validate m = Ok ());
  ignore (delete_nth_guard m 0);
  let body = List.concat_map (fun b -> b.body) (List.hd m.funcs).blocks in
  let rec alloca k = function
    | Alloca { dst; _ } :: _ -> (k, dst)
    | _ :: rest -> alloca (k + 1) rest
    | [] -> Alcotest.fail "no alloca"
  in
  let k, dst = alloca 0 body in
  let cert =
    CF.render ~digest:"" ~guard:guard_sym ~exempt:true ~domain:None
      [ ("f", [], [ CF.W_exempt ([ CF.O_guard k ], CF.V_reg dst) ]) ]
  in
  (m, cert)

let test_exemption_outside_frame () =
  let m, cert = frame_store_module 8 in
  stamp m cert;
  checkb "an in-frame exemption checks" true (Analysis.Cert_check.validate m = Ok ());
  let m, cert = frame_store_module 4096 in
  expect_refused "an exemption 4096 bytes into a 16-byte frame" m cert;
  let m, cert = frame_store_module (-64) in
  expect_refused "an exemption 64 bytes below the frame" m cert

(* a function named like a header field must not shadow the header:
   fields are read by position *)
let test_cert_header_names () =
  let b = Kir.Builder.create "names" in
  ignore (Kir.Builder.declare_global b "g" ~size:64);
  List.iter
    (fun name ->
      ignore (Kir.Builder.start_func b name ~params:[] ~ret:(Some I64));
      let v = Kir.Builder.load b I64 (Sym "g") in
      Kir.Builder.ret b (Some v))
    [ "domain"; "digest"; "verdict"; "guard" ];
  let m = Kir.Builder.modul b in
  List.iter
    (fun opt ->
      let m = Kir.Parser.parse_string (Kir.Printer.to_string m) in
      ignore (Passes.Pipeline.compile ~opt m);
      checkb "validates" true (Analysis.Certify.validate m = Ok ());
      let cert = Option.get (meta_find m Passes.Attest.meta_cert) in
      checkb "no domain" true (Analysis.Certify.stored_domain cert = None);
      checkb "digest read by position" true
        (Analysis.Certify.stored_digest cert = Some (Analysis.Certify.body_digest m)))
    Passes.Pipeline.all_opt_levels

(* The certificate is outside input to the kernel. Truncated, flipped
   or spliced, it must come back as a typed result, never an exception.
   A mutation may still be a valid proof (dropping a redundant origin,
   weakening a guarantee no caller uses), so on the intact body only the
   typing is asserted; with one guard neutered and the digest re-stamped,
   no mutation may get the module accepted. *)
let robust_driver =
  lazy
    (let m = compiled_driver_at ~opt:Passes.Pipeline.O_aggressive () in
     (Kir.Printer.to_string m, Option.get (meta_find m Passes.Attest.meta_cert)))

let prop_cert_robust =
  QCheck.Test.make
    ~name:"truncated, flipped and spliced certificates: typed result, never a forgery"
    ~count:300
    QCheck.(quad (int_bound 2) (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000))
    (fun (kind, a, b, g) ->
      let text, cert = Lazy.force robust_driver in
      let n = String.length cert in
      let mutated =
        match kind with
        | 0 -> String.sub cert 0 (a mod n)
        | 1 ->
          let i = a mod n in
          let flip j c = if j = i then Char.chr (Char.code c lxor (1 + (b mod 255))) else c in
          String.mapi flip cert
        | _ ->
          let i = a mod n and j = b mod n in
          String.sub cert 0 i ^ String.sub cert j (n - j)
      in
      let validate ~neuter =
        let m = Kir.Parser.parse_string text in
        if neuter then
          ignore (neuter_nth_guard m (g mod Passes.Guard_injection.count_guards m));
        stamp m mutated;
        try Some (Analysis.Certify.validate m) with _ -> None
      in
      validate ~neuter:false <> None
      && match validate ~neuter:true with Some (Error _) -> true | _ -> false)

(* ---------- callee-first summaries vs the round-robin reference ---------- *)

module GC = Analysis.Guard_cover

(* The whole-module round-robin fixpoint Summaries used to run, kept as
   a reference: purity as a greatest fixpoint, then every function's
   return facts recomputed each round until no guarantee changes. *)
let reference_summaries (m : modul) =
  let neutral s = s = guard_sym || Analysis.Summaries.default_neutral s in
  let pure = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace pure f.f_name true) m.funcs;
  let is_pure name = Option.value (Hashtbl.find_opt pure name) ~default:false in
  let ok f =
    List.for_all
      (fun b ->
        List.for_all
          (function
            | Callind _ | Inline_asm _ -> false
            | Call { callee; _ } -> neutral callee || is_pure callee
            | _ -> true)
          b.body)
      f.blocks
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        if is_pure f.f_name && not (ok f) then (
          Hashtbl.replace pure f.f_name false;
          changed := true))
      m.funcs
  done;
  let g = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace g f.f_name []) m.funcs;
  let call_effect callee =
    match List.find_opt (fun f -> f.f_name = callee) m.funcs with
    | None -> GC.opaque_effect
    | Some f ->
      {
        GC.ce_kills = not (is_pure callee);
        ce_adds = Hashtbl.find g callee;
        ce_params = List.map fst f.params;
      }
  in
  let neutral = Analysis.Summaries.default_neutral in
  let ctx = { GC.neutral; call_effect } in
  let rounds = ref (List.length m.funcs + 2) in
  changed := true;
  while !changed && !rounds > 0 do
    changed := false;
    decr rounds;
    List.iter
      (fun f ->
        let r = Analysis.Summaries.ret_facts ~ctx f in
        if r <> Hashtbl.find g f.f_name then (Hashtbl.replace g f.f_name r; changed := true))
      m.funcs
  done;
  (is_pure, Hashtbl.find g, not !changed)

(* Equal to the reference whenever the reference reaches its fixpoint.
   A recursive call on a shifted argument makes the guarantee chain
   infinite; both then stop at the round cap with a sound partial
   answer, and callee-first, which starts each cycle from its callees'
   final summaries, must know at least as much. *)
let summaries_match m =
  let s = Analysis.Summaries.compute m in
  let is_pure, guarantees, converged = reference_summaries m in
  let implied (c, lo, hi, fl) l =
    List.exists
      (fun (c', lo', hi', fl') -> c = c' && lo' <= lo && hi <= hi' && fl land fl' = fl)
      l
  in
  List.for_all
    (fun f ->
      let mine = Analysis.Summaries.guarantees s f.f_name and theirs = guarantees f.f_name in
      Analysis.Summaries.is_pure s f.f_name = is_pure f.f_name
      && if converged then mine = theirs else List.for_all (fun g -> implied g mine) theirs)
    m.funcs

let test_summaries_reference_suite () =
  let stages =
    List.concat_map
      (fun scale ->
        let gen () =
          Nic.Driver_gen.generate ~module_scale:scale ~with_rogue:true ~tx_queues:4
            ~rx_queues:2 ()
        in
        inject (gen ())
        :: List.map
             (fun opt ->
               let m = gen () in
               ignore (Passes.Pipeline.compile ~opt m);
               m)
             Passes.Pipeline.all_opt_levels)
      [ 1; 6; 12 ]
  in
  let fixtures =
    [
      two_path_module ();
      guarantee_module ();
      widened_loop_module ();
      inject (loop_module ());
    ]
  in
  List.iteri
    (fun k m ->
      let _, _, converged = reference_summaries m in
      checkb (Printf.sprintf "module %d: the reference converges" k) true converged;
      checkb (Printf.sprintf "module %d matches the reference" k) true (summaries_match m))
    (stages @ fixtures)

(* ---------- kept solves ---------- *)

(* [Certify.analyze] reads each function's proofs from the solve
   [Summaries.compute] kept for it. Solving every function afresh under
   the same summaries, the path with no kept solve, must give the same
   analysis field for field. Per function: its name, whether the two
   agree, and whether a solve was kept. *)
let kept_vs_fresh m =
  let s = Analysis.Summaries.compute m in
  let exempt_stack =
    meta_find m Passes.Guard_injection.meta_exempt_stack = Some "true"
  in
  let kept = Analysis.Certify.analyze m in
  List.map2
    (fun (f : func) (k : Analysis.Certify.func_summary) ->
      let fresh =
        Analysis.Certify.analyze_func ~call_effect:(Analysis.Summaries.effect_of s)
          ~exempt_stack f
      in
      let strip fs = { fs with Analysis.Certify.fs_rets = [] } in
      ( f.f_name,
        strip k = strip fresh
        && List.equal GC.equal k.Analysis.Certify.fs_rets fresh.Analysis.Certify.fs_rets,
        Analysis.Summaries.solved s f <> None ))
    m.funcs kept.Analysis.Certify.s_funcs

(* asserts agreement; returns which functions had a kept solve *)
let kept_solves_agree m =
  List.map
    (fun (name, same, kept) ->
      checkb (Printf.sprintf "@%s: same analysis" name) true same;
      kept)
    (kept_vs_fresh m)

(* @f guards 8 bytes of its argument and, through @g, [p + 8]: the
   guarantee chain of the cycle grows by 8 bytes a round, so the cycle
   stops at the round cap *)
let capped_cycle_module () =
  let b = Kir.Builder.create "capped" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call { dst = None; callee = guard_sym; args = [ Reg "%p"; Imm 8; Imm 1 ] });
  ignore (Kir.Builder.load b I64 (Reg "%p"));
  Kir.Builder.call_unit b "g" [ Kir.Builder.gep b (Reg "%p") (Imm 8) ~scale:1 ];
  Kir.Builder.ret b None;
  ignore (Kir.Builder.start_func b "g" ~params:[ ("%q", I64) ] ~ret:None);
  Kir.Builder.call_unit b "f" [ Reg "%q" ];
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  meta_set m Passes.Guard_injection.meta_opt_level "aggressive";
  m

(* @f and @g call each other on the same argument; the cycle's
   guarantees settle in two rounds *)
let converging_cycle_module () =
  let b = Kir.Builder.create "converging" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64); ("%c", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call { dst = None; callee = guard_sym; args = [ Reg "%p"; Imm 8; Imm 1 ] });
  Kir.Builder.if_then b (Reg "%c") ~then_:(fun () ->
      Kir.Builder.call_unit b "g" [ Reg "%p"; Reg "%c" ]);
  ignore (Kir.Builder.load b I64 (Reg "%p"));
  Kir.Builder.ret b None;
  ignore (Kir.Builder.start_func b "g" ~params:[ ("%p", I64); ("%c", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call { dst = None; callee = guard_sym; args = [ Reg "%p"; Imm 16; Imm 3 ] });
  Kir.Builder.call_unit b "f" [ Reg "%p"; Reg "%c" ];
  Kir.Builder.store b I64 (Imm 0) (Reg "%p");
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  meta_set m Passes.Guard_injection.meta_opt_level "aggressive";
  m

let test_kept_solves_agree () =
  List.iter
    (fun (scale, tx_queues, with_rogue) ->
      let m = Nic.Driver_gen.generate ~module_scale:scale ~tx_queues ~with_rogue () in
      ignore (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive m);
      checkb
        (Printf.sprintf "scale %d, %d TX queues, rogue %b: every solve kept" scale tx_queues
           with_rogue)
        true
        (List.for_all Fun.id (kept_solves_agree m)))
    (List.concat_map
       (fun scale ->
         List.concat_map
           (fun q -> [ (scale, q, false); (scale, q, true) ])
           [ 1; 8 ])
       [ 4; 12; 48 ]);
  let converging = converging_cycle_module () in
  let _, _, converged = reference_summaries converging in
  checkb "the converging cycle converges" true converged;
  Alcotest.(check (list bool)) "a converged cycle keeps its solves" [ true; true ]
    (kept_solves_agree converging);
  let capped = capped_cycle_module () in
  let _, _, converged = reference_summaries capped in
  checkb "the capped cycle hits the round cap" false converged;
  Alcotest.(check (list bool)) "a capped cycle keeps none" [ false; false ]
    (kept_solves_agree capped)

(* ---------- reused derivations ---------- *)

(* the driver guarded as an aggressive build is before its optimizer
   runs, stamped so the analysis is interprocedural *)
let aggressive_front ?(exempt_stack = false) m =
  ignore
    (Passes.Pass.run_pipeline_checked
       (Passes.Pipeline.front_passes ~exempt_stack ~opt:Passes.Pipeline.O_aggressive ())
       m);
  meta_set m Passes.Guard_injection.meta_opt_level "aggressive";
  m

let render m s =
  match Analysis.Certify.render m s with
  | cert -> Ok cert
  | exception Analysis.Certify.Unwitnessed why -> Error why

(* [kept] (an analysis handed a previous one) says what a fresh analysis
   of [m] says: every function summary, every callee summary, and the
   certificate written from it *)
let same_as_fresh m (kept : Analysis.Certify.summary) =
  let fresh = Analysis.Certify.analyze m in
  let strip fs = { fs with Analysis.Certify.fs_rets = [] } in
  let sums (s : Analysis.Certify.summary) f =
    Option.map
      (fun t -> (Analysis.Summaries.is_pure t f.f_name, Analysis.Summaries.guarantees t f.f_name))
      s.Analysis.Certify.s_summaries
  in
  List.for_all2
    (fun (k : Analysis.Certify.func_summary) (x : Analysis.Certify.func_summary) ->
      strip k = strip x
      && List.equal GC.equal k.Analysis.Certify.fs_rets x.Analysis.Certify.fs_rets)
    kept.Analysis.Certify.s_funcs fresh.Analysis.Certify.s_funcs
  && List.for_all (fun f -> sums kept f = sums fresh f) m.funcs
  && render m kept = render m fresh

let nth_guard m k =
  let sites =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun b ->
            List.filter_map
              (fun i -> if Passes.Guard_injection.parse_guard i <> None then Some (b, i) else None)
              b.body)
          f.blocks)
      m.funcs
  in
  match sites with [] -> None | _ -> Some (List.nth sites (k mod List.length sites))

(* a write guard on a function's first formal (or the adapter), first in
   its entry block: a fact that usually reaches every return, so the
   function's guarantees and its callers' solves move *)
let guard_entry (f : func) =
  let addr = match f.params with (p, _) :: _ -> Reg p | [] -> Sym "adapter" in
  let entry = List.hd f.blocks in
  entry.body <-
    Passes.Guard_injection.guard ~addr ~size:8 ~flags:Passes.Guard_injection.flag_write
      ~site:9999
    :: entry.body

let module_callees m =
  List.filter
    (fun f ->
      List.exists
        (fun g ->
          List.exists
            (fun b ->
              List.exists
                (function Call { callee; _ } -> callee = f.f_name | _ -> false)
                b.body)
            g.blocks)
        m.funcs)
    m.funcs

(* the optimizer's kinds of edit: delete a guard, coalesce, widen, and a
   callee whose guarantees change *)
let apply_edit m (kind, k) =
  match kind with
  | 0 ->
    Option.iter
      (fun (b, g) -> b.body <- List.filter (fun i -> i != g) b.body)
      (nth_guard m k)
  | 1 -> ignore (Passes.Guard_coalesce.run m)
  | 2 -> ignore (Analysis.Optimize.widen m)
  | _ -> (
    match module_callees m with
    | [] -> ()
    | cs -> guard_entry (List.nth cs (k mod List.length cs)))

let gen_reuse_case =
  QCheck.Gen.(
    let* scale = int_range 1 12 in
    let* rogue = bool in
    let* multiqueue = bool in
    let* exempt_stack = bool in
    let* edits = list_size (int_range 1 5) (pair (int_bound 3) (int_bound 1000)) in
    return (scale, rogue, multiqueue, exempt_stack, edits))

let print_reuse_case (scale, rogue, multiqueue, exempt_stack, edits) =
  Printf.sprintf "scale %d, rogue %b, 4 TX + 4 RX %b, exempt_stack %b, edits [%s]" scale rogue
    multiqueue exempt_stack
    (String.concat "; " (List.map (fun (kind, k) -> Printf.sprintf "%d/%d" kind k) edits))

let prop_reuse_exact =
  QCheck.Test.make ~name:"an analysis handed the previous one equals a fresh analysis"
    ~count:25 (QCheck.make ~print:print_reuse_case gen_reuse_case)
    (fun (scale, with_rogue, multiqueue, exempt_stack, edits) ->
      let tx_queues, rx_queues = if multiqueue then (4, 4) else (1, 0) in
      let m =
        aggressive_front ~exempt_stack
          (Nic.Driver_gen.generate ~module_scale:scale ~with_rogue ~tx_queues ~rx_queues ())
      in
      let prev = ref (Analysis.Certify.analyze m) in
      List.for_all
        (fun edit ->
          apply_edit m edit;
          let kept = Analysis.Certify.analyze ~prev:!prev m in
          prev := kept;
          same_as_fresh m kept)
        edits)

(* The callee rule alone: an edit to e1000e_tx_avail that changes its
   guarantees re-solves it and its one caller, e1000e_xmit_frame, and
   every other function keeps its solve. *)
let test_reuse_callee_rule () =
  let m = aggressive_front (Nic.Driver_gen.generate ~module_scale:4 ()) in
  let guarantees (s : Analysis.Certify.summary) =
    Analysis.Summaries.guarantees (Option.get s.Analysis.Certify.s_summaries) "e1000e_tx_avail"
  in
  let a0 = Analysis.Certify.analyze m in
  guard_entry (Option.get (find_func m "e1000e_tx_avail"));
  let a1 = Analysis.Certify.analyze ~prev:a0 m in
  checkb "e1000e_tx_avail's guarantees changed" true (guarantees a0 <> guarantees a1);
  List.iter2
    (fun f (s0, s1) ->
      match f.f_name with
      | "e1000e_tx_avail" | "e1000e_xmit_frame" ->
        checkb (f.f_name ^ " solved again") true (s0 != s1)
      | name -> checkb (name ^ " keeps its solve") true (s0 == s1))
    m.funcs
    (List.combine a0.Analysis.Certify.s_solves a1.Analysis.Certify.s_solves);
  checkb "the same analysis as a fresh one" true (same_as_fresh m a1)

(* random call graphs with self- and mutual recursion: each function
   guards, loads through and calls others on its parameter or a shifted
   copy, or calls an impure extern *)
let gen_call_graph =
  QCheck.Gen.(
    let* n = int_range 1 5 in
    list_repeat n (list_size (int_range 0 5) (pair (int_bound 5) (int_bound 7))))

let build_call_graph bodies =
  let n = List.length bodies in
  let b = Kir.Builder.create "calls" in
  ignore (Kir.Builder.declare_global b "g" ~size:128);
  List.iteri
    (fun k ops ->
      let params = [ ("%p", I64); ("%c", I64) ] in
      ignore (Kir.Builder.start_func b (Printf.sprintf "f%d" k) ~params ~ret:None);
      let guard a size fl =
        Kir.Builder.emit b
          (Call { dst = None; callee = guard_sym; args = [ a; Imm size; Imm fl ] })
      in
      List.iter
        (fun (kind, x) ->
          let callee = Printf.sprintf "f%d" (x mod n) in
          match kind with
          | 0 ->
            guard (Kir.Builder.gep b (Reg "%p") (Imm (8 * (x mod 3))) ~scale:1) 8 (1 + (x mod 3))
          | 1 -> Kir.Builder.call_unit b callee [ Reg "%p"; Reg "%c" ]
          | 2 ->
            let shifted = Kir.Builder.gep b (Reg "%p") (Imm 8) ~scale:1 in
            Kir.Builder.call_unit b callee [ shifted; Reg "%c" ]
          | 3 -> Kir.Builder.if_then b (Reg "%c") ~then_:(fun () -> guard (Sym "g") 16 3)
          | 4 -> Kir.Builder.call_unit b "ext" []
          | _ -> guard (Sym "g") (8 * (1 + (x mod 4))) 1)
        ops;
      Kir.Builder.ret b None)
    bodies;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3); ("ext", 0) ];
  m

let prop_summaries_reference =
  QCheck.Test.make
    ~name:"callee-first summaries equal the round-robin reference on recursive call graphs"
    ~count:200 (QCheck.make gen_call_graph)
    (fun bodies -> summaries_match (build_call_graph bodies))

let prop_kept_solves =
  QCheck.Test.make
    ~name:"kept solves give the proofs a fresh solve gives on recursive call graphs"
    ~count:100 (QCheck.make gen_call_graph)
    (fun bodies ->
      let m = build_call_graph bodies in
      meta_set m Passes.Guard_injection.meta_opt_level "aggressive";
      List.for_all (fun (_, same, _) -> same) (kept_vs_fresh m))

(* ---------- per-domain certificates ---------- *)

(* A certificate can be bound to the policy domain the module will run
   under. Undomained certificates keep the old wire format and still
   validate; a verifier that pins --domain rejects both undomained and
   wrong-domain certificates. *)
let test_certify_domain_binding () =
  (* undomained: backward compatible, but fails a pinned verifier *)
  let m = compiled_driver ~optimize:false () in
  checkb "undomained still validates" true
    (Analysis.Certify.validate m = Ok ());
  (match Analysis.Certify.validate ~expect_domain:"e1000e" m with
  | Error (Analysis.Certify.Cert_wrong_domain { expected; found }) ->
    Alcotest.(check string) "expected" "e1000e" expected;
    checkb "found none" true (found = None)
  | _ -> Alcotest.fail "undomained cert passed a pinned verifier");
  (* domain-bound: stamp the module, re-issue, validate both ways *)
  let m2 = compiled_driver ~optimize:false () in
  Analysis.Certify.set_domain m2 "e1000e";
  (match Analysis.Certify.certificate m2 with
  | Error e -> Alcotest.failf "re-certify: %s" e
  | Ok cert ->
    meta_set m2 Passes.Attest.meta_cert cert;
    checkb "cert names the domain" true
      (Analysis.Certify.stored_domain cert = Some "e1000e"));
  checkb "domained validates" true (Analysis.Certify.validate m2 = Ok ());
  checkb "pinned verifier accepts the right domain" true
    (Analysis.Certify.validate ~expect_domain:"e1000e" m2 = Ok ());
  (match Analysis.Certify.validate ~expect_domain:"ixgbe" m2 with
  | Error (Analysis.Certify.Cert_wrong_domain { expected; found }) ->
    Alcotest.(check string) "expected" "ixgbe" expected;
    checkb "found the bound domain" true (found = Some "e1000e")
  | _ -> Alcotest.fail "wrong-domain cert accepted");
  ()

let test_certify_domain_forgery () =
  let m = compiled_driver ~optimize:false () in
  Analysis.Certify.set_domain m "e1000e";
  (match Analysis.Certify.certificate m with
  | Error e -> Alcotest.failf "certify: %s" e
  | Ok cert ->
    meta_set m Passes.Attest.meta_cert cert;
    (* splice the domain token by hand: domain=e1000e -> domain=ixgbe *)
    let buf = Buffer.create (String.length cert) in
    let src = "domain=e1000e" and dst = "domain=ixgbe" in
    let n = String.length cert and sn = String.length src in
    let i = ref 0 in
    while !i < n do
      if !i + sn <= n && String.sub cert !i sn = src then begin
        Buffer.add_string buf dst;
        i := !i + sn
      end
      else begin
        Buffer.add_char buf cert.[!i];
        incr i
      end
    done;
    meta_set m Passes.Attest.meta_cert (Buffer.contents buf));
  match Analysis.Certify.validate ~expect_domain:"e1000e" m with
  | Error (Analysis.Certify.Cert_wrong_domain { found; _ }) ->
    checkb "forged token surfaced" true (found = Some "ixgbe")
  | Error _ -> () (* any rejection is acceptable *)
  | Ok () -> Alcotest.fail "forged domain token accepted by pinned verifier"

(* ---------- kir lints ---------- *)

let codes fs = List.map (fun f -> f.Analysis.Kir_lint.code) fs

let test_lint_unguarded_and_unreachable () =
  let m = straightline_module () in
  let f = List.hd m.funcs in
  f.blocks <-
    f.blocks @ [ { b_label = "island"; body = []; term = Ret None } ];
  let fs = Analysis.Kir_lint.lint m in
  checkb "unguarded errors" true
    (List.mem "L-unguarded" (codes (Analysis.Kir_lint.errors fs)));
  checkb "unreachable warned" true
    (List.mem "L-unreachable" (codes (Analysis.Kir_lint.warnings fs)))

let test_lint_clean_module () =
  let m = inject (straightline_module ()) in
  checki "no errors on injected module" 0
    (List.length (Analysis.Kir_lint.errors (Analysis.Kir_lint.lint m)))

let test_lint_duplicate_guard () =
  (* duplicate back-to-back guard on the same address: second one is
     shadowed and unused *)
  let m = manual_module ~guard_flags:3 ~access:`Load () in
  let f = List.hd m.funcs in
  (match f.blocks with
  | blk :: _ ->
    blk.body <-
      (match blk.body with
      | (Call _ as g) :: rest -> g :: g :: rest
      | _ -> assert false)
  | [] -> assert false);
  let fs = Analysis.Kir_lint.lint m in
  checkb "shadowed guard flagged" true (List.mem "L-shadowed-guard" (codes fs))

let test_lint_unused_guard () =
  let b = Kir.Builder.create "unused" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call
       { dst = None; callee = guard_sym;
         args = [ Reg "%p"; Imm 8; Imm 3 ] });
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  let fs = Analysis.Kir_lint.lint m in
  checkb "unused guard flagged" true (List.mem "L-unused-guard" (codes fs))

(* two guards over adjacent byte ranges of the same base, each backing
   a real access; [offset] controls adjacency *)
let adjacent_guard_module ~offset () =
  let b = Kir.Builder.create "co" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call
       { dst = None; callee = guard_sym; args = [ Reg "%p"; Imm 8; Imm 3 ] });
  let q = Kir.Builder.gep b (Reg "%p") (Imm offset) ~scale:1 in
  Kir.Builder.emit b
    (Call { dst = None; callee = guard_sym; args = [ q; Imm 8; Imm 3 ] });
  ignore (Kir.Builder.load b I64 (Reg "%p"));
  ignore (Kir.Builder.load b I64 q);
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  m

let test_lint_coalescable_guard () =
  let m = adjacent_guard_module ~offset:8 () in
  let fs = Analysis.Kir_lint.lint m in
  checkb "adjacent guards flagged" true
    (List.mem "W-coalescable-guard" (codes fs));
  (* warning, not error: the module is still certifiable as-is *)
  checki "no errors" 0 (List.length (Analysis.Kir_lint.errors fs));
  (* running the coalescer discharges the warning without losing
     coverage *)
  let r = Passes.Guard_coalesce.run m in
  checkb "coalesce fired" true r.Passes.Pass.changed;
  let fs' = Analysis.Kir_lint.lint m in
  checkb "warning discharged" false
    (List.mem "W-coalescable-guard" (codes fs'));
  checkb "still certifies" true (Result.is_ok (certify_checked m))

let test_lint_coalescable_needs_adjacency () =
  (* a gap between the guarded ranges: merging would license bytes no
     guard ever checked, so the lint must stay quiet *)
  let m = adjacent_guard_module ~offset:32 () in
  checkb "gapped guards not flagged" false
    (List.mem "W-coalescable-guard" (codes (Analysis.Kir_lint.lint m)))

let test_lint_callind_nocfi () =
  let b = Kir.Builder.create "ind" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%fp", I64) ] ~ret:None);
  Kir.Builder.emit b (Callind { dst = None; fn = Reg "%fp"; args = [] });
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  let fs = Analysis.Kir_lint.lint m in
  checkb "nocfi flagged" true (List.mem "L-callind-nocfi" (codes fs))

(* ---------- suite ---------- *)

let () =
  Alcotest.run "analysis"
    [
      ( "dataflow",
        [
          Alcotest.test_case "loop converges" `Quick test_dataflow_block_counting;
          Alcotest.test_case "unreachable bottom" `Quick
            test_dataflow_unreachable_stays_bottom;
        ] );
      ( "domain-certs",
        [
          Alcotest.test_case "domain binding" `Quick
            test_certify_domain_binding;
          Alcotest.test_case "domain forgery rejected" `Quick
            test_certify_domain_forgery;
        ] );
      ( "certify",
        [
          Alcotest.test_case "rejects raw" `Quick test_certify_rejects_raw;
          Alcotest.test_case "accepts injected" `Quick
            test_certify_after_injection;
          Alcotest.test_case "accepts optimized" `Quick
            test_certify_after_optimization;
          Alcotest.test_case "hoisted loop" `Quick test_certify_hoisted_loop;
          Alcotest.test_case "coverage subsumption" `Quick
            test_certify_coverage_subsumption;
          Alcotest.test_case "opaque call kills" `Quick
            test_certify_kill_at_opaque_call;
          QCheck_alcotest.to_alcotest prop_certify_differential;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "aggressive certifies" `Quick
            test_driver_aggressive_certifies;
          Alcotest.test_case "aggressive multi-queue keeps its transforms" `Quick
            test_driver_multiqueue_aggressive;
          QCheck_alcotest.to_alcotest prop_optimizer_differential;
        ] );
      ( "driver",
        [
          Alcotest.test_case "e1000e certifies" `Quick test_driver_certifies;
          Alcotest.test_case "mutation sweep" `Slow test_driver_mutation_sweep;
          Alcotest.test_case "mutation sweep (aggressive)" `Slow
            test_driver_mutation_sweep_aggressive;
          Alcotest.test_case "validate errors" `Quick test_validate_errors;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "matches the reference on suite modules" `Quick
            test_summaries_reference_suite;
          QCheck_alcotest.to_alcotest prop_summaries_reference;
          Alcotest.test_case "kept solves give the proofs a fresh solve gives" `Quick
            test_kept_solves_agree;
          QCheck_alcotest.to_alcotest prop_kept_solves;
          Alcotest.test_case "a changed callee re-solves its callers only" `Quick
            test_reuse_callee_rule;
          QCheck_alcotest.to_alcotest prop_reuse_exact;
        ] );
      ( "cert-check",
        [
          Alcotest.test_case "forgeries rejected" `Quick test_cert_forgeries;
          Alcotest.test_case "module-chosen guard symbol refused" `Quick
            test_module_chosen_guard_symbol;
          Alcotest.test_case "module-waived loads refused" `Quick
            test_module_waived_loads;
          Alcotest.test_case "exemption outside the frame refused" `Quick
            test_exemption_outside_frame;
          Alcotest.test_case "header fields read by position" `Quick
            test_cert_header_names;
          QCheck_alcotest.to_alcotest prop_cert_robust;
        ] );
      ( "lint",
        [
          Alcotest.test_case "unguarded+unreachable" `Quick
            test_lint_unguarded_and_unreachable;
          Alcotest.test_case "clean after injection" `Quick
            test_lint_clean_module;
          Alcotest.test_case "duplicate guard" `Quick test_lint_duplicate_guard;
          Alcotest.test_case "unused guard" `Quick test_lint_unused_guard;
          Alcotest.test_case "coalescable guard" `Quick
            test_lint_coalescable_guard;
          Alcotest.test_case "coalescable needs adjacency" `Quick
            test_lint_coalescable_needs_adjacency;
          Alcotest.test_case "callind nocfi" `Quick test_lint_callind_nocfi;
        ] );
    ]
