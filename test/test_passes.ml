(* Passes: dominators, loops, guard injection, attestation, signing,
   guard optimizations, DCE, pipelines. *)

open Carat_kop
open Kir.Types

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- fixtures ---------- *)

(* entry -> head -> (body -> head | exit): a single natural loop *)
let loop_func () =
  let b = Kir.Builder.create "loopy" in
  ignore (Kir.Builder.declare_global b "table" ~size:64);
  ignore
    (Kir.Builder.start_func b "walk" ~params:[ ("%n", I64) ] ~ret:(Some I64));
  Kir.Builder.mov_to b "%acc" I64 (Imm 0);
  Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%n") ~step:(Imm 1)
    (fun _i ->
      (* loop-invariant address: the global's first word *)
      let v = Kir.Builder.load b I64 (Sym "table") in
      let s = Kir.Builder.add b I64 (Reg "%acc") v in
      Kir.Builder.mov_to b "%acc" I64 s);
  Kir.Builder.ret b (Some (Reg "%acc"));
  Kir.Builder.modul b

let straightline_module () =
  let b = Kir.Builder.create "straight" in
  ignore (Kir.Builder.declare_global b "g" ~size:32);
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  let v1 = Kir.Builder.load b I64 (Reg "%p") in
  let v2 = Kir.Builder.load b I64 (Reg "%p") in
  (* same address again *)
  let s = Kir.Builder.add b I64 v1 v2 in
  Kir.Builder.store b I64 s (Sym "g");
  Kir.Builder.store b I64 s (Sym "g");
  (* duplicate store *)
  Kir.Builder.ret b (Some s);
  Kir.Builder.modul b

let count_loads_stores m = module_memory_op_count m

(* ---------- dominators & loops ---------- *)

let test_dominators_diamond () =
  let b = Kir.Builder.create "d" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%c", I64) ] ~ret:None);
  Kir.Builder.if_then_else b (Reg "%c") ~then_:(fun () -> ())
    ~else_:(fun () -> ());
  Kir.Builder.ret b None;
  let f = Option.get (find_func (Kir.Builder.modul b) "f") in
  let g = Kir.Cfg.of_func f in
  let dom = Passes.Dominators.compute g in
  (* entry dominates everything *)
  for i = 0 to Kir.Cfg.n_blocks g - 1 do
    checkb "entry dominates" true (Passes.Dominators.dominates dom 0 i)
  done;
  (* then-branch does not dominate join *)
  let join = Kir.Cfg.n_blocks g - 1 in
  checkb "branch !dom join" false (Passes.Dominators.dominates dom 1 join);
  (* idom of join is entry *)
  Alcotest.(check (option int)) "idom(join)=entry" (Some 0)
    (Passes.Dominators.idom dom join)

let test_dominators_self () =
  let m = straightline_module () in
  let f = Option.get (find_func m "f") in
  let dom = Passes.Dominators.compute (Kir.Cfg.of_func f) in
  checkb "self-domination" true (Passes.Dominators.dominates dom 0 0);
  Alcotest.(check (option int)) "entry idom" None (Passes.Dominators.idom dom 0)

let test_dom_tree () =
  let m = loop_func () in
  let f = Option.get (find_func m "walk") in
  let g = Kir.Cfg.of_func f in
  let dom = Passes.Dominators.compute g in
  let tree = Passes.Dominators.dom_tree dom in
  (* every non-entry reachable block appears exactly once as a child *)
  let count = Array.fold_left (fun acc l -> acc + List.length l) 0 tree in
  checki "tree covers blocks" (Kir.Cfg.n_blocks g - 1) count

let test_loop_detection () =
  let m = loop_func () in
  let f = Option.get (find_func m "walk") in
  let g = Kir.Cfg.of_func f in
  let li = Passes.Loops.compute g in
  checki "one loop" 1 (List.length li.Passes.Loops.loops);
  let l = List.hd li.Passes.Loops.loops in
  checkb "header in body" true (Passes.Loops.in_loop l l.Passes.Loops.header);
  checki "one back edge" 1 (List.length l.Passes.Loops.back_edges);
  checkb "body has 2 blocks" true (List.length l.Passes.Loops.body >= 2);
  (* entry is outside *)
  checkb "entry outside" false (Passes.Loops.in_loop l 0);
  checki "loop depth of header" 1
    (Passes.Loops.loop_depth li l.Passes.Loops.header)

let test_no_loops_straightline () =
  let m = straightline_module () in
  let f = Option.get (find_func m "f") in
  let li = Passes.Loops.compute (Kir.Cfg.of_func f) in
  checki "no loops" 0 (List.length li.Passes.Loops.loops)

(* ---------- guard injection ---------- *)

let test_injection_counts () =
  let m = straightline_module () in
  let before = count_loads_stores m in
  let r = Passes.Guard_injection.run m in
  checkb "changed" true r.Passes.Pass.changed;
  checki "one guard per memory op" before
    (Passes.Guard_injection.count_guards m);
  Alcotest.(check (option string))
    "meta count" (Some (string_of_int before))
    (meta_find m Passes.Guard_injection.meta_guard_count)

let test_injection_full_coverage () =
  let m = loop_func () in
  ignore (Passes.Guard_injection.run m);
  checkb "fully guarded" true (Passes.Guard_injection.fully_guarded m)

let test_injection_declares_extern () =
  let m = straightline_module () in
  ignore (Passes.Guard_injection.run m);
  checkb "extern declared" true
    (List.mem_assoc "carat_guard" m.externs);
  checkb "still valid" true (Kir.Verify.is_valid m)

let test_injection_flags_and_sizes () =
  let b = Kir.Builder.create "fs" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  ignore (Kir.Builder.load b I16 (Reg "%p"));
  Kir.Builder.store b I32 (Imm 7) (Reg "%p");
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Guard_injection.run m);
  let f = Option.get (find_func m "f") in
  let guards =
    List.filter_map
      (function
        | Call
            { callee = "carat_guard"; args = [ _; Imm s; Imm fl; Imm site ]; _ }
          ->
          Some (s, fl, site)
        | _ -> None)
      (entry_block f).body
  in
  Alcotest.(check (list (triple int int int)))
    "size/flags/site"
    [ (2, Passes.Guard_injection.flag_read, 0);
      (4, Passes.Guard_injection.flag_write, 1) ]
    guards

let test_injection_idempotence_guard () =
  let m = straightline_module () in
  ignore (Passes.Guard_injection.run m);
  (match Passes.Guard_injection.run m with
  | exception Passes.Pass.Pass_failed _ -> ()
  | _ -> Alcotest.fail "double transform accepted")

let test_stack_exemption () =
  let b = Kir.Builder.create "stack" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  let local = Kir.Builder.alloca b 32 in
  Kir.Builder.store b I64 (Imm 1) local;
  (* derived from alloca through gep: also exempt *)
  let slot = Kir.Builder.gep b local (Imm 8) ~scale:1 in
  Kir.Builder.store b I64 (Imm 2) slot;
  (* external pointer: must stay guarded *)
  let v = Kir.Builder.load b I64 (Reg "%p") in
  Kir.Builder.ret b (Some v);
  let m = Kir.Builder.modul b in
  ignore (Passes.Guard_injection.run ~exempt_stack:true m);
  checki "only the external load guarded" 1
    (Passes.Guard_injection.count_guards m)

let test_stack_exemption_taint () =
  (* a register that mixes alloca and parameter definitions is not
     exempt *)
  let b = Kir.Builder.create "taint" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  let local = Kir.Builder.alloca b 16 in
  Kir.Builder.mov_to b "%q" I64 local;
  Kir.Builder.mov_to b "%q" I64 (Reg "%p");
  Kir.Builder.store b I64 (Imm 3) (Reg "%q");
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Guard_injection.run ~exempt_stack:true m);
  checki "tainted register stays guarded" 1
    (Passes.Guard_injection.count_guards m)

let test_stack_exemption_bounds () =
  (* only a constant offset inside the alloca's declared bytes is the
     frame: past its end, before its start, or at a variable index the
     store stays guarded *)
  let b = Kir.Builder.create "frame" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%i", I64) ] ~ret:None);
  let local = Kir.Builder.alloca b 16 in
  let at off = Kir.Builder.gep b local (Imm off) ~scale:1 in
  Kir.Builder.store b I64 (Imm 1) (at 8);
  Kir.Builder.store b I64 (Imm 2) (at 4096);
  Kir.Builder.store b I64 (Imm 3) (at (-64));
  Kir.Builder.store b I64 (Imm 4) (at 12);
  Kir.Builder.store b I64 (Imm 5) (Kir.Builder.gep b local (Reg "%i") ~scale:8);
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Guard_injection.run ~exempt_stack:true m);
  checki "all but the in-frame store guarded" 4 (Passes.Guard_injection.count_guards m);
  checkb "the +8 store is the unguarded one" true
    (match (List.hd (List.hd m.funcs).blocks).body with
    | Alloca _ :: Gep _ :: Store _ :: _ -> true
    | _ -> false)

(* qcheck: after injection, every load/store in any generated module is
   immediately preceded by a guard on the same address *)
let gen_wellformed_module =
  QCheck.Gen.(
    let gen_ty = oneofl [ I8; I16; I32; I64 ] in
    let* n = int_range 1 12 in
    let* ops = list_repeat n (tup2 gen_ty (int_bound 2)) in
    let b = Kir.Builder.create "gen" in
    ignore (Kir.Builder.declare_global b "g" ~size:256);
    ignore
      (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
    List.iter
      (fun (ty, kind) ->
        match kind with
        | 0 -> ignore (Kir.Builder.load b ty (Reg "%p"))
        | 1 -> Kir.Builder.store b ty (Imm 5) (Sym "g")
        | _ ->
          let a = Kir.Builder.gep b (Reg "%p") (Imm 4) ~scale:1 in
          ignore (Kir.Builder.load b ty a))
      ops;
    Kir.Builder.ret b (Some (Imm 0));
    return (Kir.Builder.modul b))

let prop_injection_covers =
  QCheck.Test.make ~name:"injection guards every access" ~count:100
    (QCheck.make gen_wellformed_module) (fun m ->
      let n = module_memory_op_count m in
      ignore (Passes.Guard_injection.run m);
      Passes.Guard_injection.count_guards m = n
      && Passes.Guard_injection.fully_guarded m
      && Kir.Verify.is_valid m)

(* ---------- attestation ---------- *)

let asm_module () =
  let b = Kir.Builder.create "asm" in
  ignore (Kir.Builder.start_func b "f" ~params:[] ~ret:None);
  Kir.Builder.inline_asm b "cli; hlt";
  Kir.Builder.ret b None;
  Kir.Builder.modul b

let indirect_module () =
  let b = Kir.Builder.create "ind" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%fp", I64) ] ~ret:None);
  Kir.Builder.emit b (Callind { dst = None; fn = Reg "%fp"; args = [] });
  Kir.Builder.ret b None;
  Kir.Builder.modul b

let test_attest_rejects_asm () =
  match Passes.Attest.run ~strict:false (asm_module ()) with
  | exception Passes.Pass.Pass_failed ("attest", _) -> ()
  | _ -> Alcotest.fail "inline asm accepted"

let test_attest_clean_marks_meta () =
  let m = straightline_module () in
  ignore (Passes.Attest.run ~strict:false m);
  Alcotest.(check (option string)) "noasm" (Some "true")
    (meta_find m Passes.Attest.meta_noasm)

let test_attest_indirect_modes () =
  let m = indirect_module () in
  ignore (Passes.Attest.run ~strict:false m);
  Alcotest.(check (option string)) "count recorded" (Some "1")
    (meta_find m Passes.Attest.meta_indirect);
  (match Passes.Attest.run ~strict:true (indirect_module ()) with
  | exception Passes.Pass.Pass_failed ("attest", _) -> ()
  | _ -> Alcotest.fail "strict mode accepted indirect call")

let test_attest_strict_accepts_cfi_covered () =
  (* satellite: strict attestation accepts an indirect call exactly when a
     cfi_guard covers it — run the cfi pass first, then re-attest strict *)
  let m = indirect_module () in
  ignore (Passes.Cfi_guard.run m);
  ignore (Passes.Attest.run ~strict:true m);
  Alcotest.(check (option string)) "none uncovered" (Some "0")
    (meta_find m Passes.Attest.meta_indirect_uncovered);
  (* ...and the full strict pipeline agrees, both ways *)
  (match
     Passes.Pipeline.compile ~guard_cfi:true ~strict:true (indirect_module ())
   with
  | _ -> ());
  match Passes.Pipeline.compile ~strict:true (indirect_module ()) with
  | exception Passes.Pass.Pass_failed ("attest", _) -> ()
  | _ -> Alcotest.fail "strict pipeline accepted uncovered indirect call"

let test_attest_strict_mismatched_cfi_target () =
  (* a cfi_guard on the wrong operand does not count as coverage *)
  let b = Kir.Builder.create "ind2" in
  ignore
    (Kir.Builder.start_func b "f" ~params:[ ("%fp", I64); ("%q", I64) ]
       ~ret:None);
  Kir.Builder.emit b
    (Call
       { dst = None; callee = Passes.Cfi_guard.guard_symbol;
         args = [ Reg "%q" ] });
  Kir.Builder.emit b (Callind { dst = None; fn = Reg "%fp"; args = [] });
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (Passes.Cfi_guard.guard_symbol, 1) ];
  let r = Passes.Attest.scan m in
  checki "still uncovered" 1 (List.length r.Passes.Attest.uncovered_indirect)

let test_attest_scan_report () =
  let r = Passes.Attest.scan (asm_module ()) in
  checki "asm found" 1 (List.length r.Passes.Attest.inline_asm);
  Alcotest.(check string) "location" "f"
    (List.hd r.Passes.Attest.inline_asm).Passes.Attest.in_func

(* ---------- signing ---------- *)

let signed_module () =
  let m = straightline_module () in
  ignore (Passes.Pipeline.compile m);
  m

let test_sign_verify_ok () =
  let m = signed_module () in
  checkb "verifies" true
    (Passes.Signing.verify ~key:Passes.Pipeline.default_key m = Ok ())

let test_sign_wrong_key () =
  let m = signed_module () in
  match Passes.Signing.verify ~key:"evil" m with
  | Error (Passes.Signing.Bad_signature _) -> ()
  | _ -> Alcotest.fail "wrong key accepted"

let test_sign_unsigned () =
  let m = straightline_module () in
  checkb "unsigned rejected" true
    (Passes.Signing.verify ~key:Passes.Pipeline.default_key m
    = Error Passes.Signing.Unsigned)

let test_sign_not_guarded () =
  let m = straightline_module () in
  ignore (Passes.Attest.run ~strict:false m);
  ignore (Passes.Signing.sign ~key:Passes.Pipeline.default_key ~signer:"t" m);
  checkb "unguarded rejected" true
    (Passes.Signing.verify ~key:Passes.Pipeline.default_key m
    = Error Passes.Signing.Not_guarded)

let test_sign_detects_code_tamper () =
  let m = signed_module () in
  let f = Option.get (find_func m "f") in
  (entry_block f).body <-
    List.filter
      (function Call { callee = "carat_guard"; _ } -> false | _ -> true)
      (entry_block f).body;
  (match Passes.Signing.verify ~key:Passes.Pipeline.default_key m with
  | Error (Passes.Signing.Bad_signature _) -> ()
  | _ -> Alcotest.fail "tamper not detected")

let test_sign_detects_meta_tamper () =
  let m = signed_module () in
  meta_set m Passes.Guard_injection.meta_guard_count "9999";
  match Passes.Signing.verify ~key:Passes.Pipeline.default_key m with
  | Error (Passes.Signing.Bad_signature _) -> ()
  | _ -> Alcotest.fail "meta tamper not detected"

let prop_sign_tamper =
  QCheck.Test.make ~name:"any instruction edit breaks the signature"
    ~count:60
    QCheck.(make Gen.(int_bound 1000))
    (fun salt ->
      let m = signed_module () in
      let f = Option.get (find_func m "f") in
      let blk = entry_block f in
      blk.body <-
        blk.body
        @ [ Binop { dst = "%evil"; op = Add; ty = I64; a = Imm salt; b = Imm 1 } ];
      match Passes.Signing.verify ~key:Passes.Pipeline.default_key m with
      | Error (Passes.Signing.Bad_signature _) -> true
      | _ -> false)

let test_keyed_tag_properties () =
  let t1 = Passes.Signing.keyed_tag_parts ~key:"k" [ "msg" ] in
  let t2 = Passes.Signing.keyed_tag_parts ~key:"k" [ "msg" ] in
  let t3 = Passes.Signing.keyed_tag_parts ~key:"k2" [ "msg" ] in
  let t4 = Passes.Signing.keyed_tag_parts ~key:"k" [ "msg2" ] in
  Alcotest.(check string) "deterministic" t1 t2;
  checkb "key sensitive" false (t1 = t3);
  checkb "msg sensitive" false (t1 = t4);
  checki "tag length" 32 (String.length t1)

(* ---------- guard optimizations ---------- *)

let test_guard_elim_dedups () =
  let m = straightline_module () in
  ignore (Passes.Guard_injection.run m);
  let before = Passes.Guard_injection.count_guards m in
  let r = Passes.Guard_elim.run m in
  let after = Passes.Guard_injection.count_guards m in
  checkb "removed some" true r.Passes.Pass.changed;
  (* two loads at %p -> 1 guard; two stores at g -> 1 guard *)
  checki "before" 4 before;
  checki "after" 2 after;
  checkb "still valid" true (Kir.Verify.is_valid m)

let test_guard_elim_respects_redefinition () =
  let b = Kir.Builder.create "redef" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.mov_to b "%q" I64 (Reg "%p");
  ignore (Kir.Builder.load b I64 (Reg "%q"));
  Kir.Builder.mov_to b "%q" I64 (Imm 0x2000) (* %q now points elsewhere *);
  ignore (Kir.Builder.load b I64 (Reg "%q"));
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Guard_injection.run m);
  ignore (Passes.Guard_elim.run m);
  checki "both guards survive" 2 (Passes.Guard_injection.count_guards m)

let test_guard_elim_flag_widening () =
  (* read guard then write guard on the same address: the write guard
     must survive (write not covered by read) *)
  let b = Kir.Builder.create "widen" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  ignore (Kir.Builder.load b I64 (Reg "%p"));
  Kir.Builder.store b I64 (Imm 1) (Reg "%p");
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Guard_injection.run m);
  ignore (Passes.Guard_elim.run m);
  checki "read+write both guarded" 2 (Passes.Guard_injection.count_guards m)

let test_guard_hoist_invariant () =
  let m = loop_func () in
  ignore (Passes.Guard_injection.run m);
  let before = Passes.Guard_injection.count_guards m in
  let r = Passes.Guard_hoist.run m in
  checkb "hoisted" true r.Passes.Pass.changed;
  let after = Passes.Guard_injection.count_guards m in
  checkb "fewer guard sites" true (after <= before);
  checkb "still valid" true (Kir.Verify.is_valid m)

let test_guard_hoist_run_twice () =
  (* regression: re-running elim+hoist over an already-hoisted module
     (as the loader's --opt re-optimization does) must not stack a
     duplicate copy of each hoisted guard into the pre-header *)
  let m = loop_func () in
  ignore (Passes.Guard_injection.run m);
  ignore (Passes.Guard_elim.run m);
  ignore (Passes.Guard_hoist.run m);
  let printed = Kir.Printer.to_string m in
  ignore (Passes.Guard_elim.run m);
  let r = Passes.Guard_hoist.run m in
  checkb "second hoist is a no-op" false r.Passes.Pass.changed;
  Alcotest.(check string)
    "module byte-identical after the second run" printed
    (Kir.Printer.to_string m)

let test_guard_hoist_not_variant () =
  (* address depends on the induction variable: must not hoist *)
  let b = Kir.Builder.create "variant" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Imm 4) ~step:(Imm 1) (fun i ->
      let a = Kir.Builder.gep b (Reg "%p") i ~scale:8 in
      ignore (Kir.Builder.load b I64 a));
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  ignore (Passes.Guard_injection.run m);
  let before = Passes.Guard_injection.count_guards m in
  ignore (Passes.Guard_hoist.run m);
  checki "nothing hoisted" before (Passes.Guard_injection.count_guards m)

let test_dce_removes_islands () =
  let m = straightline_module () in
  let f = Option.get (find_func m "f") in
  f.blocks <- f.blocks @ [ { b_label = "dead"; body = []; term = Ret None } ];
  let r = Passes.Dce.run m in
  checkb "changed" true r.Passes.Pass.changed;
  checki "one block left" 1 (List.length f.blocks)

(* ---------- pipelines ---------- *)

let test_pipeline_default () =
  let m = straightline_module () in
  let remarks = Passes.Pipeline.compile m in
  (* dce, attest, guard-injection, certify, signing — this binary links
     the analysis layer, so the registered certify pass runs too *)
  checki "five passes" 5 (List.length remarks);
  checkb "signed+verifies" true
    (Passes.Signing.verify ~key:Passes.Pipeline.default_key m = Ok ());
  checkb "guards present" true (Passes.Guard_injection.count_guards m > 0);
  checkb "certificate validates" true (Analysis.Certify.validate m = Ok ())

let test_pipeline_optimized_fewer_guards () =
  let m1 = straightline_module () in
  let m2 = straightline_module () in
  ignore (Passes.Pipeline.compile m1);
  ignore (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_basic m2);
  checkb "optimization reduces static guards" true
    (Passes.Guard_injection.count_guards m2
    < Passes.Guard_injection.count_guards m1);
  checkb "optimized still verifies" true
    (Passes.Signing.verify ~key:Passes.Pipeline.default_key m2 = Ok ())

let test_pipeline_checked_catches_breakage () =
  let breaker =
    Passes.Pass.make "breaker" (fun m ->
        (match m.funcs with
        | f :: _ -> f.blocks <- []
        | [] -> ());
        { Passes.Pass.changed = true; remarks = [] })
  in
  let m = straightline_module () in
  match Passes.Pass.run_pipeline_checked [ breaker ] m with
  | exception Kir.Verify.Invalid _ -> ()
  | _ -> Alcotest.fail "verifier did not catch pass breakage"

(* Compiled output, pinned: the FNV-1a digest of the meta-free body, of
   the certificate and of the signature for the e1000e driver at scale
   12, in the classic shape and with 8 TX + 4 RX queues, at every
   optimization level. A change that moves compiled output must update
   these and say why. *)
let digest s = Printf.sprintf "%016x" (Passes.Signing.fnv1a64 s)

let compiled_digests m =
  let meta k = Option.value ~default:"" (meta_find m k) in
  ( digest (Kir.Printer.to_string ~with_meta:false m),
    digest (meta Passes.Attest.meta_cert),
    digest (meta Passes.Signing.meta_sig) )

let test_pipeline_golden_output () =
  List.iter
    (fun (tx_queues, rx_queues, opt, body, cert, signature) ->
      let m = Nic.Driver_gen.generate ~module_scale:12 ~tx_queues ~rx_queues () in
      ignore (Passes.Pipeline.compile ~opt m);
      let what part =
        Printf.sprintf "%d TX + %d RX, %s: %s" tx_queues rx_queues
          (Passes.Pipeline.opt_level_to_string opt) part
      in
      let b, c, s = compiled_digests m in
      Alcotest.(check string) (what "body") body b;
      Alcotest.(check string) (what "certificate") cert c;
      Alcotest.(check string) (what "signature") signature s)
    Passes.Pipeline.
      [
        (1, 0, O_none, "27b4e3152f78cbaf", "35409908079e3513", "3b1a0db3dfc7b3b6");
        (1, 0, O_basic, "20815745b50c84c1", "0856c4746d4cde92", "056f4c0bbc711bc2");
        (1, 0, O_aggressive, "3ce2da023375a017", "30d42f5c50821bf2", "111e5a48bd3d810d");
        (8, 4, O_none, "27dac2bec87efe02", "312ce299e6644bd5", "05b8f22d12f2edd4");
        (8, 4, O_basic, "003d45152ac90e10", "0cc6ce19a0387807", "391191269a0adf90");
        (8, 4, O_aggressive, "32cc20105a3fde6b", "3ed19d2c2e59d298", "25d08e5a3f8c4e62");
      ]

(* The whole build grid, pinned by one digest: FNV-1a over the body,
   certificate and signature digests of 144 driver builds (scale 1, 4, 8
   and 12; rogue backdoor off and on; 1 TX, 4 TX and 4 TX + 4 RX queues;
   every optimization level; stack exemption off and on), in that nesting
   order. A printer, hash or optimizer change that moves any one output
   fails here. *)
let test_build_grid_digest () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun module_scale ->
      List.iter
        (fun with_rogue ->
          List.iter
            (fun (tx_queues, rx_queues) ->
              List.iter
                (fun opt ->
                  List.iter
                    (fun exempt_stack ->
                      let m =
                        Nic.Driver_gen.generate ~module_scale ~with_rogue ~tx_queues
                          ~rx_queues ()
                      in
                      ignore (Passes.Pipeline.compile ~opt ~exempt_stack m);
                      let b, c, s = compiled_digests m in
                      List.iter (Buffer.add_string buf) [ b; c; s ])
                    [ false; true ])
                Passes.Pipeline.all_opt_levels)
            [ (1, 0); (4, 0); (4, 4) ])
        [ false; true ])
    [ 1; 4; 8; 12 ];
  Alcotest.(check string) "144 builds" "2b10979335fd548c" (digest (Buffer.contents buf))

(* What a certified build allocates: compiling the scale-12 driver and
   inserting it into a kernel that requires a signature and a
   certificate. The count is deterministic, so the budget catches a
   change that brings back a copy per instruction or a derivation the
   optimizer can keep. *)
let test_certified_build_allocation () =
  let words opt =
    let k =
      Kernel.create ~require_signature:true ~require_certificate:true
        Machine.Presets.r415
    in
    ignore (Vm.Engine.install ~kind:Vm.Engine.Compiled k);
    ignore (Policy.Policy_module.install k);
    let m = Nic.Driver_gen.generate ~module_scale:12 () in
    let w0 = Gc.minor_words () in
    ignore (Passes.Pipeline.compile ~opt m);
    let loaded = Kernel.insmod k m in
    let w = Gc.minor_words () -. w0 in
    checkb "insmod accepts the build" true (Result.is_ok loaded);
    w
  in
  List.iter
    (fun (opt, budget) ->
      let w = words opt in
      if w > budget then
        Alcotest.failf "--opt %s: compile + insmod allocated %.0f minor words, budget %.0f"
          (Passes.Pipeline.opt_level_to_string opt) w budget)
    Passes.Pipeline.[ (O_aggressive, 1_100_000.); (O_none, 550_000.) ]

let () =
  Alcotest.run "passes"
    [
      ( "analysis",
        [
          Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "self domination" `Quick test_dominators_self;
          Alcotest.test_case "dominator tree" `Quick test_dom_tree;
          Alcotest.test_case "loop detection" `Quick test_loop_detection;
          Alcotest.test_case "no loops straightline" `Quick test_no_loops_straightline;
        ] );
      ( "guard-injection",
        [
          Alcotest.test_case "counts" `Quick test_injection_counts;
          Alcotest.test_case "full coverage" `Quick test_injection_full_coverage;
          Alcotest.test_case "declares extern" `Quick test_injection_declares_extern;
          Alcotest.test_case "flags and sizes" `Quick test_injection_flags_and_sizes;
          Alcotest.test_case "double transform rejected" `Quick test_injection_idempotence_guard;
          Alcotest.test_case "stack exemption" `Quick test_stack_exemption;
          Alcotest.test_case "stack taint" `Quick test_stack_exemption_taint;
          Alcotest.test_case "stack exemption keeps to the frame" `Quick
            test_stack_exemption_bounds;
          QCheck_alcotest.to_alcotest prop_injection_covers;
        ] );
      ( "attest",
        [
          Alcotest.test_case "rejects asm" `Quick test_attest_rejects_asm;
          Alcotest.test_case "marks clean" `Quick test_attest_clean_marks_meta;
          Alcotest.test_case "indirect modes" `Quick test_attest_indirect_modes;
          Alcotest.test_case "strict accepts cfi-covered" `Quick
            test_attest_strict_accepts_cfi_covered;
          Alcotest.test_case "strict needs matching target" `Quick
            test_attest_strict_mismatched_cfi_target;
          Alcotest.test_case "scan report" `Quick test_attest_scan_report;
        ] );
      ( "signing",
        [
          Alcotest.test_case "verify ok" `Quick test_sign_verify_ok;
          Alcotest.test_case "wrong key" `Quick test_sign_wrong_key;
          Alcotest.test_case "unsigned" `Quick test_sign_unsigned;
          Alcotest.test_case "not guarded" `Quick test_sign_not_guarded;
          Alcotest.test_case "code tamper" `Quick test_sign_detects_code_tamper;
          Alcotest.test_case "meta tamper" `Quick test_sign_detects_meta_tamper;
          Alcotest.test_case "keyed tag" `Quick test_keyed_tag_properties;
          QCheck_alcotest.to_alcotest prop_sign_tamper;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "elim dedups" `Quick test_guard_elim_dedups;
          Alcotest.test_case "elim respects redefinition" `Quick test_guard_elim_respects_redefinition;
          Alcotest.test_case "elim flag widening" `Quick test_guard_elim_flag_widening;
          Alcotest.test_case "hoist invariant" `Quick test_guard_hoist_invariant;
          Alcotest.test_case "hoist run twice" `Quick test_guard_hoist_run_twice;
          Alcotest.test_case "hoist leaves variant" `Quick test_guard_hoist_not_variant;
          Alcotest.test_case "dce" `Quick test_dce_removes_islands;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "default" `Quick test_pipeline_default;
          Alcotest.test_case "optimized fewer guards" `Quick test_pipeline_optimized_fewer_guards;
          Alcotest.test_case "checked catches breakage" `Quick test_pipeline_checked_catches_breakage;
          Alcotest.test_case "golden compiled output" `Quick test_pipeline_golden_output;
          Alcotest.test_case "build grid digest" `Quick test_build_grid_digest;
          Alcotest.test_case "certified build allocation" `Quick
            test_certified_build_allocation;
        ] );
    ]
