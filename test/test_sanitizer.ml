(* The memory sanitizer: shadow-state unit tests (redzone OOB,
   use-after-free through the quarantine, typed kfree errors with
   attribution), the pay-for-what-you-use cycle contract, the QCheck
   heap-consistency property over random kmalloc/kfree sequences, the
   retire-vs-rebuild race regression, and the Alloc_lint dataflow
   findings (seeded bugs caught, must-join uncertainty never reported). *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let mk_kernel ?(sanitize = true) () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  if sanitize then Kernel.enable_sanitizer k;
  k

let last_kind k =
  match List.rev (Kernel.san_reports k) with
  | r :: _ -> r.Kernel.sr_kind
  | [] -> "none"

(* ---------- shadow checks at the faulting access ---------- *)

let test_oob_redzones () =
  let k = mk_kernel () in
  let base = Kernel.kmalloc ~tag:"buf" k ~size:37 in
  ignore (Kernel.read k ~addr:base ~size:8);
  checki "in-bounds access is clean" 0 (Kernel.san_report_count k);
  (* partial-granule tail: byte 37 is inside the last 8-byte granule but
     past the object *)
  ignore (Kernel.read k ~addr:(base + 37) ~size:1);
  checki "tail OOB reported" 1 (Kernel.san_report_count k);
  checkb "kind oob" true (last_kind k = "oob");
  ignore (Kernel.write k ~addr:(base - 1) ~size:1 0xff);
  checki "left redzone reported" 2 (Kernel.san_report_count k);
  ignore (Kernel.read k ~addr:(base + 64) ~size:8);
  checki "right redzone reported" 3 (Kernel.san_report_count k);
  (* attribution names the allocation *)
  (match List.rev (Kernel.san_reports k) with
  | r :: _ ->
    checkb "attributed" true (r.Kernel.sr_attribution <> None);
    (match r.Kernel.sr_attribution with
    | Some a -> checkb "names the tag" true (contains a "buf")
    | None -> ())
  | [] -> Alcotest.fail "no report")

let test_use_after_free () =
  let k = mk_kernel () in
  let base = Kernel.kmalloc ~tag:"victim" k ~size:64 in
  (match Kernel.kfree k ~addr:base with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first free refused");
  ignore (Kernel.read k ~addr:base ~size:8);
  checki "UAF reported at the access" 1 (Kernel.san_report_count k);
  checkb "kind uaf" true (last_kind k = "uaf")

let test_quarantine_delays_reuse () =
  let k = mk_kernel () in
  let a = Kernel.kmalloc k ~size:128 in
  (match Kernel.kfree k ~addr:a with Ok () -> () | Error _ -> assert false);
  let b = Kernel.kmalloc k ~size:128 in
  checkb "freed block not immediately reused" true (a <> b)

(* ---------- satellite: typed kfree errors ---------- *)

let test_kfree_typed_errors () =
  let k = mk_kernel () in
  let base = Kernel.kmalloc ~tag:"once" k ~size:48 in
  checkb "first free ok" true (Kernel.kfree k ~addr:base = Ok ());
  (match Kernel.kfree k ~addr:base with
  | Error (Kernel.Free_double d) ->
    checkb "double free describes the block" true (contains d "once")
  | _ -> Alcotest.fail "double free not typed");
  checkb "double free reported" true (last_kind k = "double-free");
  (match Kernel.kfree k ~addr:(base + 8) with
  | Error Kernel.Free_invalid -> ()
  | _ -> Alcotest.fail "interior free not typed");
  (match Kernel.kfree k ~addr:0xdead0000 with
  | Error Kernel.Free_invalid -> ()
  | _ -> Alcotest.fail "wild free not typed");
  (* heap state is untouched by the failed frees: a fresh alloc works *)
  let b2 = Kernel.kmalloc k ~size:48 in
  checkb "heap survives bad frees" true (b2 <> 0)

let test_kfree_typed_without_sanitizer () =
  (* tracking (and the typed errors) are always on; only marking,
     quarantine and per-access checks are gated *)
  let k = mk_kernel ~sanitize:false () in
  let base = Kernel.kmalloc k ~size:32 in
  checkb "free ok" true (Kernel.kfree k ~addr:base = Ok ());
  checkb "double free still typed" true
    (match Kernel.kfree k ~addr:base with
    | Error (Kernel.Free_double _) -> true
    | _ -> false);
  checki "but no sanitizer reports" 0 (Kernel.san_report_count k)

(* ---------- pay-for-what-you-use ---------- *)

let test_access_cost_gated () =
  let measure sanitize =
    let k = mk_kernel ~sanitize () in
    let base = Kernel.kmalloc k ~size:64 in
    let m = Kernel.machine k in
    let c0 = Machine.Model.cycles m in
    ignore (Kernel.read k ~addr:base ~size:8);
    Machine.Model.cycles m - c0
  in
  let off = measure false and on = measure true in
  checki "shadow check costs exactly san_check_cycles"
    Kernel.san_check_cycles (on - off)

let test_alloc_sequence_identical_when_off () =
  let seq sanitize =
    let k = mk_kernel ~sanitize:false () in
    ignore sanitize;
    List.map (fun s -> Kernel.kmalloc k ~size:s) [ 8; 24; 100; 64 ]
  in
  checkb "two sanitizer-off kernels allocate identically" true
    (seq false = seq false)

(* ---------- QCheck: heap consistency under random sequences ---------- *)

let prop_no_live_overlap =
  QCheck.Test.make ~count:40
    ~name:"random kmalloc/kfree: live allocations never overlap"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let k = mk_kernel () in
      let rng = Machine.Rng.create seed in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 120 do
        let roll = Machine.Rng.int rng 10 in
        if roll < 6 || !live = [] then begin
          let size = 1 + Machine.Rng.int rng 200 in
          let b = Kernel.kmalloc k ~size in
          live := (b, size) :: !live
        end
        else if roll < 9 then begin
          let i = Machine.Rng.int rng (List.length !live) in
          let b, _ = List.nth !live i in
          live := List.filteri (fun j _ -> j <> i) !live;
          if Kernel.kfree k ~addr:b <> Ok () then ok := false
        end
        else begin
          (* a bogus free must be a typed error, never corruption *)
          match Kernel.kfree k ~addr:(0x1234 + Machine.Rng.int rng 4096) with
          | Error _ -> ()
          | Ok () -> ok := false
        end;
        if not (Sanitizer.Shadow.no_live_overlap (Kernel.shadow k)) then
          ok := false
      done;
      (* drain: every live pointer frees exactly once, and the shadow
         agrees with the allocator that nothing is left live *)
      List.iter
        (fun (b, _) -> if Kernel.kfree k ~addr:b <> Ok () then ok := false)
        !live;
      !ok
      && Sanitizer.Shadow.live_bytes (Kernel.shadow k) = 0
      && Sanitizer.Shadow.no_live_overlap (Kernel.shadow k))

(* ---------- satellite: retire vs watchdog rebuild, same quantum ---------- *)

let test_retire_vs_rebuild_no_race () =
  let v = Race_suites.retire_vs_rebuild () in
  checkb ("retire-vs-rebuild: " ^ v.Race_suites.v_detail) true
    v.Race_suites.v_pass;
  checki "zero reports" 0 v.Race_suites.v_reports

let test_seeded_race_flagged () =
  let v = Race_suites.seeded_stale_window () in
  checkb ("seeded race: " ^ v.Race_suites.v_detail) true v.Race_suites.v_pass

(* FastTrack's last-write rule: an ordered interval write covering a
   detached corruption supersedes it, so a later read from another CPU
   races nothing; a read between the two writes still races the
   corruption. *)
let test_last_write_wins () =
  let reports ~read_between =
    let det = Sanitizer.Race.create ~cpus:2 in
    let scan () =
      Sanitizer.Race.switch_to det 1;
      Sanitizer.Race.range_read det ~lo:0x1000 ~hi:0x1600 ~site:"scan";
      Sanitizer.Race.switch_to det 0
    in
    Sanitizer.Race.async_write det ~lo:0x1000 ~hi:0x1600 ~site:"corruption";
    if read_between then scan ();
    Sanitizer.Race.sync_write det ~lo:0x1000 ~hi:0x1600 ~site:"rewrite";
    scan ();
    Sanitizer.Race.report_count det
  in
  checki "rewrite supersedes the corruption" 0 (reports ~read_between:false);
  checki "a read between the writes still races" 1
    (reports ~read_between:true)

(* ---------- Alloc_lint: the forward dataflow lints ---------- *)

let codes m =
  List.map (fun f -> f.Analysis.Kir_lint.code) (Analysis.Alloc_lint.lint m)

let test_lint_double_free () =
  let b = Kir.Builder.create "m" in
  let open Kir.Types in
  ignore (Kir.Builder.start_func b "df" ~params:[] ~ret:None);
  (match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
  | Some p ->
    Kir.Builder.call_unit b "kfree" [ p ];
    Kir.Builder.call_unit b "kfree" [ p ]
  | None -> ());
  Kir.Builder.ret b None;
  checkb "double free caught" true
    (List.mem "L-double-free" (codes (Kir.Builder.modul b)))

let test_lint_use_after_free () =
  let b = Kir.Builder.create "m" in
  let open Kir.Types in
  ignore (Kir.Builder.start_func b "uaf" ~params:[] ~ret:(Some I64));
  (match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
  | Some p ->
    ignore (Kir.Builder.icmp b Eq I64 p (Imm 0));
    Kir.Builder.call_unit b "kfree" [ p ];
    let v = Kir.Builder.load b I64 p in
    Kir.Builder.ret b (Some v)
  | None -> Kir.Builder.ret b None);
  checkb "UAF caught" true
    (List.mem "L-use-after-free" (codes (Kir.Builder.modul b)))

let test_lint_leak_and_unchecked () =
  let b = Kir.Builder.create "m" in
  let open Kir.Types in
  ignore (Kir.Builder.start_func b "leak" ~params:[] ~ret:None);
  (match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
  | Some p -> ignore (Kir.Builder.icmp b Eq I64 p (Imm 0))
  | None -> ());
  Kir.Builder.ret b None;
  ignore (Kir.Builder.start_func b "unchecked" ~params:[] ~ret:(Some I64));
  (match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
  | Some p ->
    let v = Kir.Builder.load b I64 p in
    Kir.Builder.call_unit b "kfree" [ p ];
    Kir.Builder.ret b (Some v)
  | None -> Kir.Builder.ret b None);
  let cs = codes (Kir.Builder.modul b) in
  checkb "leak-on-exit warned" true (List.mem "L-leak-on-exit" cs);
  checkb "unchecked deref warned" true (List.mem "W-unchecked-alloc" cs)

(* must-info join: a pointer freed on only one path is Top at the merge,
   so neither the kfree nor the load after it may be reported *)
let test_lint_maybe_freed_not_reported () =
  let b = Kir.Builder.create "m" in
  let open Kir.Types in
  ignore (Kir.Builder.start_func b "maybe" ~params:[] ~ret:None);
  (match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
  | Some p ->
    let c = Kir.Builder.icmp b Eq I64 p (Imm 0) in
    let bb_f = Kir.Builder.new_block b () in
    let bb_s = Kir.Builder.new_block b () in
    let bb_j = Kir.Builder.new_block b () in
    Kir.Builder.cond_br b c ~if_true:bb_f ~if_false:bb_s;
    Kir.Builder.position_at b bb_f;
    Kir.Builder.call_unit b "kfree" [ p ];
    Kir.Builder.br b bb_j;
    Kir.Builder.position_at b bb_s;
    Kir.Builder.br b bb_j;
    Kir.Builder.position_at b bb_j;
    ignore (Kir.Builder.load b I64 p);
    Kir.Builder.call_unit b "kfree" [ p ];
    Kir.Builder.ret b None
  | None -> Kir.Builder.ret b None);
  let cs = codes (Kir.Builder.modul b) in
  checkb "no false double-free" true (not (List.mem "L-double-free" cs));
  checkb "no false UAF" true (not (List.mem "L-use-after-free" cs))

let test_lint_driver_clean () =
  let driver =
    Nic.Driver_gen.generate ~module_scale:12 ~rx_queues:2
      ~tx_queues:Nic.Regs.max_tx_queues ()
  in
  checki "zero errors on the driver-scale KIR" 0
    (List.length (Analysis.Kir_lint.errors (Analysis.Alloc_lint.lint driver)))

(* ---------- /proc/carat/san ---------- *)

let test_procfs_san () =
  let k = mk_kernel () in
  let fs = Kernsvc.Kernfs.create k in
  let pm = Policy.Policy_module.install k in
  let proc = Kernsvc.Procfs.install fs pm in
  let base = Kernel.kmalloc ~tag:"proc-buf" k ~size:16 in
  ignore (Kernel.read k ~addr:(base + 17) ~size:1);
  let body = Kernsvc.Procfs.read_san proc in
  checkb "reports sanitizer on" true (contains body "sanitizer: on");
  checkb "shows the report" true (contains body "proc-buf")

let () =
  Alcotest.run "sanitizer"
    [
      ( "shadow",
        [
          Alcotest.test_case "redzone OOB at access" `Quick test_oob_redzones;
          Alcotest.test_case "use after free" `Quick test_use_after_free;
          Alcotest.test_case "quarantine delays reuse" `Quick
            test_quarantine_delays_reuse;
        ] );
      ( "kfree",
        [
          Alcotest.test_case "typed errors" `Quick test_kfree_typed_errors;
          Alcotest.test_case "typed with sanitizer off" `Quick
            test_kfree_typed_without_sanitizer;
        ] );
      ( "cost",
        [
          Alcotest.test_case "per-access cost gated" `Quick
            test_access_cost_gated;
          Alcotest.test_case "off allocator deterministic" `Quick
            test_alloc_sequence_identical_when_off;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_no_live_overlap ] );
      ( "race",
        [
          Alcotest.test_case "retire vs rebuild, same quantum" `Quick
            test_retire_vs_rebuild_no_race;
          Alcotest.test_case "seeded stale window flagged" `Quick
            test_seeded_race_flagged;
          Alcotest.test_case "last write wins" `Quick test_last_write_wins;
        ] );
      ( "alloc-lint",
        [
          Alcotest.test_case "double free" `Quick test_lint_double_free;
          Alcotest.test_case "use after free" `Quick test_lint_use_after_free;
          Alcotest.test_case "leak + unchecked" `Quick
            test_lint_leak_and_unchecked;
          Alcotest.test_case "maybe-freed stays quiet" `Quick
            test_lint_maybe_freed_not_reported;
          Alcotest.test_case "driver-scale clean" `Quick
            test_lint_driver_clean;
        ] );
      ( "procfs",
        [ Alcotest.test_case "/proc/carat/san" `Quick test_procfs_san ] );
    ]
