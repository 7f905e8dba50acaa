(* Core facade: testbed assembly and the experiment runners (small
   parameterizations for speed). *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let small_cfg technique =
  { Testbed.default_config with technique; module_scale = 2 }

(* ---------- testbed ---------- *)

let test_carat_testbed () =
  let tb = Testbed.create ~config:(small_cfg Testbed.Carat) () in
  let m = tb.Testbed.driver_kir in
  checkb "driver transformed" true
    (Kir.Types.meta_find m Passes.Guard_injection.meta_guarded = Some "true");
  checkb "signed" true
    (Kir.Types.meta_find m Passes.Signing.meta_sig <> None);
  let r = Testbed.run_pktgen tb { Net.Pktgen.default_config with count = 50 } in
  checki "packets" 50 r.Net.Pktgen.sent;
  let st = Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module) in
  checkb "guards executed" true (st.Policy.Engine.checks > 0);
  checki "no denials" 0 st.Policy.Engine.denied

let test_baseline_testbed () =
  let tb = Testbed.create ~config:(small_cfg Testbed.Baseline) () in
  checkb "no guards in driver" true
    (Passes.Guard_injection.count_guards tb.Testbed.driver_kir = 0);
  let r = Testbed.run_pktgen tb { Net.Pktgen.default_config with count = 50 } in
  checki "packets" 50 r.Net.Pktgen.sent;
  let st = Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module) in
  checki "no guard calls" 0 st.Policy.Engine.checks

let test_ab_same_traffic () =
  let run technique =
    let tb = Testbed.create ~config:(small_cfg technique) () in
    ignore (Testbed.run_pktgen tb { Net.Pktgen.default_config with count = 30 });
    Machine.Model.add_cycles (Testbed.machine tb) 50_000_000;
    Nic.Device.sync (Testbed.device tb);
    ( Nic.Device.tx_frames (Testbed.device tb),
      List.map (fun f -> f.Nic.Device.data) (Nic.Device.recent_frames (Testbed.device tb)) )
  in
  let nb, fb = run Testbed.Baseline in
  let nc, fc = run Testbed.Carat in
  checki "same frame count" nb nc;
  checkb "identical bytes" true (fb = fc)

let test_carat_slower_but_close () =
  let run technique =
    let tb = Testbed.create ~config:(small_cfg technique) () in
    ignore (Testbed.run_pktgen tb { Net.Pktgen.default_config with count = 100; seed = 3 });
    let r = Testbed.run_pktgen tb { Net.Pktgen.default_config with count = 400; seed = 3 } in
    r.Net.Pktgen.pps
  in
  let base = run Testbed.Baseline in
  let carat = run Testbed.Carat in
  checkb "carat not faster" true (carat <= base);
  let slowdown = base /. carat in
  checkb "overhead under 3%" true (slowdown < 1.03)

let test_region_count_config () =
  let config =
    { (small_cfg Testbed.Carat) with policy = Policy.Region.kernel_only_padded 64 }
  in
  let tb = Testbed.create ~config () in
  checki "64 regions installed" 64
    (Policy.Engine.count (Policy.Policy_module.engine tb.Testbed.policy_module));
  let r = Testbed.run_pktgen tb { Net.Pktgen.default_config with count = 30 } in
  checki "still works" 30 r.Net.Pktgen.sent

let test_machine_selection () =
  let config = { (small_cfg Testbed.Carat) with machine = Machine.Presets.r415 } in
  let tb = Testbed.create ~config () in
  Alcotest.(check string) "r415 used" "r415"
    (Testbed.machine tb).Machine.Model.p.Machine.Model.name

(* ---------- experiments (smoke-scale) ---------- *)

let test_fig_throughput_small () =
  let r = Experiments.fig4 ~trials:4 ~packets:80 () in
  Alcotest.(check string) "machine" "r350" r.Experiments.machine_name;
  checki "two series" 2 (List.length r.Experiments.series);
  List.iter
    (fun s ->
      checki "trials" 4 (Array.length s.Experiments.pps);
      Array.iter (fun p -> checkb "pps sane" true (p > 10_000.0)) s.Experiments.pps)
    r.Experiments.series

let test_fig5_series_labels () =
  let r = Experiments.fig5 ~trials:2 ~packets:60 () in
  Alcotest.(check (list string)) "labels"
    [ "carat"; "carat16"; "carat64"; "baseline" ]
    (List.map (fun s -> s.Experiments.label) r.Experiments.series)

let test_fig6_shape () =
  let pts = Experiments.fig6 ~trials:2 ~packets:60 ~sizes:[ 64; 512 ] () in
  checki "two sizes" 2 (List.length pts);
  List.iter
    (fun p ->
      checkb "slowdown sane" true
        (p.Experiments.slowdown > 0.9 && p.Experiments.slowdown < 1.2))
    pts

let test_fig7_medians () =
  let r = Experiments.fig7 ~packets:250 () in
  checkb "medians in band" true
    (r.Experiments.base_median > 300.0 && r.Experiments.base_median < 2000.0);
  checkb "carat adds little" true
    (r.Experiments.carat_median -. r.Experiments.base_median < 500.0)

let test_transform_accounting () =
  let t = Experiments.transform_accounting ~module_scale:4 () in
  checkb "functions" true (t.Experiments.functions > 10);
  checkb "guards between 0 and memops" true
    (t.Experiments.guards_inserted > 0
    && t.Experiments.guards_inserted <= t.Experiments.memory_ops);
  checkb "signed" true (t.Experiments.signature <> "<unsigned>")

let test_policy_bench_runs () =
  (* every ablation structure, plus the inline-cache row, holds the
     disjoint bench policy and answers every probe *)
  let pts =
    Experiments.policy_structure_bench ~checks:300 ~region_counts:[ 8 ]
      ~placements:[ Experiments.Rule_last ] ~site_cache_rows:true ()
  in
  Alcotest.(check (list string))
    "one row per structure, then linear+ic"
    (List.map Policy.Ablation.to_string Policy.Ablation.all @ [ "linear+ic" ])
    (List.map (fun p -> p.Experiments.structure) pts);
  List.iter
    (fun p ->
      checkb (p.Experiments.structure ^ " scans") true
        (p.Experiments.entries_scanned_per_check >= 1.0))
    pts;
  (* placement matters for the linear scan: first beats last at n=8 *)
  let both =
    Experiments.policy_structure_bench ~checks:300 ~region_counts:[ 8 ]
      ~kinds:[ Policy.Ablation.Linear ] ()
  in
  (match both with
  | [ last; first ] ->
    checkb "first-placed rule scans less" true
      (first.Experiments.entries_scanned_per_check
      < last.Experiments.entries_scanned_per_check)
  | _ -> Alcotest.fail "expected two placements");
  List.iter
    (fun p ->
      checkb "cost positive" true (p.Experiments.cycles_per_check > 0.0))
    pts

let test_mechanism_sensitivity_runs () =
  let pts = Experiments.mechanism_sensitivity ~trials:2 ~packets:50 () in
  checki "four variants" 4 (List.length pts);
  List.iter
    (fun p ->
      checkb "pps sane" true (p.Experiments.baseline_pps > 10_000.0);
      checkb "overhead bounded" true
        (p.Experiments.overhead_pct > -5.0 && p.Experiments.overhead_pct < 20.0))
    pts;
  (* the speculation knockout must cost more than stock *)
  (match pts with
  | stock :: no_spec :: _ ->
    checkb "speculation is load-bearing" true
      (no_spec.Experiments.overhead_pct > stock.Experiments.overhead_pct)
  | _ -> Alcotest.fail "unexpected shape")

let test_opt_ablation_runs () =
  let rows = Experiments.guard_optimization_ablation ~trials:2 ~packets:50 () in
  checki "four rows" 4 (List.length rows);
  (match rows with
  | [ base; unopt; opt; aggr ] ->
    checki "baseline has no guards" 0 base.Experiments.static_guards;
    (* on the driver's straight-line hot path there is little to remove
       (the paper's very argument for skipping optimization); what the
       optimizing pipeline must never do is add checks *)
    checkb "optimized static sites not more" true
      (opt.Experiments.static_guards <= unopt.Experiments.static_guards);
    checkb "optimized dynamic checks not more" true
      (opt.Experiments.checks_per_packet
      <= unopt.Experiments.checks_per_packet +. 0.01);
    (* the certified optimizer must strictly beat the local tier on the
       driver: coalescing and hoist-widening fire where elim/hoist alone
       cannot *)
    checkb "aggressive static sites fewer" true
      (aggr.Experiments.static_guards < opt.Experiments.static_guards);
    checkb "aggressive dynamic checks not more" true
      (aggr.Experiments.checks_per_packet
      <= opt.Experiments.checks_per_packet +. 0.01)
  | _ -> Alcotest.fail "unexpected shape")

(* ---------- standing invariants ---------- *)

let broken =
  Alcotest.(list (testable (Fmt.of_to_string Invariants.to_string) ( = )))

let audit_pm () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let pm =
    Policy.Policy_module.install ~site_cache:true
      ~on_deny:Policy.Policy_module.Audit kernel
  in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  Policy.Engine.set_verify (Policy.Policy_module.engine pm) true;
  pm

let small_duplex () =
  let config =
    { Smp_testbed.default_config with cpus = 2; rx_queues = 2; seed = 3 }
  in
  let tb = Smp_testbed.create ~config () in
  (tb, Smp_testbed.run_traffic ~count:40 ~churn:7 tb)

let test_correct_runs_keep_invariants () =
  let tb, r = small_duplex () in
  checkb "frames delivered" true (r.Smp_testbed.d_rx_frames > 0);
  Alcotest.check broken "duplex run" [] (Invariants.duplex r);
  Alcotest.check broken "its policy module" []
    (Invariants.policy_module (Smp_testbed.policy_module tb))

(* A forged inline-cache span serves an allow the live policy denies:
   the paranoid verifier counts it, and the module reports it. *)
let test_stale_site_cache_slot () =
  let pm = audit_pm () in
  let eng = Policy.Policy_module.engine pm in
  let addr = 0x4000 and site = 3 and w = Policy.Region.prot_write in
  checkb "user store denied" false
    (Policy.Engine.check_fast eng ~site ~addr ~size:8 ~flags:w);
  Alcotest.check broken "clean before the forgery" []
    (Invariants.policy_module pm);
  checkb "slot forged" true
    (Policy.Engine.corrupt_site_cache eng
       (Policy.Engine.default_view eng)
       ~site ~lo:addr ~hi:(addr + Kernel.Memory.page_size)
       ~prot:Policy.Region.prot_rw ~smash_canary:false);
  checkb "forged span allows" true
    (Policy.Engine.check_fast eng ~site ~addr ~size:8 ~flags:w);
  Alcotest.check broken "engine stale allow"
    [ Invariants.Stale_allows { layer = Invariants.Engine; count = 1 } ]
    (Invariants.policy_module pm)

(* A domain-shadow slot widened to read-write answers a write the
   domain's read-only region denies. *)
let test_stale_domain_shadow_slot () =
  let pm = audit_pm () in
  let dm = Policy.Policy_module.enable_domains pm in
  Policy.Domain.set_verify dm true;
  let id = Policy.Domain.dom_id (Policy.Domain.create_domain dm) in
  let ro =
    Policy.Region.v ~base:0x10000 ~len:0x1000 ~prot:Policy.Region.prot_read ()
  in
  checki "install" 0 (Policy.Domain.install_regions dm ~domain:id [ ro ]);
  checkb "read fills the shadow" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:1);
  Alcotest.check broken "clean before the forgery" []
    (Invariants.policy_module pm);
  let filled =
    Array.to_list dm.Policy.Domain.shards
    |> List.concat_map Array.to_list
    |> List.filter (fun sl -> sl.Policy.Domain.sl_dom = id)
  in
  checki "one filled slot" 1 (List.length filled);
  List.iter
    (fun sl -> sl.Policy.Domain.sl_prot <- Policy.Region.prot_rw)
    filled;
  checkb "forged slot allows the write" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10020 ~size:8 ~flags:2);
  let expected =
    [ Invariants.Stale_allows { layer = Invariants.Domains; count = 1 } ]
  in
  Alcotest.check broken "bare domain layer" expected (Invariants.domains dm);
  Alcotest.check broken "through the policy module" expected
    (Invariants.policy_module pm)

(* In Audit mode a denied guard is recorded and the run goes on: the
   module reports the denials, the first one's access included. *)
let test_guard_denial_reported () =
  let pm = audit_pm () in
  let w = Policy.Region.prot_write in
  Policy.Policy_module.guard pm ~site:0 ~addr:0x4000 ~size:8 ~flags:w;
  Policy.Policy_module.guard pm ~site:1 ~addr:0x5000 ~size:4 ~flags:1;
  Alcotest.check broken "two denials, the first reported"
    [
      Invariants.Guard_denied { count = 2; addr = 0x4000; size = 8; flags = w };
    ]
    (Invariants.policy_module pm);
  Alcotest.check broken "no stale allow" [] (Invariants.stale_allows pm)

(* Each hand-altered count of a correct duplex result is reported as the
   invariant it breaks. *)
let test_altered_duplex_counts () =
  let _, r = small_duplex () in
  let delivered = r.Smp_testbed.d_rx_frames
  and dropped = r.Smp_testbed.d_rx_dropped
  and offered = r.Smp_testbed.d_injected in
  List.iter
    (fun (what, r', expected) ->
      Alcotest.check broken what expected (Invariants.duplex r'))
    [
      ( "stale allows",
        { r with d_stale_allows = 2 },
        [ Invariants.Stale_allows { layer = Invariants.Engine; count = 2 } ] );
      ( "failed sends",
        { r with d_send_errors = 1 },
        [ Invariants.Send_errors 1 ] );
      ( "a frame lost",
        { r with d_injected = offered + 1 },
        [
          Invariants.Frames_unaccounted
            { delivered; dropped; offered = offered + 1 };
        ] );
      ( "a latency sample missing",
        { r with d_latencies = Array.sub r.d_latencies 1 (delivered - 1) },
        [ Invariants.Latency_samples { samples = delivered - 1; delivered } ] );
    ]

let () =
  Alcotest.run "core"
    [
      ( "testbed",
        [
          Alcotest.test_case "carat" `Quick test_carat_testbed;
          Alcotest.test_case "baseline" `Quick test_baseline_testbed;
          Alcotest.test_case "A/B same traffic" `Quick test_ab_same_traffic;
          Alcotest.test_case "carat slower but close" `Quick test_carat_slower_but_close;
          Alcotest.test_case "region count" `Quick test_region_count_config;
          Alcotest.test_case "machine selection" `Quick test_machine_selection;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "throughput smoke" `Slow test_fig_throughput_small;
          Alcotest.test_case "fig5 labels" `Slow test_fig5_series_labels;
          Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
          Alcotest.test_case "fig7 medians" `Slow test_fig7_medians;
          Alcotest.test_case "transform accounting" `Quick test_transform_accounting;
          Alcotest.test_case "policy bench" `Quick test_policy_bench_runs;
          Alcotest.test_case "opt ablation" `Slow test_opt_ablation_runs;
          Alcotest.test_case "mechanism sensitivity" `Slow test_mechanism_sensitivity_runs;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "correct runs break none" `Quick
            test_correct_runs_keep_invariants;
          Alcotest.test_case "stale site-cache slot" `Quick
            test_stale_site_cache_slot;
          Alcotest.test_case "stale domain-shadow slot" `Quick
            test_stale_domain_shadow_slot;
          Alcotest.test_case "guard denial in audit mode" `Quick
            test_guard_denial_reported;
          Alcotest.test_case "altered duplex counts" `Quick
            test_altered_duplex_counts;
        ] );
    ]
