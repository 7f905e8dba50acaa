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
    ]
