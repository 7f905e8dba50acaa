(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation (§4.2) from the simulation, prints the same
   rows/series the paper reports, and runs a Bechamel microbenchmark
   suite over the hot primitives.

   Usage:
     dune exec bench/main.exe             # everything
     dune exec bench/main.exe fig3        # one figure
     dune exec bench/main.exe -- --quick  # reduced trial counts

   Figures: fig3 fig4 fig5 fig6 fig7; tables/ablations: guards,
   ablation-policy, ablation-opt; microbenchmarks: bechamel, guardpath;
   gated suites: guardopt (the certified optimizer, writes
   BENCH_guardopt.json), smpscale, selfheal, tracegate, certify.
   Flags: --quick, --json (guardpath writes BENCH_guardpath.json),
   --engine interp|compiled (execution engine for the fig targets). *)

open Carat_kop

let line = String.make 72 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

let quick = ref false
let fault_trials = ref None
let json = ref false
let engine = ref Vm.Engine.Interp
let fault_sanitize = ref false

let trials () = if !quick then 9 else 41
let packets () = if !quick then 150 else 600

(* ------------------------------------------------------------------ *)

let print_throughput_figure ~title ~expect (r : Experiments.throughput_result)
    =
  section title;
  let cdfs =
    List.map
      (fun s -> (s.Experiments.label, Stats.Cdf.of_samples s.Experiments.pps))
      r.Experiments.series
  in
  print_string
    (Stats.Cdf.render
       ~title:
         (Printf.sprintf "CDF of packet launch throughput (%s, %dB packets)"
          r.Experiments.machine_name r.Experiments.packet_size)
       ~unit_label:"pps" cdfs);
  print_newline ();
  (* paper-style medians and relative change *)
  let medians =
    List.map
      (fun (label, cdf) -> (label, Stats.Cdf.quantile cdf 0.5))
      cdfs
  in
  List.iter
    (fun (label, med) -> Printf.printf "  median %-10s %10.0f pps\n" label med)
    medians;
  (match
     (List.assoc_opt "carat" medians, List.assoc_opt "baseline" medians)
   with
  | Some c, Some b ->
    Printf.printf "  relative change of median: %+.2f%%\n"
      ((b -. c) /. b *. 100.0)
  | _ -> ());
  Printf.printf "  paper: %s\n" expect

let run_fig3 () =
  print_throughput_figure
    ~title:"Figure 3: throughput CDF on the slow R415, two regions"
    ~expect:"median changes by about 1,000 pps, a relative change of <0.8%"
    (Experiments.fig3 ~trials:(trials ()) ~packets:(packets ())
       ~engine:!engine ())

let run_fig4 () =
  print_throughput_figure
    ~title:"Figure 4: throughput CDF on the faster R350, two regions"
    ~expect:"effect even smaller, almost unmeasurable (<0.1%)"
    (Experiments.fig4 ~trials:(trials ()) ~packets:(packets ())
       ~engine:!engine ())

let run_fig5 () =
  let r =
    Experiments.fig5 ~trials:(trials ()) ~packets:(packets ())
      ~engine:!engine ()
  in
  print_throughput_figure
    ~title:"Figure 5: effect of the number of policy regions (R350)"
    ~expect:"n has a small but significant effect; worst case still <1%"
    r;
  (* extra: per-n medians vs baseline *)
  let med s = Stats.Summary.median s.Experiments.pps in
  (match
     List.find_opt (fun s -> s.Experiments.label = "baseline") r.Experiments.series
   with
  | Some base ->
    let b = med base in
    List.iter
      (fun s ->
        if s.Experiments.label <> "baseline" then
          Printf.printf "  %-10s median %8.0f pps  (%+.2f%% vs baseline)\n"
            s.Experiments.label (med s)
            ((b -. med s) /. b *. 100.0))
      r.Experiments.series
  | None -> ())

let run_fig6 () =
  section "Figure 6: throughput slowdown vs packet size (R350, two regions)";
  let pts =
    Experiments.fig6
      ~trials:(if !quick then 5 else 15)
      ~packets:(if !quick then 120 else 500)
      ~engine:!engine ()
  in
  Printf.printf "  %8s %14s %14s %10s\n" "size" "baseline pps" "carat pps"
    "slowdown";
  List.iter
    (fun p ->
      Printf.printf "  %8d %14.0f %14.0f %10.4f\n" p.Experiments.size
        p.Experiments.baseline_pps p.Experiments.carat_pps
        p.Experiments.slowdown)
    pts;
  (* simple shape visual *)
  print_newline ();
  List.iter
    (fun p ->
      let over = int_of_float ((p.Experiments.slowdown -. 1.0) *. 4000.0) in
      let over = max 0 (min 40 over) in
      Printf.printf "  %5dB |%s\n" p.Experiments.size (String.make over '#'))
    pts;
  print_endline
    "  paper: impact largely independent of size; to the extent it varies\n\
    \  (max ~2.5%) it concentrates on small packets"

let run_fig7 () =
  section "Figure 7: sendmsg latency histogram (R350, two regions, 128B)";
  let r =
    Experiments.fig7 ~packets:(if !quick then 2500 else 8000) ~engine:!engine ()
  in
  let all =
    Array.append r.Experiments.base_latencies r.Experiments.carat_latencies
  in
  let lo = 400.0 in
  let hi = 1300.0 in
  ignore all;
  let h_of xs =
    Stats.Hist.of_samples ~lo ~hi ~bins:18 (Array.map float_of_int xs)
  in
  print_string
    (Stats.Hist.render ~title:"latency (cycles); outliers hidden, as in the paper"
       ~unit_label:"cyc"
       [
         ("Base", h_of r.Experiments.base_latencies);
         ("Carat", h_of r.Experiments.carat_latencies);
       ]);
  Printf.printf
    "\n  medians including outliers: carat=%.0f cycles, baseline=%.0f cycles\n"
    r.Experiments.carat_median r.Experiments.base_median;
  print_endline
    "  paper: 694 (CARAT KOP) vs 686 (baseline) cycles, within measurement noise"

let run_guards () =
  section "Transform accounting (paper §4: e1000e ~19k LoC, pass ~200 LoC)";
  let t = Experiments.transform_accounting () in
  Printf.printf "  driver functions:            %6d\n" t.Experiments.functions;
  Printf.printf "  KIR instructions:            %6d\n" t.Experiments.kir_instructions;
  Printf.printf "  KIR text lines (the '.kir'): %6d\n" t.Experiments.kir_text_lines;
  Printf.printf "  loads+stores:                %6d\n" t.Experiments.memory_ops;
  Printf.printf "  guards inserted:             %6d  (exactly one per load/store)\n"
    t.Experiments.guards_inserted;
  Printf.printf "  module signature:            %s\n" t.Experiments.signature;
  print_endline
    "  source-code changes required in the driver: 0 (as in the paper)"

let run_ablation_policy () =
  section
    "Ablation: policy structures (paper §3.1/§4.2 speculation, measured)";
  let pts =
    Experiments.policy_structure_bench ~checks:(if !quick then 1500 else 6000)
      ~site_cache_rows:true ()
  in
  Printf.printf "  %-14s %8s %10s %18s %22s\n" "structure" "regions"
    "rule at" "cycles/check" "entries scanned/check";
  List.iter
    (fun p ->
      Printf.printf "  %-14s %8d %10s %18.1f %22.2f\n" p.Experiments.structure
        p.Experiments.regions
        (Experiments.placement_to_string p.Experiments.placement)
        p.Experiments.cycles_per_check
        p.Experiments.entries_scanned_per_check)
    pts;
  print_endline
    "\n  expected shape: linear is cheapest at small n and degrades linearly;\n\
    \  sorted/splay pay branch misses; the caches win once they are warm"

let run_ablation_opt () =
  section "Ablation: unoptimized guards (paper) vs CARAT-CAKE-style optimization";
  let rows =
    Experiments.guard_optimization_ablation
      ~trials:(if !quick then 5 else 11)
      ~packets:(if !quick then 150 else 500)
      ()
  in
  Printf.printf "  %-36s %8s %10s %12s %12s %10s\n" "technique" "static"
    "checks/pkt" "checks/diag" "mean pps" "sendmsg";
  List.iter
    (fun r ->
      Printf.printf "  %-36s %8d %10.1f %12.1f %12.0f %10.0f\n"
        r.Experiments.technique r.Experiments.static_guards
        r.Experiments.checks_per_packet r.Experiments.checks_per_eeprom_read
        r.Experiments.pps_mean r.Experiments.sendmsg_median)
    rows;
  print_endline
    "\n  the paper's bet, quantified: on a driver hot path the optimizer\n\
    \  finds little to remove, so unoptimized guarding is already cheap"

let run_mechanism () =
  section
    "Ablation: which machine mechanism makes guards cheap? (§4.2's claim)";
  let pts =
    Experiments.mechanism_sensitivity
      ~trials:(if !quick then 5 else 9)
      ~packets:(if !quick then 150 else 300)
      ()
  in
  Printf.printf "  %-26s %14s %14s %12s\n" "machine variant" "baseline pps"
    "carat pps" "overhead";
  List.iter
    (fun p ->
      Printf.printf "  %-26s %14.0f %14.0f %11.2f%%\n" p.Experiments.variant
        p.Experiments.baseline_pps p.Experiments.carat_pps
        p.Experiments.overhead_pct)
    pts;
  print_endline
    "\n  the paper credits caching + branch prediction + speculation. The\n\
    \  knockouts show speculation and core width dominate; the guard's\n\
    \  branches are monotone, so even a tiny predictor learns them -- the\n\
    \  predictor only matters for log-time policy structures (see the\n\
    \  policy-structure ablation), which is why the paper's linear table\n\
    \  is the right default";
  ignore pts

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: wall-clock cost of the hot simulator
   primitives, one Test.make per reproduced table/figure plus core
   primitives. *)

let bechamel_tests () =
  let open Bechamel in
  (* policy check: the guard's inner loop, per structure *)
  let guard_test kind n =
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
    let engine = Policy.Engine.create ~kind ~capacity:64 kernel in
    Policy.Engine.set_policy engine
      (Policy.Region.padding (n - 1)
      @ [
          Policy.Region.v ~tag:"kernel" ~base:Kernel.Layout.kernel_base
            ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_rw ();
        ]);
    let addr = Kernel.Layout.direct_map_base + 0x400 in
    Test.make
      ~name:
        (Printf.sprintf "guard/%s/n=%d" (Policy.Engine.kind_to_string kind) n)
      (Staged.stage (fun () ->
           ignore (Policy.Engine.check engine ~addr ~size:8 ~flags:1)))
  in
  (* fig3/4: one full guarded sendmsg through the whole stack *)
  let sendmsg_test name machine technique =
    let config =
      { Testbed.default_config with machine; technique; module_scale = 1 }
    in
    let tb = Testbed.create ~config () in
    let k = tb.Testbed.kernel in
    let ub = Kernel.map_user k ~size:2048 in
    Kernel.write_string k ~addr:ub (Net.Frame.build ~seq:0 ~size:128 ());
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Net.Netstack.sendmsg tb.Testbed.stack ~user_buf:ub ~len:128)))
  in
  (* guard injection pass over the full driver (tab-guards) *)
  let inject_test =
    Test.make ~name:"pass/guard-injection(e1000e)"
      (Staged.stage (fun () ->
           let m = Nic.Driver_gen.generate () in
           ignore
             (Passes.Guard_injection.run Passes.Guard_injection.default_config
                m)))
  in
  let parse_test =
    let text = Kir.Printer.to_string (Nic.Driver_gen.generate ()) in
    Test.make ~name:"kir/parse(e1000e)"
      (Staged.stage (fun () -> ignore (Kir.Parser.parse_string text)))
  in
  let sign_test =
    let m = Nic.Driver_gen.generate () in
    Test.make ~name:"pass/sign(e1000e)"
      (Staged.stage (fun () ->
           ignore (Passes.Signing.keyed_tag ~key:"k" (Passes.Signing.signable_text m))))
  in
  Test.make_grouped ~name:"carat-kop"
    [
      sendmsg_test "fig3/sendmsg-carat-r415" Machine.Presets.r415 Testbed.Carat;
      sendmsg_test "fig4/sendmsg-carat-r350" Machine.Presets.r350 Testbed.Carat;
      sendmsg_test "fig4/sendmsg-base-r350" Machine.Presets.r350 Testbed.Baseline;
      guard_test Policy.Engine.Linear 2;
      guard_test Policy.Engine.Linear 64;
      guard_test Policy.Engine.Sorted 64;
      guard_test Policy.Engine.Splay 64;
      guard_test Policy.Engine.Cached 64;
      guard_test Policy.Engine.Bloom 64;
      guard_test Policy.Engine.Shadow 64;
      inject_test;
      parse_test;
      sign_test;
    ]

let run_bechamel () =
  section "Bechamel microbenchmarks (wall-clock of simulator primitives)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000
      ~quota:(Time.second (if !quick then 0.2 else 0.5))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort compare rows in
  Printf.printf "  %-44s %14s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, result) ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "  %-44s %14.1f\n" name est
      | _ -> Printf.printf "  %-44s %14s\n" name "n/a")
    rows

(* ------------------------------------------------------------------ *)
(* guardpath: wall-clock microbenchmark of the two-tier guard fast path.

   Two measurements:
   - end-to-end: the fig3 hot loop (R415, 128B pktgen) under each
     (engine, policy tier) combination, reporting host ns per packet and
     the simulated cycles per packet (which must be identical across
     engines for the same policy tier). The gate rows run the paper's
     production table scale — 64 regions (§3.1's evaluated structure),
     with the conforming rules last, where insmod-time registration puts
     a freshly loaded driver — so the seed's linear walk pays its real
     scan length. A two-region pair (fig3's minimal policy) is reported
     for context;
   - check-only: the bare guard check across policy structures, shadow
     vs the PR-1 structures, plus the site inline cache, with a
     steady-state Gc.minor_words assertion proving the fast path does
     not allocate. *)

type guardpath_row = {
  gp_label : string;
  gp_ns_per_packet : float;
  gp_cycles_per_packet : float;
  gp_total_cycles : int;
  gp_guard_checks : int;
}

let guardpath_e2e ?(trace = false) ~label ~(engine : Vm.Engine.kind)
    ~(structure : Policy.Engine.kind) ~site_cache ~regions ~packets () :
    guardpath_row =
  let config =
    {
      Testbed.default_config with
      machine = Machine.Presets.r415;
      technique = Testbed.Carat;
      stall_prob = 0.0002;
      engine;
      structure;
      site_cache;
      trace;
      policy =
        (if regions <= 2 then Policy.Region.kernel_only
         else Policy.Region.kernel_only_padded regions);
    }
  in
  let tb = Testbed.create ~config () in
  let machine = Testbed.machine tb in
  (* warmup: compile cache, simulated caches, predictor, inline caches *)
  ignore
    (Testbed.run_pktgen tb
       { Net.Pktgen.default_config with count = 200; size = 128; seed = 999 });
  Policy.Engine.reset_stats (Policy.Policy_module.engine tb.Testbed.policy_module);
  let c0 = Machine.Model.cycles machine in
  let t0 = Unix.gettimeofday () in
  let r =
    Testbed.run_pktgen tb
      { Net.Pktgen.default_config with count = packets; size = 128; seed = 7 }
  in
  let t1 = Unix.gettimeofday () in
  let c1 = Machine.Model.cycles machine in
  let st =
    Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module)
  in
  assert (r.Net.Pktgen.sent = packets);
  {
    gp_label = label;
    gp_ns_per_packet = (t1 -. t0) *. 1e9 /. float_of_int packets;
    gp_cycles_per_packet = float_of_int (c1 - c0) /. float_of_int packets;
    gp_total_cycles = c1 - c0;
    gp_guard_checks = st.Policy.Engine.checks;
  }

(* ------------------------------------------------------------------ *)
(* tracegate: the zero-cost-off contract of the trace layer.

   With tracing disabled (the default), the observability layer must be
   invisible to the simulation: fig3/fig7-shaped runs must produce
   simulated cycle counts and guard-check counts bit-identical to the
   values recorded before the trace layer existed. The goldens below are
   those pre-PR values (fixed seeds, fixed packet counts, engine
   Interp/Compiled both asserted). *)

(* fig7-shaped cell: R350, 0.0004 stall, 128B, 600 packets, seed 5 —
   exactly Experiments.fig7's loop at a fixed small packet count. *)
let fig7_cell ~technique ~(engine : Vm.Engine.kind) () =
  let config =
    {
      Testbed.default_config with
      machine = Machine.Presets.r350;
      technique;
      stall_prob = 0.0004;
      engine;
    }
  in
  let tb = Testbed.create ~config () in
  let machine = Testbed.machine tb in
  ignore
    (Testbed.run_pktgen tb
       { Net.Pktgen.default_config with count = 200; size = 128; seed = 999 });
  Policy.Engine.reset_stats (Policy.Policy_module.engine tb.Testbed.policy_module);
  let c0 = Machine.Model.cycles machine in
  let r =
    Testbed.run_pktgen tb
      { Net.Pktgen.default_config with count = 600; size = 128; seed = 5 }
  in
  let c1 = Machine.Model.cycles machine in
  let st =
    Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module)
  in
  let median =
    Stats.Summary.median (Array.map float_of_int r.Net.Pktgen.latencies)
  in
  (c1 - c0, st.Policy.Engine.checks, median)

let run_tracegate () =
  section "tracegate: tracing off must be simulation-invisible (bit-identical)";
  (* (label, golden total sim cycles, golden guard checks) *)
  let fig3_golden_cycles = 10629208 and fig3_golden_checks = 17400 in
  let fig7_golden_cycles = 12538822 and fig7_golden_checks = 17400 in
  let fig7_golden_median = 731.0 in
  let f3i =
    guardpath_e2e ~label:"fig3/interp" ~engine:Vm.Engine.Interp
      ~structure:Policy.Engine.Linear ~site_cache:false ~regions:2 ~packets:600 ()
  in
  let f3c =
    guardpath_e2e ~label:"fig3/compiled" ~engine:Vm.Engine.Compiled
      ~structure:Policy.Engine.Linear ~site_cache:false ~regions:2 ~packets:600 ()
  in
  let c7i, k7i, m7i = fig7_cell ~technique:Testbed.Carat ~engine:Vm.Engine.Interp () in
  let c7c, k7c, m7c = fig7_cell ~technique:Testbed.Carat ~engine:Vm.Engine.Compiled () in
  Printf.printf "  fig3-shaped (R415, 2 regions, 600 pkts): %d cycles, %d checks\n"
    f3i.gp_total_cycles f3i.gp_guard_checks;
  Printf.printf "  fig7-shaped (R350, 2 regions, 600 pkts): %d cycles, %d checks, median %.1f\n"
    c7i k7i m7i;
  let fail msg =
    Printf.eprintf "tracegate: FAIL: %s\n" msg;
    exit 1
  in
  if (f3i.gp_total_cycles, f3i.gp_guard_checks) <> (f3c.gp_total_cycles, f3c.gp_guard_checks)
  then fail "fig3 engines disagree";
  if (c7i, k7i, m7i) <> (c7c, k7c, m7c) then fail "fig7 engines disagree";
  if fig3_golden_cycles = 0 then
    Printf.printf "  (goldens unset: probe mode, printing measured values only)\n"
  else begin
    if (f3i.gp_total_cycles, f3i.gp_guard_checks)
       <> (fig3_golden_cycles, fig3_golden_checks)
    then fail "fig3 simulated cycles/checks differ from pre-trace goldens";
    if (c7i, k7i, m7i) <> (fig7_golden_cycles, fig7_golden_checks, fig7_golden_median)
    then fail "fig7 simulated cycles/checks/median differ from pre-trace goldens";
    print_endline "  tracing off is bit-identical to the pre-trace goldens: yes"
  end

(* Steady-state allocation on the inline-cache hit path must be zero:
   returns minor words allocated across [n] hot checks (measurement
   boxes excluded by sampling outside the loop). *)
let guardpath_alloc_words ~n =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
  let engine = Policy.Engine.create ~kind:Policy.Engine.Shadow ~capacity:64 kernel in
  Policy.Engine.set_policy engine Policy.Region.kernel_only;
  Policy.Engine.enable_site_cache engine;
  let addr = Kernel.Layout.direct_map_base + 0x400 in
  for i = 0 to 999 do
    ignore
      (Policy.Engine.check_fast engine ~site:(i land 7) ~addr ~size:8
         ~flags:Policy.Region.prot_read)
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore
      (Policy.Engine.check_fast engine ~site:(i land 7) ~addr ~size:8
         ~flags:Policy.Region.prot_read)
  done;
  Gc.minor_words () -. w0

let guardpath_check_only ~checks =
  let bench kind ic =
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
    let engine = Policy.Engine.create ~kind ~capacity:64 kernel in
    Policy.Engine.set_policy engine
      (Policy.Region.padding 62
      @ [
          Policy.Region.v ~tag:"kernel" ~base:Kernel.Layout.kernel_base
            ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_rw ();
        ]);
    if ic then Policy.Engine.enable_site_cache engine;
    let addr = Kernel.Layout.direct_map_base + 0x400 in
    let probe i =
      if ic then
        ignore
          (Policy.Engine.check_fast engine ~site:(i land 7)
             ~addr:(addr + (i * 8 mod 256)) ~size:8
             ~flags:Policy.Region.prot_read)
      else
        ignore
          (Policy.Engine.check engine
             ~addr:(addr + (i * 8 mod 256)) ~size:8
             ~flags:Policy.Region.prot_read)
    in
    for i = 0 to 999 do
      probe i
    done;
    let t0 = Unix.gettimeofday () in
    for i = 0 to checks - 1 do
      probe i
    done;
    let t1 = Unix.gettimeofday () in
    ( Policy.Engine.kind_to_string kind ^ (if ic then "+ic" else ""),
      (t1 -. t0) *. 1e9 /. float_of_int checks )
  in
  [
    bench Policy.Engine.Linear false;
    bench Policy.Engine.Sorted false;
    bench Policy.Engine.Splay false;
    bench Policy.Engine.Bloom false;
    bench Policy.Engine.Shadow false;
    bench Policy.Engine.Shadow true;
  ]

let run_guardpath () =
  section "guardpath: wall-clock of the guard fast path (host ns, 64 regions)";
  let packets = if !quick then 1500 else 4000 in
  let rows =
    [
      guardpath_e2e ~label:"interp+linear (seed)" ~engine:Vm.Engine.Interp
        ~structure:Policy.Engine.Linear ~site_cache:false ~regions:64 ~packets ();
      guardpath_e2e ~label:"compiled+linear" ~engine:Vm.Engine.Compiled
        ~structure:Policy.Engine.Linear ~site_cache:false ~regions:64 ~packets ();
      guardpath_e2e ~label:"interp+shadow+ic" ~engine:Vm.Engine.Interp
        ~structure:Policy.Engine.Shadow ~site_cache:true ~regions:64 ~packets ();
      guardpath_e2e ~label:"compiled+shadow+ic" ~engine:Vm.Engine.Compiled
        ~structure:Policy.Engine.Shadow ~site_cache:true ~regions:64 ~packets ();
      (* the observability tax: same configuration with the carat_trace
         ring recording every guard event *)
      guardpath_e2e ~trace:true ~label:"compiled+shadow+ic+trace"
        ~engine:Vm.Engine.Compiled ~structure:Policy.Engine.Shadow
        ~site_cache:true ~regions:64 ~packets ();
    ]
  in
  let base = List.hd rows in
  Printf.printf "  %-24s %14s %10s %16s %14s\n" "configuration" "ns/packet"
    "speedup" "sim cycles/pkt" "guard checks";
  List.iter
    (fun r ->
      Printf.printf "  %-24s %14.0f %9.2fx %16.0f %14d\n" r.gp_label
        r.gp_ns_per_packet
        (base.gp_ns_per_packet /. r.gp_ns_per_packet)
        r.gp_cycles_per_packet r.gp_guard_checks)
    rows;
  (* fig3's minimal two-region policy, for context: the table is so
     small that the linear walk is nearly free, which is why the paper's
     production table scale above is the design point worth measuring *)
  let ctx =
    [
      guardpath_e2e ~label:"interp+linear (2 regions)" ~engine:Vm.Engine.Interp
        ~structure:Policy.Engine.Linear ~site_cache:false ~regions:2 ~packets ();
      guardpath_e2e ~label:"compiled+shadow+ic (2 regions)"
        ~engine:Vm.Engine.Compiled ~structure:Policy.Engine.Shadow
        ~site_cache:true ~regions:2 ~packets ();
    ]
  in
  List.iter
    (fun r ->
      Printf.printf "  %-30s %6.0f ns/packet  %12.0f sim cycles/pkt\n"
        r.gp_label r.gp_ns_per_packet r.gp_cycles_per_packet)
    ctx;
  (* engine equivalence sanity on the spot: same policy tier => same
     simulated cycles and guard counts regardless of engine *)
  let by label = List.find (fun r -> r.gp_label = label) rows in
  let eq a b =
    a.gp_cycles_per_packet = b.gp_cycles_per_packet
    && a.gp_guard_checks = b.gp_guard_checks
  in
  if not (eq (by "interp+linear (seed)") (by "compiled+linear"))
     || not (eq (by "interp+shadow+ic") (by "compiled+shadow+ic"))
  then begin
    Printf.eprintf
      "guardpath: FAIL: engines disagree on simulated cycles or guard counts\n";
    exit 1
  end;
  print_endline "  engines agree on simulated cycles and guard counts: yes";
  (* recording must tax cycles only, never decisions: the traced run sees
     exactly the guard traffic of its untraced twin *)
  let traced = by "compiled+shadow+ic+trace" in
  let untraced = by "compiled+shadow+ic" in
  if traced.gp_guard_checks <> untraced.gp_guard_checks then begin
    Printf.eprintf
      "guardpath: FAIL: tracing changed the guard-check count (%d vs %d)\n"
      traced.gp_guard_checks untraced.gp_guard_checks;
    exit 1
  end;
  let trace_overhead =
    traced.gp_cycles_per_packet -. untraced.gp_cycles_per_packet
  in
  Printf.printf
    "  trace recording overhead: %.1f sim cycles/packet (decisions unchanged)\n"
    trace_overhead;
  let words = guardpath_alloc_words ~n:100_000 in
  Printf.printf "  minor words allocated across 100k hot checks: %.0f\n" words;
  if words > 64.0 then begin
    Printf.eprintf "guardpath: FAIL: guard fast path allocates\n";
    exit 1
  end;
  let checks = if !quick then 20_000 else 100_000 in
  let co = guardpath_check_only ~checks in
  Printf.printf "\n  bare check, 64 regions, conforming probes (host ns/check):\n";
  List.iter (fun (l, ns) -> Printf.printf "  %-22s %10.1f\n" l ns) co;
  let speedup =
    base.gp_ns_per_packet /. (by "compiled+shadow+ic").gp_ns_per_packet
  in
  Printf.printf "\n  compiled+shadow+ic vs seed interp+linear: %.2fx\n" speedup;
  if !json then begin
    let oc = open_out "BENCH_guardpath.json" in
    let row_json r =
      Printf.sprintf
        "    {\"label\": %S, \"ns_per_packet\": %.1f, \"speedup\": %.3f, \
         \"sim_cycles_per_packet\": %.1f, \"guard_checks\": %d}"
        r.gp_label r.gp_ns_per_packet
        (base.gp_ns_per_packet /. r.gp_ns_per_packet)
        r.gp_cycles_per_packet r.gp_guard_checks
    in
    Printf.fprintf oc
      "{\n\
      \  \"packets\": %d,\n\
      \  \"e2e\": [\n%s\n  ],\n\
      \  \"context_two_regions\": [\n%s\n  ],\n\
      \  \"check_only_ns\": {%s},\n\
      \  \"minor_words_per_100k_checks\": %.0f,\n\
      \  \"speedup_compiled_shadow_vs_seed\": %.3f,\n\
      \  \"trace_overhead_sim_cycles_per_packet\": %.1f,\n\
      \  \"trace_decisions_unchanged\": true\n\
       }\n"
      packets
      (String.concat ",\n" (List.map row_json rows))
      (String.concat ",\n" (List.map row_json ctx))
      (String.concat ", "
         (List.map (fun (l, ns) -> Printf.sprintf "%S: %.1f" l ns) co))
      words speedup trace_overhead;
    close_out oc;
    print_endline "  wrote BENCH_guardpath.json"
  end;
  if speedup < 3.0 then begin
    Printf.eprintf
      "guardpath: FAIL: compiled+shadow+ic is below 3x over the seed path\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* guardopt: what each guard-optimization tier buys at run time.

   For the fig3- and fig7-shaped presets (compiled engine, shadow table
   + site inline cache, the production 64-region policy) the same seeded
   packet workload runs under Baseline (unguarded) and Carat at --opt
   none/basic/aggressive. The baseline run on identical seeds isolates
   the guard-attributable cycles: attr = carat cycles/pkt - baseline
   cycles/pkt. Context rows: the seed linear table, and the 4-CPU
   multi-queue build. Gates: on at least one fig3/fig7 preset the
   aggressive tier must cut dynamic guard executions >= 25% and improve
   guard-attributable cycles/pkt >= 1.15x, with zero certifier
   rollbacks, zero denies, and an engine-independent decision stream.
   Writes BENCH_guardopt.json. *)

type go_row = {
  go_preset : string;
  go_level : string;  (* "baseline" or an opt level *)
  go_static_guards : int;
  go_sent : int;
  go_checks : int;
  go_allowed : int;
  go_denied : int;
  go_total_cycles : int;
  go_cycles_per_pkt : float;
  go_checks_per_pkt : float;
}

let guardopt_cell ~preset ~machine ~stall ~structure ~site_cache ~packets
    ~(engine : Vm.Engine.kind) level =
  let technique, guard_opt =
    match level with
    | None -> (Testbed.Baseline, Passes.Pipeline.O_none)
    | Some o -> (Testbed.Carat, o)
  in
  let config =
    {
      Testbed.default_config with
      machine;
      technique;
      stall_prob = stall;
      engine;
      structure;
      site_cache;
      guard_opt;
      policy = Policy.Region.kernel_only_padded 64;
    }
  in
  let tb = Testbed.create ~config () in
  let mach = Testbed.machine tb in
  ignore
    (Testbed.run_pktgen tb
       { Net.Pktgen.default_config with count = 200; size = 128; seed = 999 });
  Policy.Engine.reset_stats
    (Policy.Policy_module.engine tb.Testbed.policy_module);
  let c0 = Machine.Model.cycles mach in
  let r =
    Testbed.run_pktgen tb
      { Net.Pktgen.default_config with count = packets; size = 128; seed = 7 }
  in
  let c1 = Machine.Model.cycles mach in
  let st =
    Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module)
  in
  {
    go_preset = preset;
    go_level =
      (match level with
      | None -> "baseline"
      | Some o -> Passes.Pipeline.opt_level_to_string o);
    go_static_guards =
      (match level with
      | None -> 0
      | Some _ -> Passes.Guard_injection.count_guards tb.Testbed.driver_kir);
    go_sent = r.Net.Pktgen.sent;
    go_checks = st.Policy.Engine.checks;
    go_allowed = st.Policy.Engine.allowed;
    go_denied = st.Policy.Engine.denied;
    go_total_cycles = c1 - c0;
    go_cycles_per_pkt = float_of_int (c1 - c0) /. float_of_int packets;
    go_checks_per_pkt =
      float_of_int st.Policy.Engine.checks /. float_of_int packets;
  }

let run_guardopt () =
  section "guardopt: certified guard optimizer vs the unoptimized pipeline";
  let packets = if !quick then 200 else 600 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 0: the certifier gate itself — the aggressive compile must not have
     rolled the transforms back, and must re-validate like any module
     the loader is about to accept *)
  let m = Nic.Driver_gen.generate ~module_scale:12 ~with_rogue:false () in
  let remarks = Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive m in
  List.iter
    (fun (pass, (r : Passes.Pass.result)) ->
      if pass = "guard-optimize" then
        List.iter
          (fun (k, v) ->
            if k = "restored" then fail "optimizer rolled back: %s" v
            else Printf.printf "  optimizer: %s = %s\n" k v)
          r.Passes.Pass.remarks)
    remarks;
  (match Analysis.Certify.validate m with
  | Ok () -> print_endline "  aggressive driver re-validates: yes"
  | Error e ->
    fail "aggressive driver certificate: %s"
      (Analysis.Certify.validate_error_to_string e));
  (* 1: the gate presets, all tiers under identical seeds *)
  let levels =
    None :: List.map (fun o -> Some o) Passes.Pipeline.all_opt_levels
  in
  let presets =
    [
      ("fig3/compiled+shadow+ic", Machine.Presets.r415, 0.0002);
      ("fig7/compiled+shadow+ic", Machine.Presets.r350, 0.0004);
    ]
  in
  let rows =
    List.concat_map
      (fun (preset, machine, stall) ->
        List.map
          (guardopt_cell ~preset ~machine ~stall
             ~structure:Policy.Engine.Shadow ~site_cache:true ~packets
             ~engine:Vm.Engine.Compiled)
          levels)
      presets
  in
  (* context: the seed linear table, where every spared check skips a
     full region scan *)
  let linear_rows =
    List.map
      (guardopt_cell ~preset:"fig3/compiled+linear"
         ~machine:Machine.Presets.r415 ~stall:0.0002
         ~structure:Policy.Engine.Linear ~site_cache:false ~packets
         ~engine:Vm.Engine.Compiled)
      [ Some Passes.Pipeline.O_none; Some Passes.Pipeline.O_aggressive ]
  in
  (* engine parity: the optimized module's decision stream and simulated
     cycles must not depend on the execution engine *)
  let parity_interp =
    guardopt_cell ~preset:"fig3/interp+shadow+ic"
      ~machine:Machine.Presets.r415 ~stall:0.0002
      ~structure:Policy.Engine.Shadow ~site_cache:true ~packets
      ~engine:Vm.Engine.Interp (Some Passes.Pipeline.O_aggressive)
  in
  let all_rows = rows @ linear_rows in
  Printf.printf "\n  %-26s %-10s %7s %9s %9s %7s %11s\n" "preset" "level"
    "static" "checks" "chk/pkt" "denied" "cycles/pkt";
  List.iter
    (fun g ->
      Printf.printf "  %-26s %-10s %7d %9d %9.1f %7d %11.1f\n" g.go_preset
        g.go_level g.go_static_guards g.go_checks g.go_checks_per_pkt
        g.go_denied g.go_cycles_per_pkt)
    (all_rows @ [ parity_interp ]);
  let cell preset level =
    List.find (fun g -> g.go_preset = preset && g.go_level = level) all_rows
  in
  (* decision-stream gates: nothing denied, every packet sent, every
     check on a benign workload an allow *)
  List.iter
    (fun g ->
      if g.go_denied <> 0 then
        fail "%s/%s: %d denies on a benign workload" g.go_preset g.go_level
          g.go_denied;
      if g.go_sent <> packets then
        fail "%s/%s: sent %d of %d packets" g.go_preset g.go_level g.go_sent
          packets;
      if g.go_checks <> g.go_allowed then
        fail "%s/%s: checks <> allows" g.go_preset g.go_level)
    (all_rows @ [ parity_interp ]);
  (let c = cell "fig3/compiled+shadow+ic" "aggressive" in
   if
     (parity_interp.go_checks, parity_interp.go_total_cycles)
     <> (c.go_checks, c.go_total_cycles)
   then fail "engines disagree on the optimized module (checks or cycles)");
  (* the optimization gates on the fig3/fig7 presets *)
  let gate_results =
    List.map
      (fun (preset, _, _) ->
        let base = cell preset "baseline" in
        let n = cell preset "none" in
        let a = cell preset "aggressive" in
        let reduction =
          1.0 -. (float_of_int a.go_checks /. float_of_int n.go_checks)
        in
        let attr l = l.go_cycles_per_pkt -. base.go_cycles_per_pkt in
        let attr_improvement = attr n /. attr a in
        Printf.printf
          "\n  %s: checks %d -> %d (%.1f%% fewer), guard-attributable \
           cycles/pkt %.1f -> %.1f (%.2fx)\n"
          preset n.go_checks a.go_checks (100.0 *. reduction) (attr n)
          (attr a) attr_improvement;
        (preset, reduction, attr_improvement))
      presets
  in
  if
    not
      (List.exists
         (fun (_, red, imp) -> red >= 0.25 && imp >= 1.15)
         gate_results)
  then
    fail
      "no fig3/fig7 preset reached >=25%% check reduction and >=1.15x \
       guard-attributable cycles/pkt";
  (* 2: the 4-CPU multi-queue build, optimizer on vs off *)
  let smp_cell opt =
    let cfg =
      {
        Smp_testbed.default_config with
        machine = Machine.Presets.r350;
        cpus = 4;
        seed = 11;
        guard_opt = opt;
      }
    in
    let tb = Smp_testbed.create ~config:cfg () in
    let r = Smp_testbed.run_pktgen ~count:(if !quick then 200 else 600) tb in
    let st =
      Policy.Engine.merged_stats
        (Policy.Policy_module.engine (Smp_testbed.policy_module tb))
    in
    (r, st)
  in
  let smp_none, smp_none_st = smp_cell Passes.Pipeline.O_none in
  let smp_aggr, smp_aggr_st = smp_cell Passes.Pipeline.O_aggressive in
  Printf.printf
    "\n  smp 4-cpu (R350): checks %d -> %d, pps %.0f -> %.0f, denies %d/%d\n"
    smp_none_st.Policy.Engine.checks smp_aggr_st.Policy.Engine.checks
    smp_none.Smp_testbed.pps smp_aggr.Smp_testbed.pps
    smp_none_st.Policy.Engine.denied smp_aggr_st.Policy.Engine.denied;
  if smp_none_st.Policy.Engine.denied + smp_aggr_st.Policy.Engine.denied <> 0
  then fail "smp rows denied on a benign workload";
  if smp_aggr_st.Policy.Engine.checks >= smp_none_st.Policy.Engine.checks then
    fail "smp 4-cpu: aggressive did not reduce dynamic checks";
  if smp_none.Smp_testbed.total_sent <> smp_aggr.Smp_testbed.total_sent then
    fail "smp 4-cpu: sent counts differ between tiers";
  (* json artifact *)
  let oc = open_out "BENCH_guardopt.json" in
  let row_json g =
    Printf.sprintf
      "    {\"preset\": %S, \"level\": %S, \"static_guards\": %d, \"sent\": \
       %d, \"checks\": %d, \"allowed\": %d, \"denied\": %d, \
       \"total_cycles\": %d, \"cycles_per_packet\": %.1f, \
       \"checks_per_packet\": %.1f}"
      g.go_preset g.go_level g.go_static_guards g.go_sent g.go_checks
      g.go_allowed g.go_denied g.go_total_cycles g.go_cycles_per_pkt
      g.go_checks_per_pkt
  in
  let gate_json (preset, red, imp) =
    Printf.sprintf
      "    {\"preset\": %S, \"check_reduction\": %.3f, \
       \"attr_cycles_improvement\": %.3f}"
      preset red imp
  in
  Printf.fprintf oc
    "{\n\
    \  \"packets\": %d,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"engine_parity_row\": [\n%s\n  ],\n\
    \  \"gates\": [\n%s\n  ],\n\
    \  \"smp_4cpu\": {\"checks_none\": %d, \"checks_aggressive\": %d, \
     \"pps_none\": %.0f, \"pps_aggressive\": %.0f},\n\
    \  \"gates_passed\": %b\n\
     }\n"
    packets
    (String.concat ",\n" (List.map row_json all_rows))
    (row_json parity_interp)
    (String.concat ",\n" (List.map gate_json gate_results))
    smp_none_st.Policy.Engine.checks smp_aggr_st.Policy.Engine.checks
    smp_none.Smp_testbed.pps smp_aggr.Smp_testbed.pps (!failures = []);
  close_out oc;
  print_endline "\n  wrote BENCH_guardopt.json";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "guardopt: FAIL: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* smpscale: guarded-vs-unguarded send throughput at 1/2/4/8 CPUs on both
   machine presets, plus an update-storm row (concurrent policy churn via
   the RCU publish path under load). Writes BENCH_smpscale.json and
   enforces the scaling/coherence gates. *)

type smp_row = {
  sr_machine : string;
  sr_technique : string;
  sr_cpus : int;
  sr_storm : int;
  sr_result : Smp_testbed.result;
}

let run_smpscale () =
  section "smpscale: multi-queue send throughput scaling, 1-8 CPUs";
  let count = if !quick then 300 else 1200 in
  let presets =
    [ ("R415", Machine.Presets.r415); ("R350", Machine.Presets.r350) ]
  in
  let row ~storm ~mname ~params ~tech ~cpus =
    let cfg =
      {
        Smp_testbed.default_config with
        machine = params;
        technique = tech;
        cpus;
        seed = 11;
      }
    in
    let tb = Smp_testbed.create ~config:cfg () in
    let r = Smp_testbed.run_pktgen ~count ~storm tb in
    {
      sr_machine = mname;
      sr_technique = Testbed.technique_to_string tech;
      sr_cpus = cpus;
      sr_storm = storm;
      sr_result = r;
    }
  in
  let rows =
    List.concat_map
      (fun (mname, params) ->
        List.concat_map
          (fun tech ->
            List.map
              (fun cpus -> row ~storm:0 ~mname ~params ~tech ~cpus)
              [ 1; 2; 4; 8 ])
          [ Testbed.Carat; Testbed.Baseline ])
      presets
  in
  (* the update-storm rows: 4 CPUs sending while CPU 0 replaces the whole
     policy every 40th operation *)
  let storm_rows =
    List.map
      (fun (mname, params) ->
        row ~storm:40 ~mname ~params ~tech:Testbed.Carat ~cpus:4)
      presets
  in
  let all = rows @ storm_rows in
  Printf.printf "  %-6s %-9s %5s %6s %12s %9s %6s %6s %6s\n" "mach" "tech"
    "cpus" "storm" "pps" "speedup" "pubs" "ipis" "stale";
  let pps_of mname tech cpus =
    let r =
      List.find
        (fun s ->
          s.sr_machine = mname && s.sr_technique = tech && s.sr_cpus = cpus
          && s.sr_storm = 0)
        rows
    in
    r.sr_result.Smp_testbed.pps
  in
  List.iter
    (fun s ->
      let r = s.sr_result in
      Printf.printf "  %-6s %-9s %5d %6d %12.0f %8.2fx %6d %6d %6d\n"
        s.sr_machine s.sr_technique s.sr_cpus s.sr_storm r.Smp_testbed.pps
        (r.Smp_testbed.pps /. pps_of s.sr_machine s.sr_technique 1)
        r.Smp_testbed.publications r.Smp_testbed.ipis
        r.Smp_testbed.stale_allows)
    all;
  (* gates *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun s ->
      if s.sr_result.Smp_testbed.stale_allows <> 0 then
        fail "%s/%s/%d: %d stale allows (policy coherence broken)"
          s.sr_machine s.sr_technique s.sr_cpus
          s.sr_result.Smp_testbed.stale_allows;
      if s.sr_result.Smp_testbed.send_errors <> 0 then
        fail "%s/%s/%d: %d send errors" s.sr_machine s.sr_technique s.sr_cpus
          s.sr_result.Smp_testbed.send_errors)
    all;
  List.iter
    (fun (mname, _) ->
      List.iter
        (fun tech ->
          let p1 = pps_of mname tech 1
          and p2 = pps_of mname tech 2
          and p4 = pps_of mname tech 4 in
          if not (p1 < p2 && p2 < p4) then
            fail "%s/%s: throughput not monotone 1->2->4 (%.0f %.0f %.0f)"
              mname tech p1 p2 p4)
        [ "carat"; "baseline" ])
    presets;
  let efficiency = pps_of "R350" "carat" 4 /. (4.0 *. pps_of "R350" "carat" 1) in
  Printf.printf "\n  R350 carat scaling efficiency at 4 CPUs: %.2f\n"
    efficiency;
  if efficiency < 0.70 then
    fail "R350 carat 4-CPU scaling efficiency %.2f below 0.70" efficiency;
  List.iter
    (fun s ->
      let r = s.sr_result in
      if r.Smp_testbed.publications = 0 then
        fail "%s storm row made no publications" s.sr_machine;
      if r.Smp_testbed.retired <> r.Smp_testbed.publications then
        fail "%s storm row: %d of %d generations never retired" s.sr_machine
          (r.Smp_testbed.publications - r.Smp_testbed.retired)
          r.Smp_testbed.publications)
    storm_rows;
  let oc = open_out "BENCH_smpscale.json" in
  let row_json s =
    let r = s.sr_result in
    Printf.sprintf
      "    {\"machine\": %S, \"technique\": %S, \"cpus\": %d, \"storm\": %d, \
       \"sent\": %d, \"pps\": %.0f, \"per_cpu_pps\": [%s], \
       \"publications\": %d, \"retired\": %d, \"ipis\": %d, \
       \"ipi_cycles\": %d, \"grace_quiescents\": %d, \"stale_allows\": %d, \
       \"send_errors\": %d}"
      s.sr_machine s.sr_technique s.sr_cpus s.sr_storm r.Smp_testbed.total_sent
      r.Smp_testbed.pps
      (String.concat ", "
         (Array.to_list
            (Array.map
               (fun c -> Printf.sprintf "%.0f" c.Smp_testbed.cr_pps)
               r.Smp_testbed.per_cpu)))
      r.Smp_testbed.publications r.Smp_testbed.retired r.Smp_testbed.ipis
      r.Smp_testbed.ipi_cycles r.Smp_testbed.grace_quiescents
      r.Smp_testbed.stale_allows r.Smp_testbed.send_errors
  in
  Printf.fprintf oc
    "{\n\
    \  \"count_per_cpu\": %d,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"storm_rows\": [\n%s\n  ],\n\
    \  \"scaling_efficiency_r350_carat_4cpu\": %.3f,\n\
    \  \"gates_passed\": %b\n\
     }\n"
    count
    (String.concat ",\n" (List.map row_json rows))
    (String.concat ",\n" (List.map row_json storm_rows))
    efficiency (!failures = []);
  close_out oc;
  print_endline "  wrote BENCH_smpscale.json";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "smpscale: FAIL: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* selfheal: the integrity watchdog's corruption-to-detection latency,
   the cost of running degraded (which must reproduce the guard-tier
   ordering guardpath measures: ic hit <= shadow walk < linear walk),
   recovery back to the full fast path, bounded repair retries, and the
   tier-corruption campaign invariants. Writes BENCH_selfheal.json and
   exits nonzero on any gate failure. *)

type selfheal_row = {
  se_class : string;
  se_detect_cycles : int;  (** corruption to the detecting audit *)
  se_degraded_level : int;
  se_full_cpc : float;  (** sim cycles/check at the full tier *)
  se_degraded_cpc : float;  (** sim cycles/check while degraded *)
  se_healed_cpc : float;  (** sim cycles/check after re-promotion *)
  se_recover_audits : int;
  se_recovered : bool;
  se_stale : int;
}

let selfheal_period = 5_000

let selfheal_cpc engine machine =
  let addr = Kernel.Layout.direct_map_base + 0x400 in
  let n = 2_000 in
  let c0 = Machine.Model.cycles machine in
  for i = 0 to n - 1 do
    ignore
      (Policy.Engine.check_fast engine ~site:(i land 7) ~addr ~size:8
         ~flags:Policy.Region.prot_read)
  done;
  float_of_int (Machine.Model.cycles machine - c0) /. float_of_int n

let selfheal_episode ~cls ~corrupt () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
  let pm =
    Policy.Policy_module.install ~kind:Policy.Engine.Shadow ~site_cache:true
      ~on_deny:Policy.Policy_module.Quarantine kernel
  in
  (* production table scale, conforming rules last, as in guardpath *)
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 64);
  let wd = Policy.Policy_module.enable_watchdog ~period:selfheal_period pm in
  let ig =
    match Policy.Policy_module.integrity pm with
    | Some ig -> ig
    | None -> assert false
  in
  let engine = Policy.Policy_module.engine pm in
  let machine = Kernel.machine kernel in
  Policy.Engine.set_verify engine true;
  (* warm a user-page shadow slot (the corruption target) and the probe
     path, then take the full-tier cost *)
  ignore (Policy.Engine.check engine ~addr:0x4000 ~size:8 ~flags:2);
  ignore (selfheal_cpc engine machine);
  let full = selfheal_cpc engine machine in
  if not (corrupt engine) then begin
    Printf.eprintf "selfheal: FAIL: %s corruption injection refused\n" cls;
    exit 1
  end;
  let c0 = Machine.Model.cycles machine in
  let steps = ref 0 in
  while Policy.Integrity.detections ig = 0 && !steps < 100 do
    incr steps;
    ignore (Kernel.Watchdog.advance wd ~cycles:1_000)
  done;
  let detect = Machine.Model.cycles machine - c0 in
  let level = Policy.Integrity.tier_level ig in
  let degraded = selfheal_cpc engine machine in
  let a0 = Policy.Integrity.audits ig in
  let steps = ref 0 in
  while
    (not (Policy.Integrity.healthy ig && Policy.Integrity.tier_level ig = 2))
    && !steps < 100
  do
    incr steps;
    ignore (Kernel.Watchdog.advance wd ~cycles:selfheal_period)
  done;
  let healed = selfheal_cpc engine machine in
  {
    se_class = cls;
    se_detect_cycles = detect;
    se_degraded_level = level;
    se_full_cpc = full;
    se_degraded_cpc = degraded;
    se_healed_cpc = healed;
    se_recover_audits = Policy.Integrity.audits ig - a0;
    se_recovered =
      Policy.Integrity.healthy ig && Policy.Integrity.tier_level ig = 2;
    se_stale = Policy.Engine.stale_allows engine;
  }

let run_selfheal () =
  section "selfheal: watchdog detection latency, degraded overhead, recovery";
  let user_page = 0x4000 lsr Policy.Shadow_table.page_bits in
  let rows =
    [
      selfheal_episode ~cls:"icache-corrupt"
        ~corrupt:(fun e ->
          Policy.Engine.corrupt_site_cache e (Policy.Engine.default_view e)
            ~site:3 ~lo:(user_page lsl Policy.Shadow_table.page_bits)
            ~hi:((user_page + 1) lsl Policy.Shadow_table.page_bits)
            ~prot:Policy.Region.prot_rw
            ~smash_canary:true)
        ();
      selfheal_episode ~cls:"shadow-corrupt"
        ~corrupt:(fun e ->
          Policy.Engine.corrupt_shadow e ~page:user_page
            ~prot:Policy.Region.prot_rw ~fix_checksum:false)
        ();
      selfheal_episode ~cls:"instance-corrupt"
        ~corrupt:(fun e ->
          Policy.Engine.corrupt_instance e ~base:Kernel.Layout.kernel_base
            ~prot:0)
        ();
    ]
  in
  Printf.printf "  %-18s %12s %6s %10s %12s %10s %8s %6s\n" "class"
    "detect cyc" "tier" "full c/c" "degraded c/c" "healed c/c" "audits"
    "stale";
  List.iter
    (fun r ->
      Printf.printf "  %-18s %12d %6d %10.1f %12.1f %10.1f %8d %6d\n"
        r.se_class r.se_detect_cycles r.se_degraded_level r.se_full_cpc
        r.se_degraded_cpc r.se_healed_cpc r.se_recover_audits r.se_stale)
    rows;
  (* bounded retries: a repair route pinned to a no-op must abandon the
     tier after max_retries, not flap forever *)
  let retry_cfg = { Policy.Integrity.cooldown_audits = 1; max_retries = 2 } in
  let abandoned =
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
    let pm =
      Policy.Policy_module.install ~kind:Policy.Engine.Shadow kernel
    in
    Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
    let eng = Policy.Policy_module.engine pm in
    let ig = Policy.Integrity.create ~config:retry_cfg eng in
    Policy.Integrity.set_route ig (fun _ _ -> ());
    ignore
      (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base
         ~prot:0);
    for _ = 1 to 10 do
      ignore (Policy.Integrity.audit ig)
    done;
    Policy.Integrity.abandoned ig
  in
  Printf.printf
    "  pinned-failure repair: %d tier(s) abandoned after %d retries\n"
    abandoned retry_cfg.Policy.Integrity.max_retries;
  (* campaign slice: the three tier-corruption classes across modes *)
  let faults = if !quick then 24 else 60 in
  let report = Fault.Campaign.run { Fault.Campaign.faults; seed = 42 } in
  let campaign_fails = Fault.Campaign.check report in
  let tier_classes =
    List.filter Fault.Inject.is_tier_corruption Fault.Inject.all_classes
  in
  let carat_modes =
    [
      Fault.Harness.Carat Policy.Policy_module.Panic;
      Fault.Harness.Carat Policy.Policy_module.Quarantine;
      Fault.Harness.Carat Policy.Policy_module.Audit;
    ]
  in
  let sum f =
    List.fold_left
      (fun acc cls ->
        List.fold_left
          (fun acc mode -> acc + f (Fault.Campaign.cell report ~cls ~mode))
          acc carat_modes)
      0 tier_classes
  in
  let detected = sum (fun c -> c.Fault.Campaign.sh_detected) in
  let detect_total = sum (fun c -> c.Fault.Campaign.sh_detect_total) in
  let rebuilt = sum (fun c -> c.Fault.Campaign.sh_rebuilt) in
  let rebuild_total = sum (fun c -> c.Fault.Campaign.sh_rebuild_total) in
  let stale = sum (fun c -> c.Fault.Campaign.sh_stale) in
  Printf.printf
    "  campaign (%d faults): detected %d/%d, rebuilt %d/%d, stale %d\n"
    faults detected detect_total rebuilt rebuild_total stale;
  (* gates *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun r ->
      if r.se_detect_cycles > 3 * selfheal_period then
        fail "%s: detection took %d cycles (period %d)" r.se_class
          r.se_detect_cycles selfheal_period;
      if not r.se_recovered then fail "%s: never recovered" r.se_class;
      if r.se_stale <> 0 then
        fail "%s: %d stale allows" r.se_class r.se_stale)
    rows;
  let by cls = List.find (fun r -> r.se_class = cls) rows in
  let ic = by "icache-corrupt" and sh = by "shadow-corrupt" in
  (* degraded-mode cost must reproduce guardpath's tier ordering *)
  if sh.se_degraded_cpc <= sh.se_full_cpc then
    fail "linear fallback not costlier than the full tier (%.1f vs %.1f)"
      sh.se_degraded_cpc sh.se_full_cpc;
  if ic.se_degraded_cpc < ic.se_full_cpc then
    fail "ic-off tier cheaper than ic hits (%.1f vs %.1f)" ic.se_degraded_cpc
      ic.se_full_cpc;
  if sh.se_degraded_cpc <= ic.se_degraded_cpc then
    fail "linear fallback not costlier than the shadow walk (%.1f vs %.1f)"
      sh.se_degraded_cpc ic.se_degraded_cpc;
  if sh.se_healed_cpc >= sh.se_degraded_cpc then
    fail "healed cost did not return below the degraded cost";
  if sh.se_degraded_level <> 0 then
    fail "shadow quarantine did not fall back to linear (level %d)"
      sh.se_degraded_level;
  if ic.se_degraded_level <> 1 then
    fail "ic quarantine did not keep the shadow serving (level %d)"
      ic.se_degraded_level;
  if abandoned <> 1 then
    fail "pinned-failure repair abandoned %d tiers, wanted 1" abandoned;
  if detected <> detect_total then
    fail "campaign: %d of %d corruptions undetected" (detect_total - detected)
      detect_total;
  if rebuilt <> rebuild_total then
    fail "campaign: %d of %d rebuilds failed" (rebuild_total - rebuilt)
      rebuild_total;
  if stale <> 0 then fail "campaign: %d stale allows" stale;
  List.iter (fun m -> fail "campaign invariant: %s" m) campaign_fails;
  let oc = open_out "BENCH_selfheal.json" in
  let row_json r =
    Printf.sprintf
      "    {\"class\": %S, \"detect_cycles\": %d, \"watchdog_period\": %d, \
       \"degraded_tier_level\": %d, \"full_cycles_per_check\": %.1f, \
       \"degraded_cycles_per_check\": %.1f, \"healed_cycles_per_check\": \
       %.1f, \"recover_audits\": %d, \"recovered\": %b, \"stale_allows\": %d}"
      r.se_class r.se_detect_cycles selfheal_period r.se_degraded_level
      r.se_full_cpc r.se_degraded_cpc r.se_healed_cpc r.se_recover_audits
      r.se_recovered r.se_stale
  in
  Printf.fprintf oc
    "{\n\
    \  \"episodes\": [\n%s\n  ],\n\
    \  \"bounded_retries\": {\"max_retries\": %d, \"abandoned\": %d},\n\
    \  \"campaign\": {\"faults\": %d, \"detected\": %d, \"detect_total\": %d, \
     \"rebuilt\": %d, \"rebuild_total\": %d, \"stale_allows\": %d, \
     \"invariants_passed\": %b},\n\
    \  \"gates_passed\": %b\n\
     }\n"
    (String.concat ",\n" (List.map row_json rows))
    retry_cfg.Policy.Integrity.max_retries abandoned faults detected
    detect_total rebuilt rebuild_total stale (campaign_fails = [])
    (!failures = []);
  close_out oc;
  print_endline "  wrote BENCH_selfheal.json";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "selfheal: FAIL: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let run_faults () =
  section "Fault-injection campaign: containment across enforcement modes";
  let faults =
    match !fault_trials with
    | Some n -> n
    | None -> if !quick then 60 else Fault.Campaign.default_config.faults
  in
  let report =
    Fault.Campaign.run ~sanitize:!fault_sanitize
      { Fault.Campaign.default_config with faults }
  in
  print_string (Fault.Campaign.render report);
  if not (Fault.Campaign.passes report) then exit 1

(* ------------------------------------------------------------------ *)

let run_certify () =
  section "Certifier runtime: guard-completeness proof on e1000e-scale modules";
  let trials = if !quick then 3 else 7 in
  Printf.printf "  %-10s %8s %8s %8s %14s %14s\n" "pipeline" "scale" "instrs"
    "guards" "certify ms" "validate ms";
  List.iter
    (fun (label, scale, optimize) ->
      let m = Nic.Driver_gen.generate ~module_scale:scale ~with_rogue:false () in
      let pipeline =
        if optimize then Passes.Pipeline.kop_optimized ()
        else Passes.Pipeline.kop_default ()
      in
      ignore (Passes.Pass.run_pipeline_checked pipeline m);
      let time_ms f =
        let best = ref infinity in
        for _ = 1 to trials do
          let t0 = Unix.gettimeofday () in
          f ();
          let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
          if dt < !best then best := dt
        done;
        !best
      in
      let cert_ms =
        time_ms (fun () ->
            match Analysis.Certify.certify m with
            | Ok _ -> ()
            | Error msg ->
              Printf.eprintf "certify: %s (scale %d) FAILED: %s\n" label scale
                msg;
              exit 1)
      in
      let val_ms =
        time_ms (fun () ->
            match Analysis.Certify.validate m with
            | Ok () -> ()
            | Error e ->
              Printf.eprintf "certify: %s (scale %d) validate FAILED: %s\n"
                label scale
                (Analysis.Certify.validate_error_to_string e);
              exit 1)
      in
      Printf.printf "  %-10s %8d %8d %8d %14.2f %14.2f\n" label scale
        (Kir.Types.module_instr_count m)
        (Passes.Guard_injection.count_guards m)
        cert_ms val_ms)
    (let scales = if !quick then [ 12 ] else [ 12; 24; 48 ] in
     List.concat_map
       (fun s -> [ ("default", s, false); ("optimized", s, true) ])
       scales);
  print_endline
    "\n  certify = dataflow proof from scratch; validate = digest check +\n\
    \  re-proof, the work insmod does when require_certificate is set"

(* ------------------------------------------------------------------ *)

(* polscale: multi-tenant policy domains at scale.

   Three claims, gated:
   1. lookup cost is sub-linear in the region count — a 10k-region
      domain (interval tier) answers a guard within 10x the cost of the
      64-region linear fast path, and cost stays near-flat as the
      number of live domains grows 1 -> 256 (sharded shadow + per-domain
      tables, no cross-tenant interference);
   2. a 1k-region batched install through ioctl_install's RCU route is
      atomic under SMP: readers observe the old or the new table, never
      a partial batch, with zero stale allows and full retirement;
   3. with domains unused, the guard dispatch is bit-identical to the
      fig3/fig7 tracegate goldens — multi-tenancy costs nothing when
      off.

   Writes BENCH_polscale.json. *)

type pol_row = {
  pr_domains : int;
  pr_regions : int;
  pr_structure : string;
  pr_checks : int;
  pr_cycles_per_check : float;
}

let run_polscale () =
  section "polscale: policy domains at scale (64 -> 10k regions, 1 -> 256 domains)";
  let probes = if !quick then 400 else 2000 in
  (* Per-domain disjoint two-page regions; the probe address straddles
     the page boundary inside the region, so every check takes the
     exact structure walk (single-page shadow slots cannot answer) and
     the measured cost is the table's, not the cache's. *)
  let region_of i =
    Policy.Region.v
      ~base:(0x100000 + (i * 0x4000))
      ~len:0x2000 ~prot:Policy.Region.prot_rw ()
  in
  let probe_of i = 0x100000 + (i * 0x4000) + 0xff8 in
  let cell ~domains ~regions =
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
    let dm = Policy.Domain.create kernel in
    Policy.Domain.set_verify dm true;
    let rs = List.init regions region_of in
    let ids =
      List.init domains (fun _ ->
          let d = Policy.Domain.create_domain dm in
          let id = Policy.Domain.dom_id d in
          let rc = Policy.Domain.install_regions dm ~domain:id rs in
          if rc <> 0 then failwith (Printf.sprintf "polscale: install rc=%d" rc);
          id)
    in
    let ids = Array.of_list ids in
    let machine = Kernel.machine kernel in
    let dom i = ids.(i mod Array.length ids) in
    let check i =
      let addr = probe_of (i * 7 mod regions) in
      if not (Policy.Domain.check dm ~domain:(dom i) ~addr ~size:16 ~flags:3)
      then failwith "polscale: in-policy probe denied"
    in
    for i = 0 to 99 do check i done (* warm *) ;
    let c0 = Machine.Model.cycles machine in
    for i = 0 to probes - 1 do check i done;
    let c1 = Machine.Model.cycles machine in
    if Policy.Domain.stale_allows dm <> 0 then
      failwith "polscale: stale allow in sweep";
    let d0 = match Policy.Domain.find dm ids.(0) with
      | Some d -> d
      | None -> assert false
    in
    {
      pr_domains = domains;
      pr_regions = regions;
      pr_structure = Policy.Domain.dom_structure d0;
      pr_checks = probes;
      pr_cycles_per_check = float_of_int (c1 - c0) /. float_of_int probes;
    }
  in
  (* region axis at 1 domain; domain axis at 64 regions per domain *)
  let region_axis =
    List.map (fun r -> cell ~domains:1 ~regions:r) [ 64; 1_000; 10_000 ]
  in
  let domain_axis =
    List.map (fun d -> cell ~domains:d ~regions:64) [ 1; 16; 256 ]
  in
  let rows = region_axis @ List.tl domain_axis in
  Printf.printf "  %-8s %-8s %-10s %14s\n" "domains" "regions" "structure"
    "cycles/check";
  List.iter
    (fun r ->
      Printf.printf "  %-8d %-8d %-10s %14.1f\n" r.pr_domains r.pr_regions
        r.pr_structure r.pr_cycles_per_check)
    rows;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let cost ~domains ~regions =
    (List.find (fun r -> r.pr_domains = domains && r.pr_regions = regions) rows)
      .pr_cycles_per_check
  in
  (* gate 1a: sub-linear region scaling — 156x the regions, <= 10x the cost *)
  let c64 = cost ~domains:1 ~regions:64
  and c10k = cost ~domains:1 ~regions:10_000 in
  let region_ratio = c10k /. c64 in
  Printf.printf "\n  10k/64-region cost ratio (1 domain): %.2fx (gate: <= 10x)\n"
    region_ratio;
  if region_ratio > 10.0 then
    fail "10k-region lookup is %.1fx the 64-region cost (> 10x: not sub-linear)"
      region_ratio;
  (match List.find_opt (fun r -> r.pr_regions = 10_000) rows with
  | Some r when r.pr_structure <> "interval" ->
    fail "10k-region domain was not promoted to the interval tier"
  | _ -> ());
  (* gate 1b: sub-linear domain scaling — 256x the tenants must cost
     well under 256x. The residual growth is honest cache physics, not
     algorithm: 256 per-domain table mirrors (~400 KB) exceed the
     modeled D-cache while one domain's 1.5 KB stays resident, so the
     straddling probes eat capacity misses. Domain *resolution* itself
     is O(1) (hash index), so the curve flattens once out of cache. *)
  let d1 = cost ~domains:1 ~regions:64
  and d256 = cost ~domains:256 ~regions:64 in
  let domain_ratio = d256 /. d1 in
  Printf.printf "  256/1-domain cost ratio (64 regions): %.2fx (gate: <= 8x)\n"
    domain_ratio;
  if domain_ratio > 8.0 then
    fail "256-domain lookup is %.1fx the 1-domain cost (super-cache cross-tenant interference)"
      domain_ratio;
  (* ---- gate 2: 1k-region batched install is atomic under SMP ---- *)
  let batch_n = 1_000 in
  let kernel = Kernel.create ~require_signature:false ~seed:11 Machine.Presets.r415 in
  let pm = Policy.Policy_module.install ~capacity:2048 kernel in
  Policy.Policy_module.set_policy pm
    [ region_of 20_000; region_of 20_001 ] (* the pre-batch table *);
  let smp = Smp.System.create ~seed:11 ~params:Machine.Presets.r415 ~cpus:4 kernel pm in
  let engine = Smp.System.engine smp in
  Policy.Engine.set_verify engine true;
  let batch = List.init batch_n region_of in
  let partial = ref 0 and observed = ref 0 and installed = ref false in
  let writer () =
    let rc = Policy.Policy_module.apply pm (Policy.Policy_module.M_install batch) in
    if rc <> 0 then fail "SMP batched install refused (rc=%d)" rc;
    installed := true;
    false
  in
  let reader _ =
    let ops = ref 0 in
    fun () ->
      incr ops;
      incr observed;
      let n = Policy.Engine.count engine in
      if n <> 2 && n <> batch_n + 2 then incr partial;
      ignore
        (Policy.Engine.check engine ~addr:(probe_of 20_000) ~size:8 ~flags:3);
      !ops < 40
  in
  let steps = Array.init 4 (fun i -> if i = 0 then writer else reader i) in
  ignore (Smp.System.run smp steps);
  let rstats = Smp.Rcu.stats (Smp.System.rcu smp) in
  Printf.printf
    "\n  SMP batched install: %d regions, %d reader observations, %d partial,      %d stale, %d/%d retired\n"
    batch_n !observed !partial
    (Policy.Engine.stale_allows engine)
    rstats.Smp.Rcu.retired rstats.Smp.Rcu.publications;
  if not !installed then fail "SMP batched install never ran";
  if !partial <> 0 then
    fail "%d reader(s) observed a partially-installed batch" !partial;
  if Policy.Engine.count engine <> batch_n + 2 then
    fail "batch not fully live after the run";
  if Policy.Engine.stale_allows engine <> 0 then
    fail "%d stale allows during the batched install"
      (Policy.Engine.stale_allows engine);
  if rstats.Smp.Rcu.publications <> 1 then
    fail "batch took %d publications (must be exactly 1 generation swap)"
      rstats.Smp.Rcu.publications;
  if rstats.Smp.Rcu.retired <> rstats.Smp.Rcu.publications then
    fail "batch generation never retired";
  (* ---- gate 3: domains off => bit-identical to the tracegate goldens ---- *)
  let fig3_golden = (10629208, 17400) in
  let fig7_golden = (12538822, 17400, 731.0) in
  let f3 =
    guardpath_e2e ~label:"polscale/fig3" ~engine:Vm.Engine.Interp
      ~structure:Policy.Engine.Linear ~site_cache:false ~regions:2
      ~packets:600 ()
  in
  let f7 = fig7_cell ~technique:Testbed.Carat ~engine:Vm.Engine.Interp () in
  let f3_ok = (f3.gp_total_cycles, f3.gp_guard_checks) = fig3_golden in
  let f7_ok = f7 = fig7_golden in
  Printf.printf "  domains-off fig3 cell: %d cycles, %d checks (golden: %b)\n"
    f3.gp_total_cycles f3.gp_guard_checks f3_ok;
  let c7, k7, m7 = f7 in
  Printf.printf
    "  domains-off fig7 cell: %d cycles, %d checks, median %.1f (golden: %b)\n"
    c7 k7 m7 f7_ok;
  if not f3_ok then
    fail "1-domain (root) fig3 cell differs from the pre-domain golden";
  if not f7_ok then
    fail "1-domain (root) fig7 cell differs from the pre-domain golden";
  (* ---- artifact ---- *)
  let oc = open_out "BENCH_polscale.json" in
  let row_json r =
    Printf.sprintf
      "    {\"domains\": %d, \"regions\": %d, \"structure\": %S,        \"checks\": %d, \"cycles_per_check\": %.1f}"
      r.pr_domains r.pr_regions r.pr_structure r.pr_checks
      r.pr_cycles_per_check
  in
  Printf.fprintf oc
    "{\n\
    \  \"probes_per_cell\": %d,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"region_cost_ratio_10k_vs_64\": %.3f,\n\
    \  \"domain_cost_ratio_256_vs_1\": %.3f,\n\
    \  \"smp_batch\": {\"regions\": %d, \"partial_observations\": %d,      \"stale_allows\": %d, \"publications\": %d, \"retired\": %d},\n\
    \  \"fig3_bit_identical\": %b,\n\
    \  \"fig7_bit_identical\": %b,\n\
    \  \"gates_passed\": %b\n\
     }\n"
    probes
    (String.concat ",\n" (List.map row_json rows))
    region_ratio domain_ratio batch_n !partial
    (Policy.Engine.stale_allows engine)
    rstats.Smp.Rcu.publications rstats.Smp.Rcu.retired f3_ok f7_ok
    (!failures = []);
  close_out oc;
  print_endline "  wrote BENCH_polscale.json";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "polscale: FAIL: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* traffic: the full-duplex tail-latency benchmark. Every CPU runs
   offered load (heavy-tailed flow generator, RSS-steered onto its own
   RX ring), NAPI service, and pktgen TX concurrently; churn rows add
   CPU 0 republishing the whole policy through the RCU route mid-run.
   Gates: frame conservation, zero stale allows, RX throughput scaling,
   guarded-vs-baseline ceilings on throughput and tail latency, and the
   rx_queues=0 goldens staying bit-identical. Writes BENCH_traffic.json
   and exits nonzero on any gate failure. *)

type traffic_row = {
  tf_technique : string;
  tf_cpus : int;
  tf_churn : int;
  tf_result : Smp_testbed.duplex_result;
  tf_p50 : float;
  tf_p99 : float;
  tf_p999 : float;
}

let run_traffic () =
  section "traffic: full-duplex RX under heavy-tailed load, 1-8 CPUs";
  let count = if !quick then 250 else 800 in
  let flows = 4096 in
  let churn_every = 37 in
  let row ~tech ~cpus ~churn =
    let cfg =
      {
        Smp_testbed.default_config with
        technique = tech;
        cpus;
        rx_queues = cpus;
        seed = 23;
      }
    in
    let tb = Smp_testbed.create ~config:cfg () in
    let r = Smp_testbed.run_traffic ~count ~churn ~flows tb in
    let cdf = Stats.Cdf.of_samples r.Smp_testbed.d_latencies in
    {
      tf_technique = Testbed.technique_to_string tech;
      tf_cpus = cpus;
      tf_churn = churn;
      tf_result = r;
      tf_p50 = Stats.Cdf.quantile cdf 0.5;
      tf_p99 = Stats.Cdf.quantile cdf 0.99;
      tf_p999 = Stats.Cdf.quantile cdf 0.999;
    }
  in
  let rows =
    List.concat_map
      (fun tech ->
        List.map (fun cpus -> row ~tech ~cpus ~churn:0) [ 1; 2; 4; 8 ])
      [ Testbed.Carat; Testbed.Baseline ]
  in
  let churn_rows =
    List.map
      (fun cpus -> row ~tech:Testbed.Carat ~cpus ~churn:churn_every)
      [ 4; 8 ]
  in
  let all = rows @ churn_rows in
  Printf.printf "  %d flows, %d sends/CPU, heavy-tailed sizes (Pareto)\n\n"
    flows count;
  Printf.printf "  %-9s %4s %5s %11s %11s %7s %7s %7s %5s %5s\n" "tech"
    "cpus" "churn" "tx_pps" "rx_pps" "p50" "p99" "p999" "irqs" "drop";
  List.iter
    (fun s ->
      let r = s.tf_result in
      Printf.printf "  %-9s %4d %5d %11.0f %11.0f %7.0f %7.0f %7.0f %5d %5d\n"
        s.tf_technique s.tf_cpus s.tf_churn r.Smp_testbed.d_tx_pps
        r.Smp_testbed.d_rx_pps s.tf_p50 s.tf_p99 s.tf_p999
        r.Smp_testbed.d_rx_irqs r.Smp_testbed.d_rx_dropped)
    all;
  print_newline ();
  (* guarded-vs-baseline latency CDFs at 8 CPUs, cycles per frame *)
  let lat_of tech cpus =
    let s =
      List.find
        (fun s -> s.tf_technique = tech && s.tf_cpus = cpus && s.tf_churn = 0)
        rows
    in
    s.tf_result.Smp_testbed.d_latencies
  in
  print_string
    (Stats.Cdf.render
       ~title:"CDF of RX arrival-to-delivery latency (8 CPUs)"
       ~unit_label:"cycles"
       [
         ("carat", Stats.Cdf.of_samples (lat_of "carat" 8));
         ("baseline", Stats.Cdf.of_samples (lat_of "baseline" 8));
       ]);
  print_newline ();
  (* gates *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun s ->
      let r = s.tf_result in
      let tag =
        Printf.sprintf "%s/%dcpu/churn=%d" s.tf_technique s.tf_cpus s.tf_churn
      in
      if r.Smp_testbed.d_stale_allows <> 0 then
        fail "%s: %d stale allows (policy coherence broken under RX)" tag
          r.Smp_testbed.d_stale_allows;
      if r.Smp_testbed.d_send_errors <> 0 then
        fail "%s: %d send errors" tag r.Smp_testbed.d_send_errors;
      if
        r.Smp_testbed.d_rx_frames + r.Smp_testbed.d_rx_dropped
        <> r.Smp_testbed.d_injected
      then
        fail "%s: frame conservation broken (%d delivered + %d dropped <> %d offered)"
          tag r.Smp_testbed.d_rx_frames r.Smp_testbed.d_rx_dropped
          r.Smp_testbed.d_injected;
      if Array.length r.Smp_testbed.d_latencies <> r.Smp_testbed.d_rx_frames
      then
        fail "%s: %d latency samples for %d delivered frames" tag
          (Array.length r.Smp_testbed.d_latencies)
          r.Smp_testbed.d_rx_frames)
    all;
  let find tech cpus =
    List.find
      (fun s -> s.tf_technique = tech && s.tf_cpus = cpus && s.tf_churn = 0)
      rows
  in
  (* gate: aggregate RX throughput must scale with the queue count *)
  List.iter
    (fun tech ->
      let p1 = (find tech 1).tf_result.Smp_testbed.d_rx_pps
      and p2 = (find tech 2).tf_result.Smp_testbed.d_rx_pps
      and p4 = (find tech 4).tf_result.Smp_testbed.d_rx_pps in
      if not (p1 < p2 && p2 < p4) then
        fail "%s: RX throughput not monotone 1->2->4 (%.0f %.0f %.0f)" tech p1
          p2 p4)
    [ "carat"; "baseline" ];
  (* gate: guard overhead ceilings — guarded RX keeps most of baseline's
     throughput and stays within a bounded tail blowup *)
  List.iter
    (fun cpus ->
      let c = find "carat" cpus and b = find "baseline" cpus in
      let ratio =
        c.tf_result.Smp_testbed.d_rx_pps /. b.tf_result.Smp_testbed.d_rx_pps
      in
      Printf.printf "  %d-CPU carat/baseline rx_pps ratio: %.2f\n" cpus ratio;
      if ratio < 0.55 then
        fail "%d CPUs: guarded RX keeps only %.0f%% of baseline pps (floor 55%%)"
          cpus (100.0 *. ratio);
      if c.tf_p99 > 4.0 *. b.tf_p99 then
        fail "%d CPUs: guarded p99 %.0f vs baseline %.0f (ceiling 4x)" cpus
          c.tf_p99 b.tf_p99)
    [ 1; 2; 4; 8 ];
  (* gate: the extreme tail stays a tail, not a cliff — p99 already
     absorbs the structural waits (coalescing, descheduled queue owners),
     so p999 blowing far past it means something pathological (a clock
     domain mixed up, a stranded ring) *)
  List.iter
    (fun s ->
      if s.tf_p999 > 5.0 *. s.tf_p99 then
        fail "%s/%dcpu/churn=%d: p999 %.0f is %.1fx p99 %.0f (ceiling 5x)"
          s.tf_technique s.tf_cpus s.tf_churn s.tf_p999
          (s.tf_p999 /. s.tf_p99) s.tf_p99)
    all;
  (* gate: churn rows actually churned, every generation retired, and
     frames still flowed *)
  List.iter
    (fun s ->
      let r = s.tf_result in
      if r.Smp_testbed.d_publications = 0 then
        fail "%d-CPU churn row made no publications" s.tf_cpus;
      if r.Smp_testbed.d_retired <> r.Smp_testbed.d_publications then
        fail "%d-CPU churn row: %d of %d generations never retired" s.tf_cpus
          (r.Smp_testbed.d_publications - r.Smp_testbed.d_retired)
          r.Smp_testbed.d_publications;
      if r.Smp_testbed.d_rx_frames = 0 then
        fail "%d-CPU churn row delivered no frames" s.tf_cpus)
    churn_rows;
  (* gate: rx_queues=0 (the default everywhere else) stays bit-identical
     to the tracegate goldens — the RX subsystem must be invisible when
     off *)
  let fig3_golden = (10629208, 17400) in
  let fig7_golden = (12538822, 17400, 731.0) in
  let f3 =
    guardpath_e2e ~label:"traffic/fig3" ~engine:Vm.Engine.Interp
      ~structure:Policy.Engine.Linear ~site_cache:false ~regions:2
      ~packets:600 ()
  in
  let f7 = fig7_cell ~technique:Testbed.Carat ~engine:Vm.Engine.Interp () in
  let f3_ok = (f3.gp_total_cycles, f3.gp_guard_checks) = fig3_golden in
  let f7_ok = f7 = fig7_golden in
  Printf.printf "  rx-off fig3 cell: %d cycles, %d checks (golden: %b)\n"
    f3.gp_total_cycles f3.gp_guard_checks f3_ok;
  let c7, k7, m7 = f7 in
  Printf.printf
    "  rx-off fig7 cell: %d cycles, %d checks, median %.1f (golden: %b)\n" c7
    k7 m7 f7_ok;
  if not f3_ok then
    fail "rx_queues=0 fig3 cell differs from the pre-RX golden";
  if not f7_ok then
    fail "rx_queues=0 fig7 cell differs from the pre-RX golden";
  (* ---- artifact ---- *)
  let oc = open_out "BENCH_traffic.json" in
  let row_json s =
    let r = s.tf_result in
    Printf.sprintf
      "    {\"technique\": %S, \"cpus\": %d, \"churn\": %d, \"sent\": %d, \
       \"injected\": %d, \"rx_frames\": %d, \"rx_dropped\": %d, \
       \"tx_pps\": %.0f, \"rx_pps\": %.0f, \"lat_p50\": %.1f, \
       \"lat_p99\": %.1f, \"lat_p999\": %.1f, \"rx_irqs\": %d, \
       \"rx_polls\": %d, \"budget_exhausted\": %d, \"timer_kicks\": %d, \
       \"publications\": %d, \"retired\": %d, \"ipis\": %d, \
       \"stale_allows\": %d, \"send_errors\": %d}"
      s.tf_technique s.tf_cpus s.tf_churn r.Smp_testbed.d_sent
      r.Smp_testbed.d_injected r.Smp_testbed.d_rx_frames
      r.Smp_testbed.d_rx_dropped r.Smp_testbed.d_tx_pps
      r.Smp_testbed.d_rx_pps s.tf_p50 s.tf_p99 s.tf_p999
      r.Smp_testbed.d_rx_irqs r.Smp_testbed.d_rx_polls
      r.Smp_testbed.d_budget_exhausted r.Smp_testbed.d_timer_kicks
      r.Smp_testbed.d_publications r.Smp_testbed.d_retired
      r.Smp_testbed.d_ipis r.Smp_testbed.d_stale_allows
      r.Smp_testbed.d_send_errors
  in
  Printf.fprintf oc
    "{\n\
    \  \"flows\": %d,\n\
    \  \"count_per_cpu\": %d,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"churn_rows\": [\n%s\n  ],\n\
    \  \"fig3_bit_identical\": %b,\n\
    \  \"fig7_bit_identical\": %b,\n\
    \  \"gates_passed\": %b\n\
     }\n"
    flows count
    (String.concat ",\n" (List.map row_json rows))
    (String.concat ",\n" (List.map row_json churn_rows))
    f3_ok f7_ok (!failures = []);
  close_out oc;
  print_endline "  wrote BENCH_traffic.json";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "traffic: FAIL: %s\n") !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* san: the memory sanitizer's pay-for-what-you-use contract and its
   detection gates.

   Gate 1 — off is free: fig3/fig7-shaped cells with the sanitizer off
   must stay bit-identical to the tracegate goldens (same cycles, same
   guard checks); with it on, the guard decisions are unchanged and the
   cycle overhead is bounded.
   Gate 2 — at-access attribution: the sanitize fault campaign must
   report every memory-corruption class at the faulting access with
   allocation attribution under carat/panic, and the race detector must
   flag every seeded cross-CPU race.
   Gate 3 — the happens-before fixture suite: the clean RCU / NAPI /
   rebuild workloads stay silent, the seeded fixtures are flagged.
   Gate 4 — Alloc_lint: the seeded double-free and use-after-free are
   caught and the driver-scale KIR lints with zero errors.
   Writes BENCH_san.json and exits nonzero on any gate failure. *)

(* fig7_cell with the sanitizer enabled on the cell's kernel: same
   seeds, same packet counts; returns the sanitize-on cycle count plus
   the decision counters that must not move *)
let san_fig7_cell () =
  let config =
    {
      Testbed.default_config with
      machine = Machine.Presets.r350;
      technique = Testbed.Carat;
      stall_prob = 0.0004;
      engine = Vm.Engine.Interp;
    }
  in
  let tb = Testbed.create ~config () in
  Kernel.enable_sanitizer tb.Testbed.kernel;
  let machine = Testbed.machine tb in
  ignore
    (Testbed.run_pktgen tb
       { Net.Pktgen.default_config with count = 200; size = 128; seed = 999 });
  Policy.Engine.reset_stats (Policy.Policy_module.engine tb.Testbed.policy_module);
  let c0 = Machine.Model.cycles machine in
  ignore
    (Testbed.run_pktgen tb
       { Net.Pktgen.default_config with count = 600; size = 128; seed = 5 });
  let c1 = Machine.Model.cycles machine in
  let st =
    Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module)
  in
  (c1 - c0, st.Policy.Engine.checks, st.Policy.Engine.denied,
   Kernel.san_report_count tb.Testbed.kernel)

(* the seeded Alloc_lint fixtures: a must-double-free and a
   must-use-after-free (the UAF pointer is null-checked so the only
   findings are the seeded errors) *)
let build_alloc_bugs () =
  let b = Kir.Builder.create "allocbugs" in
  let open Kir.Types in
  ignore (Kir.Builder.start_func b "df" ~params:[] ~ret:None);
  (match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
  | Some p ->
    Kir.Builder.call_unit b "kfree" [ p ];
    Kir.Builder.call_unit b "kfree" [ p ]
  | None -> ());
  Kir.Builder.ret b None;
  ignore (Kir.Builder.start_func b "uaf" ~params:[] ~ret:(Some I64));
  (match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
  | Some p ->
    ignore (Kir.Builder.icmp b Eq I64 p (Imm 0));
    Kir.Builder.call_unit b "kfree" [ p ];
    let v = Kir.Builder.load b I64 p in
    Kir.Builder.ret b (Some v)
  | None -> Kir.Builder.ret b None);
  Kir.Builder.modul b

let run_san () =
  section "san: sanitizer pay-for-what-you-use, at-access attribution, races";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* ---- gate 1: sanitizer off => bit-identical to the goldens ---- *)
  let fig3_golden = (10629208, 17400) in
  let fig7_golden = (12538822, 17400, 731.0) in
  let f3 =
    guardpath_e2e ~label:"fig3/san-off" ~engine:Vm.Engine.Interp
      ~structure:Policy.Engine.Linear ~site_cache:false ~regions:2
      ~packets:600 ()
  in
  let c7, k7, m7 = fig7_cell ~technique:Testbed.Carat ~engine:Vm.Engine.Interp () in
  let f3_ok = (f3.gp_total_cycles, f3.gp_guard_checks) = fig3_golden in
  let f7_ok = (c7, k7, m7) = fig7_golden in
  Printf.printf "  san-off fig3 cell: %d cycles, %d checks (golden: %b)\n"
    f3.gp_total_cycles f3.gp_guard_checks f3_ok;
  Printf.printf
    "  san-off fig7 cell: %d cycles, %d checks, median %.1f (golden: %b)\n" c7
    k7 m7 f7_ok;
  if not f3_ok then
    fail "sanitizer-off fig3 cell differs from the pre-sanitizer golden";
  if not f7_ok then
    fail "sanitizer-off fig7 cell differs from the pre-sanitizer golden";
  let sc7, sk7, sd7, s_reports = san_fig7_cell () in
  let overhead = float_of_int (sc7 - c7) /. float_of_int c7 in
  Printf.printf
    "  san-on  fig7 cell: %d cycles (+%.1f%%), %d checks, %d denied, %d \
     reports\n"
    sc7 (100.0 *. overhead) sk7 sd7 s_reports;
  if sk7 <> k7 then fail "sanitizer on changed the guard-check count";
  if sd7 <> 0 then fail "sanitizer on changed guard decisions (denies)";
  if s_reports <> 0 then fail "clean fig7 run produced sanitizer reports";
  if sc7 <= c7 then fail "sanitizer on charged no shadow-check cycles";
  if overhead > 0.5 then
    fail "sanitizer overhead %.1f%% above the 50%% bound" (100.0 *. overhead);
  (* ---- gate 2: the sanitize campaign's at-access attribution ---- *)
  (* faults are round-robined across the classes, so at least one full
     round keeps every at-access gate non-vacuous *)
  let nclasses = List.length Fault.Inject.all_classes in
  let faults =
    match !fault_trials with
    | Some n -> max n nclasses
    | None -> if !quick then nclasses else 2 * nclasses
  in
  let report =
    Fault.Campaign.run ~sanitize:true
      { Fault.Campaign.default_config with faults }
  in
  print_string (Fault.Campaign.render report);
  let camp_fails = Fault.Campaign.check report in
  List.iter (fun m -> fail "campaign: %s" m) camp_fails;
  let panic = Fault.Harness.Carat Policy.Policy_module.Panic in
  List.iter
    (fun cls ->
      if (Fault.Campaign.cell report ~cls ~mode:panic).Fault.Campaign.injected = 0
      then
        fail "campaign: %s got no injections (at-access gate vacuous)"
          (Fault.Inject.cls_to_string cls))
    Fault.Inject.all_classes;
  let panic_t = Fault.Campaign.totals report ~mode:panic in
  (* ---- gate 3: the race-detector fixture suite ---- *)
  let suites = Race_suites.all () in
  print_string (Race_suites.render suites);
  if not (Race_suites.pass suites) then fail "race fixture suite failed";
  (* ---- gate 4: Alloc_lint seeded bugs + clean driver-scale KIR ---- *)
  let bugs = Analysis.Alloc_lint.lint (build_alloc_bugs ()) in
  let has code =
    List.exists (fun f -> f.Analysis.Kir_lint.code = code) bugs
  in
  Printf.printf "  alloc-lint seeded fixture: %d finding(s)\n"
    (List.length bugs);
  List.iter
    (fun f -> Printf.printf "    %s\n" (Analysis.Kir_lint.finding_to_string f))
    bugs;
  if not (has "L-double-free") then
    fail "alloc lint missed the seeded double-free";
  if not (has "L-use-after-free") then
    fail "alloc lint missed the seeded use-after-free";
  let driver =
    Nic.Driver_gen.generate ~module_scale:12 ~rx_queues:2
      ~tx_queues:Nic.Regs.max_tx_queues ()
  in
  let driver_findings = Analysis.Alloc_lint.lint driver in
  let driver_errs = Analysis.Kir_lint.errors driver_findings in
  Printf.printf "  alloc-lint driver-scale KIR: %d error(s), %d warning(s)\n"
    (List.length driver_errs)
    (List.length (Analysis.Kir_lint.warnings driver_findings));
  if driver_errs <> [] then
    fail "alloc lint false positives on the clean driver KIR";
  (* ---- artifact ---- *)
  let suite_json v =
    Printf.sprintf
      "    {\"name\": \"%s\", \"expect_races\": %b, \"reports\": %d, \
       \"pass\": %b}"
      v.Race_suites.v_name v.Race_suites.v_expect_races
      v.Race_suites.v_reports v.Race_suites.v_pass
  in
  let oc = open_out "BENCH_san.json" in
  Printf.fprintf oc
    "{\n\
    \  \"fig3_bit_identical\": %b,\n\
    \  \"fig7_bit_identical\": %b,\n\
    \  \"san_on_overhead\": %.4f,\n\
    \  \"campaign_faults_per_cell\": %d,\n\
    \  \"campaign_san_hits\": %d,\n\
    \  \"campaign_san_total\": %d,\n\
    \  \"campaign_race_hits\": %d,\n\
    \  \"campaign_race_total\": %d,\n\
    \  \"race_suites\": [\n%s\n  ],\n\
    \  \"alloc_lint_seeded_findings\": %d,\n\
    \  \"alloc_lint_driver_errors\": %d,\n\
    \  \"gates_passed\": %b\n\
     }\n"
    f3_ok f7_ok overhead faults panic_t.Fault.Campaign.san_hits
    panic_t.Fault.Campaign.san_total panic_t.Fault.Campaign.race_hits
    panic_t.Fault.Campaign.race_total
    (String.concat ",\n" (List.map suite_json suites))
    (List.length bugs) (List.length driver_errs) (!failures = []);
  close_out oc;
  print_endline "  wrote BENCH_san.json";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "san: FAIL: %s\n") (List.rev !failures);
    exit 1
  end

(* ------------------------------------------------------------------ *)

let all_figs =
  [
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("guards", run_guards);
    ("ablation-policy", run_ablation_policy);
    ("ablation-opt", run_ablation_opt);
    ("ablation-mechanism", run_mechanism);
    ("guardpath", run_guardpath);
    ("guardopt", run_guardopt);
    ("tracegate", run_tracegate);
    ("smpscale", run_smpscale);
    ("polscale", run_polscale);
    ("traffic", run_traffic);
    ("selfheal", run_selfheal);
    ("faults", run_faults);
    ("san", run_san);
    ("certify", run_certify);
    ("bechamel", run_bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse = function
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--engine" :: e :: rest ->
      (match Vm.Engine.kind_of_string e with
      | Some k -> engine := k
      | None ->
        Printf.eprintf "--engine expects interp or compiled, got %s\n" e;
        exit 1);
      parse rest
    | "--sanitize" :: rest ->
      fault_sanitize := true;
      parse rest
    | "--trials" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> fault_trials := Some n
      | _ ->
        Printf.eprintf "--trials expects a positive integer, got %s\n" n;
        exit 1);
      parse rest
    | a :: rest -> a :: parse rest
    | [] -> []
  in
  let args = parse args in
  print_endline banner;
  print_endline
    "regenerating the paper's evaluation from the simulation (seeded,\n\
     deterministic); absolute numbers are model estimates — shapes and\n\
     relative effects are the reproduction target";
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) all_figs
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all_figs with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown target %s; known: %s\n" name
            (String.concat " " (List.map fst all_figs));
          exit 1)
      names
