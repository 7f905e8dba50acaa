(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation (§4.2) from the simulation, prints the same
   rows/series the paper reports, and runs a Bechamel microbenchmark
   suite over the hot primitives.

   Usage:
     dune exec bench/main.exe             # everything
     dune exec bench/main.exe fig3        # one figure
     dune exec bench/main.exe -- --quick  # reduced trial counts

   Figures: fig3 fig4 fig5 fig6 fig7; tables/ablations: guards,
   ablation-policy, ablation-opt, ablation-mechanism; microbenchmark:
   bechamel; fault campaign: faults. Gated targets, each writing
   BENCH_<target>.json through Report and exiting 1 on a failed gate:
   tracegate, guardpath, guardopt, smpscale, polscale, traffic,
   selfheal, san, certify.
   Flags: --quick, --engine interp|compiled (execution engine for the
   fig targets), --trials N and --sanitize (faults). *)

open Carat_kop

let line = String.make 72 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

let quick = ref false
let fault_trials = ref None
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
  let h_of xs =
    Stats.Hist.of_samples ~lo:400.0 ~hi:1300.0 ~bins:18
      (Array.map float_of_int xs)
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
    \  is the right default"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: wall-clock cost of the hot simulator
   primitives, one Test.make per reproduced table/figure plus core
   primitives. *)

let bechamel_tests () =
  let open Bechamel in
  (* policy check: the guard's inner loop, per structure *)
  let guard_test kind n =
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
    let a =
      Result.get_ok
        (Policy.Ablation.build kernel kind
           (Policy.Region.padding (n - 1)
           @ [
               Policy.Region.v ~tag:"kernel" ~base:Kernel.Layout.kernel_base
                 ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_rw ();
             ]))
    in
    let addr = Kernel.Layout.direct_map_base + 0x400 in
    Test.make
      ~name:(Printf.sprintf "guard/%s/n=%d" (Policy.Ablation.to_string kind) n)
      (Staged.stage (fun () ->
           ignore (Policy.Ablation.check a ~addr ~size:8 ~flags:1)))
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
      guard_test Policy.Ablation.Linear 2;
      guard_test Policy.Ablation.Linear 64;
      guard_test Policy.Ablation.Sorted 64;
      guard_test Policy.Ablation.Splay 64;
      guard_test Policy.Ablation.Cached 64;
      guard_test Policy.Ablation.Bloom 64;
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
(* One pktgen cell, the measurement under guardpath, guardopt, the
   golden cells and san: a fresh Testbed on [config] (linear table, the
   default), [prepare] on it, a 200-packet warm-up at seed 999 (compile
   cache, simulated caches, predictor, inline caches), the decision
   stats reset, then [packets] 128-byte packets at [seed]. *)

type cell = {
  tb : Testbed.t;
  sent : int;
  latencies : int array;
  cycles : int;  (** simulated, across the measured packets *)
  ns_per_packet : float;  (** host wall-clock *)
  checks : int;
  allowed : int;
  denied : int;
}

let pktgen_cell ?(prepare = ignore) ~packets ~seed config =
  let tb = Testbed.create ~config () in
  prepare tb;
  let send count seed =
    Testbed.run_pktgen tb
      { Net.Pktgen.default_config with count; size = 128; seed }
  in
  ignore (send 200 999);
  let engine = Policy.Policy_module.engine tb.Testbed.policy_module in
  Policy.Engine.reset_stats engine;
  let machine = Testbed.machine tb in
  let c0 = Machine.Model.cycles machine in
  let t0 = Unix.gettimeofday () in
  let r = send packets seed in
  let t1 = Unix.gettimeofday () in
  let st = Policy.Engine.stats engine in
  {
    tb;
    sent = r.Net.Pktgen.sent;
    latencies = r.Net.Pktgen.latencies;
    cycles = Machine.Model.cycles machine - c0;
    ns_per_packet = (t1 -. t0) *. 1e9 /. float_of_int packets;
    checks = st.Policy.Engine.checks;
    allowed = st.Policy.Engine.allowed;
    denied = st.Policy.Engine.denied;
  }

(* the two measured set-ups, guarded (the default technique): fig3's
   slow R415 and fig7's R350, with their flow-control stall rates *)
let fig3_setup, fig7_setup =
  let setup machine stall_prob =
    { Testbed.default_config with machine; stall_prob }
  in
  (setup Machine.Presets.r415 0.0002, setup Machine.Presets.r350 0.0004)

(* ------------------------------------------------------------------ *)
(* The fig3/fig7 goldens, recorded before the trace layer existed: the
   fig3-shaped cell (two regions, 600 packets at seed 7) gives simulated
   cycles and guard checks, the fig7-shaped cell (exactly
   Experiments.fig7's loop at 600 packets, seed 5) adds the median
   sendmsg latency. Every subsystem that must cost nothing when off
   (tracing, domains, RX, the sanitizer) is checked against them. *)

let fig3_golden = (10629208, 17400)
let fig7_golden = (12538822, 17400, 731.0)

let golden_cells engine =
  let f3 = pktgen_cell ~packets:600 ~seed:7 { fig3_setup with engine } in
  let f7 = pktgen_cell ~packets:600 ~seed:5 { fig7_setup with engine } in
  let median = Stats.Summary.median (Array.map float_of_int f7.latencies) in
  ((f3.cycles, f3.checks), (f7.cycles, f7.checks, median))

(* Check [cells] against the goldens, one failure per cell that drifted
   ([off] names what is switched off); returns the two report fields. *)
let check_goldens rep ~off (f3, f7) =
  let f3_ok = f3 = fig3_golden and f7_ok = f7 = fig7_golden in
  if not f3_ok then Report.fail rep "%s fig3 cell differs from the golden" off;
  if not f7_ok then Report.fail rep "%s fig7 cell differs from the golden" off;
  Report.[ bool "fig3_bit_identical" f3_ok; bool "fig7_bit_identical" f7_ok ]

(* polscale, traffic and san: the interpreter's golden cells with their
   subsystem off, printed and checked *)
let off_goldens rep ~off =
  let ((c3, k3), (c7, k7, m7)) as cells = golden_cells Vm.Engine.Interp in
  Printf.printf
    "  %s fig3 cell: %d cycles, %d checks (golden: %b)\n\
    \  %s fig7 cell: %d cycles, %d checks, median %.1f (golden: %b)\n"
    off c3 k3 ((c3, k3) = fig3_golden) off c7 k7 m7 ((c7, k7, m7) = fig7_golden);
  (cells, check_goldens rep ~off cells)

(* tracegate: the zero-cost-off contract of the trace layer. With
   tracing disabled (the default) both engines must reproduce the
   goldens bit for bit. *)
let run_tracegate () =
  section "tracegate: tracing off must be simulation-invisible (bit-identical)";
  let rep = Report.create "tracegate" in
  let ((c3, k3), (c7, k7, m7)) as interp = golden_cells Vm.Engine.Interp in
  let compiled = golden_cells Vm.Engine.Compiled in
  Printf.printf
    "  fig3-shaped (R415, 2 regions, 600 pkts): %d cycles, %d checks\n\
    \  fig7-shaped (R350, 2 regions, 600 pkts): %d cycles, %d checks, median \
     %.1f\n"
    c3 k3 c7 k7 m7;
  if fst interp <> fst compiled then Report.fail rep "fig3 engines disagree";
  if snd interp <> snd compiled then Report.fail rep "fig7 engines disagree";
  let golden = check_goldens rep ~off:"tracing-off" interp in
  if interp = (fig3_golden, fig7_golden) then
    print_endline "  tracing off is bit-identical to the pre-trace goldens: yes";
  Report.(
    finish rep
      ([
         obj "fig3" [ int "cycles" c3; int "checks" k3 ];
         obj "fig7" [ int "cycles" c7; int "checks" k7; num "median" m7 ];
         bool "engines_agree" (interp = compiled);
       ]
      @ golden))

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
   - check-only: the bare guard check across policy structures, plus
     the linear table behind the site inline cache, with a
     steady-state Gc.minor_words assertion proving the fast path does
     not allocate. *)

(* [n] fast-path checks of one conforming address over eight guard
   sites, for guardpath's allocation audit and selfheal's tier costs *)
let hot_checks engine n =
  let addr = Kernel.Layout.direct_map_base + 0x400 in
  for i = 0 to n - 1 do
    ignore
      (Policy.Engine.check_fast engine ~site:(i land 7) ~addr ~size:8
         ~flags:Policy.Region.prot_read)
  done

(* Steady-state allocation on the inline-cache hit path must be zero:
   returns minor words allocated across [n] hot checks (measurement
   boxes excluded by sampling outside the loop). *)
let guardpath_alloc_words ~n =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
  let engine = Policy.Engine.create ~capacity:64 kernel in
  Policy.Engine.set_policy engine Policy.Region.kernel_only;
  Policy.Engine.enable_site_cache engine;
  hot_checks engine 1000;
  let w0 = Gc.minor_words () in
  hot_checks engine n;
  Gc.minor_words () -. w0

let guardpath_check_only ~checks =
  let bench kind ic =
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
    let policy =
      Policy.Region.padding 62
      @ [
          Policy.Region.v ~tag:"kernel" ~base:Kernel.Layout.kernel_base
            ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_rw ();
        ]
    in
    let addr i = Kernel.Layout.direct_map_base + 0x400 + (i * 8 mod 256) in
    let flags = Policy.Region.prot_read in
    let probe =
      if ic then begin
        let engine = Policy.Engine.create ~capacity:64 kernel in
        Policy.Engine.set_policy engine policy;
        Policy.Engine.enable_site_cache engine;
        fun i ->
          ignore
            (Policy.Engine.check_fast engine ~site:(i land 7) ~addr:(addr i)
               ~size:8 ~flags)
      end
      else
        let a = Result.get_ok (Policy.Ablation.build kernel kind policy) in
        fun i -> ignore (Policy.Ablation.check a ~addr:(addr i) ~size:8 ~flags)
    in
    for i = 0 to 999 do
      probe i
    done;
    let t0 = Unix.gettimeofday () in
    for i = 0 to checks - 1 do
      probe i
    done;
    let t1 = Unix.gettimeofday () in
    ( Policy.Ablation.to_string kind ^ (if ic then "+ic" else ""),
      (t1 -. t0) *. 1e9 /. float_of_int checks )
  in
  [
    bench Policy.Ablation.Linear false;
    bench Policy.Ablation.Sorted false;
    bench Policy.Ablation.Splay false;
    bench Policy.Ablation.Bloom false;
    bench Policy.Ablation.Linear true;
  ]

let run_guardpath () =
  section "guardpath: wall-clock of the guard fast path (host ns, 64 regions)";
  let rep = Report.create "guardpath" in
  let packets = if !quick then 1500 else 4000 in
  let e2e ?(trace = false) ?(policy = Policy.Region.kernel_only_padded 64)
      label engine site_cache =
    ( label,
      pktgen_cell ~packets ~seed:7
        { fig3_setup with engine; site_cache; trace; policy } )
  in
  let rows =
    Vm.Engine.
      [
        e2e "interp+linear (seed)" Interp false;
        e2e "compiled+linear" Compiled false;
        e2e "interp+linear+ic" Interp true;
        e2e "compiled+linear+ic" Compiled true;
        (* the observability tax: same configuration with the carat_trace
           ring recording every guard event *)
        e2e ~trace:true "compiled+linear+ic+trace" Compiled true;
      ]
  in
  let base_ns = (snd (List.hd rows)).ns_per_packet in
  let cycles_pp c = float_of_int c.cycles /. float_of_int packets in
  Printf.printf "  %-24s %14s %10s %16s %14s\n" "configuration" "ns/packet"
    "speedup" "sim cycles/pkt" "guard checks";
  List.iter
    (fun (label, c) ->
      Printf.printf "  %-24s %14.0f %9.2fx %16.0f %14d\n" label c.ns_per_packet
        (base_ns /. c.ns_per_packet) (cycles_pp c) c.checks)
    rows;
  (* fig3's minimal two-region policy, for context: the table is so
     small that the linear walk is nearly free, which is why the paper's
     production table scale above is the design point worth measuring *)
  let ctx =
    let policy = Policy.Region.kernel_only in
    Vm.Engine.
      [
        e2e ~policy "interp+linear (2 regions)" Interp false;
        e2e ~policy "compiled+linear+ic (2 regions)" Compiled true;
      ]
  in
  List.iter
    (fun (label, c) ->
      Printf.printf "  %-30s %6.0f ns/packet  %12.0f sim cycles/pkt\n" label
        c.ns_per_packet (cycles_pp c))
    ctx;
  List.iter (fun (_, c) -> assert (c.sent = packets)) (rows @ ctx);
  (* engine equivalence sanity on the spot: same policy tier => same
     simulated cycles and guard counts regardless of engine *)
  let by label = List.assoc label rows in
  let agree a b =
    (by a).cycles = (by b).cycles && (by a).checks = (by b).checks
  in
  if
    agree "interp+linear (seed)" "compiled+linear"
    && agree "interp+linear+ic" "compiled+linear+ic"
  then print_endline "  engines agree on simulated cycles and guard counts: yes"
  else Report.fail rep "engines disagree on simulated cycles or guard counts";
  (* recording must tax cycles only, never decisions: the traced run sees
     exactly the guard traffic of its untraced twin *)
  let traced = by "compiled+linear+ic+trace" in
  let untraced = by "compiled+linear+ic" in
  let decisions_unchanged = traced.checks = untraced.checks in
  let trace_overhead = cycles_pp traced -. cycles_pp untraced in
  if decisions_unchanged then
    Printf.printf
      "  trace recording overhead: %.1f sim cycles/packet (decisions unchanged)\n"
      trace_overhead
  else
    Report.fail rep "tracing changed the guard-check count (%d vs %d)"
      traced.checks untraced.checks;
  let words = guardpath_alloc_words ~n:100_000 in
  Printf.printf "  minor words allocated across 100k hot checks: %.0f\n" words;
  if words > 64.0 then Report.fail rep "guard fast path allocates";
  let checks = if !quick then 20_000 else 100_000 in
  let co = guardpath_check_only ~checks in
  Printf.printf "\n  bare check, 64 regions, conforming probes (host ns/check):\n";
  List.iter (fun (l, ns) -> Printf.printf "  %-22s %10.1f\n" l ns) co;
  let speedup = base_ns /. (by "compiled+linear+ic").ns_per_packet in
  Printf.printf "\n  compiled+linear+ic vs seed interp+linear: %.2fx\n" speedup;
  if speedup < 3.0 then
    Report.fail rep "compiled+linear+ic is below 3x over the seed path";
  let row (label, c) =
    Report.
      [
        str "label" label; num "ns_per_packet" c.ns_per_packet;
        num "speedup" (base_ns /. c.ns_per_packet);
        num "sim_cycles_per_packet" (cycles_pp c); int "guard_checks" c.checks;
      ]
  in
  Report.(
    finish rep
      [
        int "packets" packets; table "e2e" row rows;
        table "context_two_regions" row ctx;
        obj "check_only_ns" (List.map (fun (l, ns) -> num l ns) co);
        num "minor_words_per_100k_checks" words;
        num "speedup_compiled_ic_vs_seed" speedup;
        num "trace_overhead_sim_cycles_per_packet" trace_overhead;
        bool "trace_decisions_unchanged" decisions_unchanged;
      ])

(* ------------------------------------------------------------------ *)

(* guardopt: what each guard-optimization tier buys at run time.

   For the fig3- and fig7-shaped presets (compiled engine, linear table
   + site inline cache, the production 64-region policy) the same seeded
   packet workload runs under Baseline (unguarded) and Carat at --opt
   none/basic/aggressive. The baseline run on identical seeds isolates
   the guard-attributable cycles: attr = carat cycles/pkt - baseline
   cycles/pkt. Context rows: the seed linear table, and the 4-CPU
   multi-queue build. Gates: on at least one fig3/fig7 preset the
   aggressive tier must cut dynamic guard executions >= 25% and improve
   guard-attributable cycles/pkt >= 1.15x, with zero certifier
   rollbacks, zero denies, and an engine-independent decision stream. *)

type go_row = {
  go_preset : string;
  go_level : string;  (* "baseline" or an opt level *)
  go_cell : cell;
}

(* [level] None is the unguarded baseline *)
let guardopt_cell ~preset ~setup ~site_cache ~packets
    ~(engine : Vm.Engine.kind) level =
  let technique, guard_opt, go_level =
    match level with
    | None -> (Testbed.Baseline, Passes.Pipeline.O_none, "baseline")
    | Some o -> (Testbed.Carat, o, Passes.Pipeline.opt_level_to_string o)
  in
  let policy = Policy.Region.kernel_only_padded 64 in
  {
    go_preset = preset;
    go_level;
    go_cell =
      pktgen_cell ~packets ~seed:7
        { setup with technique; engine; site_cache; guard_opt; policy };
  }

(* 0 for the baseline, whose driver is never guarded *)
let static_guards g =
  Passes.Guard_injection.count_guards g.go_cell.tb.Testbed.driver_kir

let run_guardopt () =
  section "guardopt: certified guard optimizer vs the unoptimized pipeline";
  let rep = Report.create "guardopt" in
  let packets = if !quick then 200 else 600 in
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
            if k = "restored" then Report.fail rep "optimizer rolled back: %s" v
            else Printf.printf "  optimizer: %s = %s\n" k v)
          r.Passes.Pass.remarks)
    remarks;
  (match Analysis.Certify.validate m with
  | Ok () -> print_endline "  aggressive driver re-validates: yes"
  | Error e ->
    Report.fail rep "aggressive driver certificate: %s"
      (Analysis.Certify.validate_error_to_string e));
  (* 1: the gate presets, all tiers under identical seeds *)
  let levels =
    None :: List.map (fun o -> Some o) Passes.Pipeline.all_opt_levels
  in
  let presets =
    [
      ("fig3/compiled+linear+ic", fig3_setup);
      ("fig7/compiled+linear+ic", fig7_setup);
    ]
  in
  let rows =
    List.concat_map
      (fun (preset, setup) ->
        List.map
          (guardopt_cell ~preset ~setup ~site_cache:true ~packets
             ~engine:Vm.Engine.Compiled)
          levels)
      presets
  in
  (* context: the seed linear table, where every spared check skips a
     full region scan *)
  let linear_rows =
    List.map
      (guardopt_cell ~preset:"fig3/compiled+linear" ~setup:fig3_setup
         ~site_cache:false ~packets ~engine:Vm.Engine.Compiled)
      [ Some Passes.Pipeline.O_none; Some Passes.Pipeline.O_aggressive ]
  in
  (* engine parity: the optimized module's decision stream and simulated
     cycles must not depend on the execution engine *)
  let parity_interp =
    guardopt_cell ~preset:"fig3/interp+linear+ic" ~setup:fig3_setup
      ~site_cache:true ~packets ~engine:Vm.Engine.Interp
      (Some Passes.Pipeline.O_aggressive)
  in
  let all_rows = rows @ linear_rows in
  let per_packet n = float_of_int n /. float_of_int packets in
  let cycles_pp g = per_packet g.go_cell.cycles in
  let checks_pp g = per_packet g.go_cell.checks in
  Printf.printf "\n  %-26s %-10s %7s %9s %9s %7s %11s\n" "preset" "level"
    "static" "checks" "chk/pkt" "denied" "cycles/pkt";
  List.iter
    (fun g ->
      Printf.printf "  %-26s %-10s %7d %9d %9.1f %7d %11.1f\n" g.go_preset
        g.go_level (static_guards g) g.go_cell.checks (checks_pp g)
        g.go_cell.denied (cycles_pp g))
    (all_rows @ [ parity_interp ]);
  let cell preset level =
    List.find (fun g -> g.go_preset = preset && g.go_level = level) all_rows
  in
  (* decision-stream gates: nothing denied, every packet sent, every
     check on a benign workload an allow *)
  List.iter
    (fun g ->
      let c = g.go_cell in
      if c.denied <> 0 then
        Report.fail rep "%s/%s: %d denies on a benign workload" g.go_preset
          g.go_level c.denied;
      if c.sent <> packets then
        Report.fail rep "%s/%s: sent %d of %d packets" g.go_preset g.go_level
          c.sent packets;
      if c.checks <> c.allowed then
        Report.fail rep "%s/%s: checks <> allows" g.go_preset g.go_level)
    (all_rows @ [ parity_interp ]);
  (let c = (cell "fig3/compiled+linear+ic" "aggressive").go_cell in
   let p = parity_interp.go_cell in
   if (p.checks, p.cycles) <> (c.checks, c.cycles) then
     Report.fail rep
       "engines disagree on the optimized module (checks or cycles)");
  (* the optimization gates on the fig3/fig7 presets *)
  let gate_results =
    List.map
      (fun (preset, _) ->
        let base = cell preset "baseline" in
        let n = cell preset "none" in
        let a = cell preset "aggressive" in
        let reduction =
          1.0
          -. (float_of_int a.go_cell.checks /. float_of_int n.go_cell.checks)
        in
        let attr l = cycles_pp l -. cycles_pp base in
        let attr_improvement = attr n /. attr a in
        Printf.printf
          "\n  %s: checks %d -> %d (%.1f%% fewer), guard-attributable \
           cycles/pkt %.1f -> %.1f (%.2fx)\n"
          preset n.go_cell.checks a.go_cell.checks (100.0 *. reduction)
          (attr n) (attr a) attr_improvement;
        (preset, reduction, attr_improvement))
      presets
  in
  if
    not
      (List.exists
         (fun (_, red, imp) -> red >= 0.25 && imp >= 1.15)
         gate_results)
  then
    Report.fail rep
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
  then Report.fail rep "smp rows denied on a benign workload";
  if smp_aggr_st.Policy.Engine.checks >= smp_none_st.Policy.Engine.checks then
    Report.fail rep "smp 4-cpu: aggressive did not reduce dynamic checks";
  if smp_none.Smp_testbed.total_sent <> smp_aggr.Smp_testbed.total_sent then
    Report.fail rep "smp 4-cpu: sent counts differ between tiers";
  print_newline ();
  let row g =
    let c = g.go_cell in
    Report.
      [
        str "preset" g.go_preset; str "level" g.go_level;
        int "static_guards" (static_guards g); int "sent" c.sent;
        int "checks" c.checks; int "allowed" c.allowed; int "denied" c.denied;
        int "total_cycles" c.cycles; num "cycles_per_packet" (cycles_pp g);
        num "checks_per_packet" (checks_pp g);
      ]
  in
  let gate (preset, red, imp) =
    Report.
      [
        str "preset" preset; num "check_reduction" red;
        num "attr_cycles_improvement" imp;
      ]
  in
  Report.(
    finish rep
      [
        int "packets" packets; table "rows" row all_rows;
        table "engine_parity_row" row [ parity_interp ];
        table "gates" gate gate_results;
        obj "smp_4cpu"
          [
            int "checks_none" smp_none_st.Policy.Engine.checks;
            int "checks_aggressive" smp_aggr_st.Policy.Engine.checks;
            num "pps_none" smp_none.Smp_testbed.pps;
            num "pps_aggressive" smp_aggr.Smp_testbed.pps;
          ];
      ])

(* ------------------------------------------------------------------ *)

(* smpscale: guarded-vs-unguarded send throughput at 1/2/4/8 CPUs on both
   machine presets, plus an update-storm row (concurrent policy churn
   through the SMP write route under load), with the scaling/coherence
   gates. *)

type smp_row = {
  sr_machine : string;
  sr_technique : string;
  sr_cpus : int;
  sr_storm : int;
  sr_result : Smp_testbed.result;
}

let run_smpscale () =
  section "smpscale: multi-queue send throughput scaling, 1-8 CPUs";
  let rep = Report.create "smpscale" in
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
    {
      sr_machine = mname;
      sr_technique = Testbed.technique_to_string tech;
      sr_cpus = cpus;
      sr_storm = storm;
      sr_result = Smp_testbed.run_pktgen ~count ~storm tb;
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
  Printf.printf "  %-6s %-9s %5s %6s %12s %9s %6s %6s\n" "mach" "tech"
    "cpus" "storm" "pps" "speedup" "pubs" "stale";
  let pps_of mname tech cpus =
    (List.find
       (fun s -> s.sr_machine = mname && s.sr_technique = tech && s.sr_cpus = cpus)
       rows)
      .sr_result.Smp_testbed.pps
  in
  List.iter
    (fun s ->
      let r = s.sr_result in
      Printf.printf "  %-6s %-9s %5d %6d %12.0f %8.2fx %6d %6d\n"
        s.sr_machine s.sr_technique s.sr_cpus s.sr_storm r.Smp_testbed.pps
        (r.Smp_testbed.pps /. pps_of s.sr_machine s.sr_technique 1)
        r.Smp_testbed.publications r.Smp_testbed.stale_allows)
    all;
  (* gates *)
  List.iter
    (fun s ->
      if s.sr_result.Smp_testbed.stale_allows <> 0 then
        Report.fail rep "%s/%s/%d: %d stale allows (policy coherence broken)"
          s.sr_machine s.sr_technique s.sr_cpus
          s.sr_result.Smp_testbed.stale_allows;
      if s.sr_result.Smp_testbed.send_errors <> 0 then
        Report.fail rep "%s/%s/%d: %d send errors" s.sr_machine s.sr_technique
          s.sr_cpus s.sr_result.Smp_testbed.send_errors)
    all;
  List.iter
    (fun (mname, _) ->
      List.iter
        (fun tech ->
          let p1 = pps_of mname tech 1
          and p2 = pps_of mname tech 2
          and p4 = pps_of mname tech 4 in
          if not (p1 < p2 && p2 < p4) then
            Report.fail rep
              "%s/%s: throughput not monotone 1->2->4 (%.0f %.0f %.0f)"
              mname tech p1 p2 p4)
        [ "carat"; "baseline" ])
    presets;
  let efficiency = pps_of "R350" "carat" 4 /. (4.0 *. pps_of "R350" "carat" 1) in
  Printf.printf "\n  R350 carat scaling efficiency at 4 CPUs: %.2f\n"
    efficiency;
  if efficiency < 0.70 then
    Report.fail rep "R350 carat 4-CPU scaling efficiency %.2f below 0.70"
      efficiency;
  List.iter
    (fun s ->
      let r = s.sr_result in
      if r.Smp_testbed.publications = 0 then
        Report.fail rep "%s storm row made no publications" s.sr_machine;
      if r.Smp_testbed.retired <> r.Smp_testbed.publications then
        Report.fail rep "%s storm row: %d of %d publications never retired"
          s.sr_machine (r.Smp_testbed.publications - r.Smp_testbed.retired)
          r.Smp_testbed.publications)
    storm_rows;
  let row s =
    let r = s.sr_result in
    Smp_testbed.(
      Report.
        [
          str "machine" s.sr_machine; str "technique" s.sr_technique;
          int "cpus" s.sr_cpus; int "storm" s.sr_storm;
          int "sent" r.total_sent; num "pps" r.pps;
          nums "per_cpu_pps"
            (Array.to_list (Array.map (fun c -> c.cr_pps) r.per_cpu));
          int "publications" r.publications; int "retired" r.retired;
          int "stale_allows" r.stale_allows; int "send_errors" r.send_errors;
        ])
  in
  Report.(
    finish rep
      [
        int "count_per_cpu" count; table "rows" row rows;
        table "storm_rows" row storm_rows;
        num "scaling_efficiency_r350_carat_4cpu" efficiency;
      ])

(* ------------------------------------------------------------------ *)

(* selfheal: the integrity watchdog's corruption-to-detection latency,
   the cost of running degraded (which must reproduce the guard-tier
   ordering guardpath measures: ic hit <= exact walk), recovery back to
   the full fast path, bounded repair retries, and the tier-corruption
   campaign invariants. The watchdog runs at the fault harness's short
   audit period. *)

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

let selfheal_cpc engine machine =
  let c0 = Machine.Model.cycles machine in
  hot_checks engine 2_000;
  float_of_int (Machine.Model.cycles machine - c0) /. 2_000.0

let selfheal_episode rep ~cls ~corrupt () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r415 in
  let pm =
    Policy.Policy_module.install ~site_cache:true
      ~on_deny:Policy.Policy_module.Quarantine kernel
  in
  (* production table scale, conforming rules last, as in guardpath *)
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 64);
  let period = Fault.Harness.selfheal_period in
  let wd = Policy.Policy_module.enable_watchdog ~period pm in
  let ig = Option.get (Policy.Policy_module.integrity pm) in
  let engine = Policy.Policy_module.engine pm in
  let machine = Kernel.machine kernel in
  Policy.Engine.set_verify engine true;
  (* warm the probe path, then take the full-tier cost *)
  ignore (selfheal_cpc engine machine);
  let full = selfheal_cpc engine machine in
  if not (corrupt engine) then
    Report.fail rep "%s corruption injection refused" cls;
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
    ignore (Kernel.Watchdog.advance wd ~cycles:period)
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
  let rep = Report.create "selfheal" in
  let user_page = 0x4000 in
  let rows =
    [
      selfheal_episode rep ~cls:"icache-corrupt"
        ~corrupt:(fun e ->
          Policy.Engine.corrupt_site_cache e (Policy.Engine.default_view e)
            ~site:3 ~lo:user_page ~hi:(user_page + Kernel.Memory.page_size)
            ~prot:Policy.Region.prot_rw
            ~smash_canary:true)
        ();
      selfheal_episode rep ~cls:"instance-corrupt"
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
    let pm = Policy.Policy_module.install kernel in
    Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
    let eng = Policy.Policy_module.engine pm in
    let ig =
      Policy.Integrity.create ~config:retry_cfg ~route:(fun _ _ -> ()) eng
    in
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
  (* campaign slice: the tier-corruption classes across modes *)
  let faults = if !quick then 24 else 60 in
  let report = Fault.Campaign.run { Fault.Campaign.faults; seed = 42 } in
  let campaign_fails = Fault.Campaign.check report in
  let tier_classes =
    List.filter Fault.Inject.is_tier_corruption Fault.Inject.all_classes
  in
  let carat_modes =
    List.filter (( <> ) Fault.Harness.Baseline) Fault.Harness.all_modes
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
  List.iter
    (fun r ->
      if r.se_detect_cycles > 3 * Fault.Harness.selfheal_period then
        Report.fail rep "%s: detection took %d cycles (period %d)" r.se_class
          r.se_detect_cycles Fault.Harness.selfheal_period;
      if not r.se_recovered then
        Report.fail rep "%s: never recovered" r.se_class;
      if r.se_stale <> 0 then
        Report.fail rep "%s: %d stale allows" r.se_class r.se_stale)
    rows;
  let ic = List.find (fun r -> r.se_class = "icache-corrupt") rows in
  (* degraded-mode cost must reproduce guardpath's tier ordering *)
  if ic.se_degraded_cpc < ic.se_full_cpc then
    Report.fail rep "ic-off tier cheaper than ic hits (%.1f vs %.1f)"
      ic.se_degraded_cpc ic.se_full_cpc;
  if ic.se_healed_cpc >= ic.se_degraded_cpc then
    Report.fail rep "healed cost did not return below the degraded cost";
  if ic.se_degraded_level <> 1 then
    Report.fail rep
      "ic quarantine did not fall back to the exact walk (level %d)"
      ic.se_degraded_level;
  if abandoned <> 1 then
    Report.fail rep "pinned-failure repair abandoned %d tiers, wanted 1"
      abandoned;
  if detected <> detect_total then
    Report.fail rep "campaign: %d of %d corruptions undetected"
      (detect_total - detected) detect_total;
  if rebuilt <> rebuild_total then
    Report.fail rep "campaign: %d of %d rebuilds failed"
      (rebuild_total - rebuilt) rebuild_total;
  if stale <> 0 then Report.fail rep "campaign: %d stale allows" stale;
  List.iter (fun m -> Report.fail rep "campaign invariant: %s" m) campaign_fails;
  let row r =
    Report.
      [
        str "class" r.se_class; int "detect_cycles" r.se_detect_cycles;
        int "watchdog_period" Fault.Harness.selfheal_period;
        int "degraded_tier_level" r.se_degraded_level;
        num "full_cycles_per_check" r.se_full_cpc;
        num "degraded_cycles_per_check" r.se_degraded_cpc;
        num "healed_cycles_per_check" r.se_healed_cpc;
        int "recover_audits" r.se_recover_audits;
        bool "recovered" r.se_recovered; int "stale_allows" r.se_stale;
      ]
  in
  Report.(
    finish rep
      [
        table "episodes" row rows;
        obj "bounded_retries"
          [
            int "max_retries" retry_cfg.Policy.Integrity.max_retries;
            int "abandoned" abandoned;
          ];
        obj "campaign"
          [
            int "faults" faults; int "detected" detected;
            int "detect_total" detect_total; int "rebuilt" rebuilt;
            int "rebuild_total" rebuild_total; int "stale_allows" stale;
            bool "invariants_passed" (campaign_fails = []);
          ];
      ])

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
  let rep = Report.create "certify" in
  let trials = if !quick then 3 else 7 in
  (* the best of [trials] runs in ms, with the last run's result *)
  let timed f =
    let rec go n best =
      let t0 = Unix.gettimeofday () in
      let v = f () in
      let best = Float.min best ((Unix.gettimeofday () -. t0) *. 1000.0) in
      if n = 1 then (v, best) else go (n - 1) best
    in
    go trials infinity
  in
  Printf.printf "  %-10s %8s %8s %8s %14s %14s\n" "pipeline" "scale" "instrs"
    "guards" "derive ms" "check ms";
  let row label scale opt =
    let m = Nic.Driver_gen.generate ~module_scale:scale ~with_rogue:false () in
    ignore (Passes.Pipeline.compile ~opt m);
    let derived, derive_ms = timed (fun () -> Analysis.Certify.certify m) in
    let checked, check_ms = timed (fun () -> Analysis.Cert_check.validate m) in
    Result.iter_error (Report.fail rep "%s (scale %d) derive: %s" label scale)
      derived;
    Result.iter_error
      (fun e ->
        Report.fail rep "%s (scale %d) check: %s" label scale
          (Analysis.Cert_check.validate_error_to_string e))
      checked;
    let instrs = Kir.Types.module_instr_count m in
    let guards = Passes.Guard_injection.count_guards m in
    Printf.printf "  %-10s %8d %8d %8d %14.2f %14.2f\n" label scale instrs
      guards derive_ms check_ms;
    Report.
      [
        str "pipeline" label; int "scale" scale; int "instrs" instrs;
        int "guards" guards; num "derive_ms" derive_ms; num "check_ms" check_ms;
      ]
  in
  let rows =
    List.concat_map
      (fun s ->
        let default = row "default" s Passes.Pipeline.O_none in
        [ default; row "optimized" s Passes.Pipeline.O_aggressive ])
      (if !quick then [ 12 ] else [ 12; 24; 48 ])
  in
  print_endline
    "\n  derive = the certifier's dataflow proof plus writing one witness per\n\
    \  access; check = digest + witness check, the work insmod does when\n\
    \  require_certificate is set (it re-derives nothing)";
  Report.(finish rep [ int "trials" trials; table "rows" Fun.id rows ])

(* ------------------------------------------------------------------ *)

(* polscale: multi-tenant policy domains at scale.

   Three claims, gated:
   1. lookup cost is sub-linear in the region count — a 10k-region
      domain (interval tier) answers a guard within 10x the cost of the
      64-region linear fast path, and cost stays near-flat as the
      number of live domains grows 1 -> 256 (sharded shadow + per-domain
      tables, no cross-tenant interference);
   2. a 1k-region batched install through ioctl_install's SMP route is
      atomic under SMP: readers observe the old or the new table, never
      a partial batch, with zero stale allows and full retirement;
   3. with domains unused, the guard dispatch is bit-identical to the
      fig3/fig7 tracegate goldens — multi-tenancy costs nothing when
      off. *)

type pol_row = {
  pr_domains : int;
  pr_regions : int;
  pr_structure : string;
  pr_checks : int;
  pr_cycles_per_check : float;
}

let run_polscale () =
  section "polscale: policy domains at scale (64 -> 10k regions, 1 -> 256 domains)";
  let rep = Report.create "polscale" in
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
      Array.init domains (fun _ ->
          let d = Policy.Domain.create_domain dm in
          let id = Policy.Domain.dom_id d in
          let rc = Policy.Domain.install_regions dm ~domain:id rs in
          if rc <> 0 then Report.fail rep "domain install refused (rc=%d)" rc;
          id)
    in
    let machine = Kernel.machine kernel in
    let dom i = ids.(i mod Array.length ids) in
    let denied = ref 0 in
    let check i =
      let addr = probe_of (i * 7 mod regions) in
      if not (Policy.Domain.check dm ~domain:(dom i) ~addr ~size:16 ~flags:3)
      then incr denied
    in
    for i = 0 to 99 do check i done (* warm *) ;
    let c0 = Machine.Model.cycles machine in
    for i = 0 to probes - 1 do check i done;
    let c1 = Machine.Model.cycles machine in
    if !denied + Policy.Domain.stale_allows dm <> 0 then
      Report.fail rep
        "%d domains x %d regions: %d in-policy probes denied, %d stale allows"
        domains regions !denied (Policy.Domain.stale_allows dm);
    let d0 = Option.get (Policy.Domain.find dm ids.(0)) in
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
    Report.fail rep
      "10k-region lookup is %.1fx the 64-region cost (> 10x: not sub-linear)"
      region_ratio;
  (match List.find_opt (fun r -> r.pr_regions = 10_000) rows with
  | Some r when r.pr_structure <> "interval" ->
    Report.fail rep "10k-region domain was not promoted to the interval tier"
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
    Report.fail rep
      "256-domain lookup is %.1fx the 1-domain cost (super-cache cross-tenant interference)"
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
    if rc <> 0 then Report.fail rep "SMP batched install refused (rc=%d)" rc;
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
    "\n  SMP batched install: %d regions, %d reader observations, %d partial, \
     %d stale, %d/%d retired\n"
    batch_n !observed !partial
    (Policy.Engine.stale_allows engine)
    rstats.Smp.Rcu.retired rstats.Smp.Rcu.publications;
  if not !installed then Report.fail rep "SMP batched install never ran";
  if !partial <> 0 then
    Report.fail rep "%d reader(s) observed a partially-installed batch"
      !partial;
  if Policy.Engine.count engine <> batch_n + 2 then
    Report.fail rep "batch not fully live after the run";
  if Policy.Engine.stale_allows engine <> 0 then
    Report.fail rep "%d stale allows during the batched install"
      (Policy.Engine.stale_allows engine);
  if rstats.Smp.Rcu.publications <> 1 then
    Report.fail rep
      "batch took %d publications (must be exactly 1)"
      rstats.Smp.Rcu.publications;
  if rstats.Smp.Rcu.retired <> rstats.Smp.Rcu.publications then
    Report.fail rep "batch publication never retired";
  (* ---- gate 3: domains off => bit-identical to the tracegate goldens ---- *)
  let _, golden = off_goldens rep ~off:"domains-off" in
  let row r =
    Report.
      [
        int "domains" r.pr_domains; int "regions" r.pr_regions;
        str "structure" r.pr_structure; int "checks" r.pr_checks;
        num "cycles_per_check" r.pr_cycles_per_check;
      ]
  in
  Report.(
    finish rep
      ([
         int "probes_per_cell" probes; table "rows" row rows;
         num "region_cost_ratio_10k_vs_64" region_ratio;
         num "domain_cost_ratio_256_vs_1" domain_ratio;
         obj "smp_batch"
           [
             int "regions" batch_n; int "partial_observations" !partial;
             int "stale_allows" (Policy.Engine.stale_allows engine);
             int "publications" rstats.Smp.Rcu.publications;
             int "retired" rstats.Smp.Rcu.retired;
           ];
       ]
      @ golden))

(* ------------------------------------------------------------------ *)

(* traffic: the full-duplex tail-latency benchmark. Every CPU runs
   offered load (heavy-tailed flow generator, RSS-steered onto its own
   RX ring), NAPI service, and pktgen TX concurrently; churn rows add
   CPU 0 replacing the whole policy through the SMP write route mid-run.
   Gates: frame conservation, zero stale allows, RX throughput scaling,
   guarded-vs-baseline ceilings on throughput and tail latency, and the
   rx_queues=0 goldens staying bit-identical. *)

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
  let rep = Report.create "traffic" in
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
  let find tech cpus =
    List.find
      (fun s -> s.tf_technique = tech && s.tf_cpus = cpus && s.tf_churn = 0)
      rows
  in
  (* guarded-vs-baseline latency CDFs at 8 CPUs, cycles per frame *)
  let cdf tech =
    Stats.Cdf.of_samples (find tech 8).tf_result.Smp_testbed.d_latencies
  in
  print_string
    (Stats.Cdf.render
       ~title:"CDF of RX arrival-to-delivery latency (8 CPUs)"
       ~unit_label:"cycles"
       [ ("carat", cdf "carat"); ("baseline", cdf "baseline") ]);
  print_newline ();
  (* gates *)
  List.iter
    (fun s ->
      let r = s.tf_result in
      let tag =
        Printf.sprintf "%s/%dcpu/churn=%d" s.tf_technique s.tf_cpus s.tf_churn
      in
      if r.Smp_testbed.d_stale_allows <> 0 then
        Report.fail rep "%s: %d stale allows (policy coherence broken under RX)"
          tag r.Smp_testbed.d_stale_allows;
      if r.Smp_testbed.d_send_errors <> 0 then
        Report.fail rep "%s: %d send errors" tag r.Smp_testbed.d_send_errors;
      if
        r.Smp_testbed.d_rx_frames + r.Smp_testbed.d_rx_dropped
        <> r.Smp_testbed.d_injected
      then
        Report.fail rep
          "%s: frame conservation broken (%d delivered + %d dropped <> %d offered)"
          tag r.Smp_testbed.d_rx_frames r.Smp_testbed.d_rx_dropped
          r.Smp_testbed.d_injected;
      if Array.length r.Smp_testbed.d_latencies <> r.Smp_testbed.d_rx_frames
      then
        Report.fail rep "%s: %d latency samples for %d delivered frames" tag
          (Array.length r.Smp_testbed.d_latencies)
          r.Smp_testbed.d_rx_frames)
    all;
  (* gate: aggregate RX throughput must scale with the queue count *)
  List.iter
    (fun tech ->
      let p1 = (find tech 1).tf_result.Smp_testbed.d_rx_pps
      and p2 = (find tech 2).tf_result.Smp_testbed.d_rx_pps
      and p4 = (find tech 4).tf_result.Smp_testbed.d_rx_pps in
      if not (p1 < p2 && p2 < p4) then
        Report.fail rep
          "%s: RX throughput not monotone 1->2->4 (%.0f %.0f %.0f)"
          tech p1 p2 p4)
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
        Report.fail rep
          "%d CPUs: guarded RX keeps only %.0f%% of baseline pps (floor 55%%)"
          cpus (100.0 *. ratio);
      if c.tf_p99 > 4.0 *. b.tf_p99 then
        Report.fail rep
          "%d CPUs: guarded p99 %.0f vs baseline %.0f (ceiling 4x)" cpus
          c.tf_p99 b.tf_p99)
    [ 1; 2; 4; 8 ];
  (* gate: the extreme tail stays a tail, not a cliff — p99 already
     absorbs the structural waits (coalescing, descheduled queue owners),
     so p999 blowing far past it means something pathological (a clock
     domain mixed up, a stranded ring) *)
  List.iter
    (fun s ->
      if s.tf_p999 > 5.0 *. s.tf_p99 then
        Report.fail rep
          "%s/%dcpu/churn=%d: p999 %.0f is %.1fx p99 %.0f (ceiling 5x)"
          s.tf_technique s.tf_cpus s.tf_churn s.tf_p999
          (s.tf_p999 /. s.tf_p99) s.tf_p99)
    all;
  (* gate: churn rows actually churned, every publication retired, and
     frames still flowed *)
  List.iter
    (fun s ->
      let r = s.tf_result in
      if r.Smp_testbed.d_publications = 0 then
        Report.fail rep "%d-CPU churn row made no publications" s.tf_cpus;
      if r.Smp_testbed.d_retired <> r.Smp_testbed.d_publications then
        Report.fail rep "%d-CPU churn row: %d of %d publications never retired"
          s.tf_cpus (r.Smp_testbed.d_publications - r.Smp_testbed.d_retired)
          r.Smp_testbed.d_publications;
      if r.Smp_testbed.d_rx_frames = 0 then
        Report.fail rep "%d-CPU churn row delivered no frames" s.tf_cpus)
    churn_rows;
  (* gate: rx_queues=0 (the default everywhere else) stays bit-identical
     to the tracegate goldens — the RX subsystem must be invisible when
     off *)
  let _, golden = off_goldens rep ~off:"rx-off" in
  let row s =
    let r = s.tf_result in
    Smp_testbed.(
      Report.
        [
          str "technique" s.tf_technique; int "cpus" s.tf_cpus;
          int "churn" s.tf_churn; int "sent" r.d_sent;
          int "injected" r.d_injected; int "rx_frames" r.d_rx_frames;
          int "rx_dropped" r.d_rx_dropped; num "tx_pps" r.d_tx_pps;
          num "rx_pps" r.d_rx_pps; num "lat_p50" s.tf_p50;
          num "lat_p99" s.tf_p99; num "lat_p999" s.tf_p999;
          int "rx_irqs" r.d_rx_irqs; int "rx_polls" r.d_rx_polls;
          int "budget_exhausted" r.d_budget_exhausted;
          int "timer_kicks" r.d_timer_kicks;
          int "publications" r.d_publications; int "retired" r.d_retired;
          int "stale_allows" r.d_stale_allows;
          int "send_errors" r.d_send_errors;
        ])
  in
  Report.(
    finish rep
      ([
         int "flows" flows; int "count_per_cpu" count; table "rows" row rows;
         table "churn_rows" row churn_rows;
       ]
      @ golden))

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
   Gate 3 — the happens-before fixture suite: the clean policy-storm /
   NAPI / rebuild workloads stay silent, the seeded fixtures are
   flagged.
   Gate 4 — Alloc_lint: the seeded double-free and use-after-free are
   caught and the driver-scale KIR lints with zero errors. *)

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
  let rep = Report.create "san" in
  (* ---- gate 1: sanitizer off => bit-identical to the goldens ---- *)
  let (_, (c7, k7, _)), golden = off_goldens rep ~off:"san-off" in
  (* the fig7 cell again with the sanitizer on, enabled on the cell's
     kernel: the decision counters must not move *)
  let on =
    pktgen_cell ~packets:600 ~seed:5 fig7_setup ~prepare:(fun tb ->
        Kernel.enable_sanitizer tb.Testbed.kernel)
  in
  let s_reports = Kernel.san_report_count on.tb.Testbed.kernel in
  let overhead = float_of_int (on.cycles - c7) /. float_of_int c7 in
  Printf.printf
    "  san-on  fig7 cell: %d cycles (+%.1f%%), %d checks, %d denied, %d \
     reports\n"
    on.cycles (100.0 *. overhead) on.checks on.denied s_reports;
  if on.checks <> k7 then
    Report.fail rep "sanitizer on changed the guard-check count";
  if on.denied <> 0 then
    Report.fail rep "sanitizer on changed guard decisions (denies)";
  if s_reports <> 0 then
    Report.fail rep "clean fig7 run produced sanitizer reports";
  if on.cycles <= c7 then
    Report.fail rep "sanitizer on charged no shadow-check cycles";
  if overhead > 0.5 then
    Report.fail rep "sanitizer overhead %.1f%% above the 50%% bound"
      (100.0 *. overhead);
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
  List.iter (fun m -> Report.fail rep "campaign: %s" m) camp_fails;
  let panic = Fault.Harness.Carat Policy.Policy_module.Panic in
  List.iter
    (fun cls ->
      if (Fault.Campaign.cell report ~cls ~mode:panic).Fault.Campaign.injected = 0
      then
        Report.fail rep
          "campaign: %s got no injections (at-access gate vacuous)"
          (Fault.Inject.cls_to_string cls))
    Fault.Inject.all_classes;
  let panic_t = Fault.Campaign.totals report ~mode:panic in
  (* ---- gate 3: the race-detector fixture suite ---- *)
  let suites = Race_suites.all () in
  print_string (Race_suites.render suites);
  if not (Race_suites.pass suites) then
    Report.fail rep "race fixture suite failed";
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
    Report.fail rep "alloc lint missed the seeded double-free";
  if not (has "L-use-after-free") then
    Report.fail rep "alloc lint missed the seeded use-after-free";
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
    Report.fail rep "alloc lint false positives on the clean driver KIR";
  let suite v =
    Race_suites.(
      Report.
        [
          str "name" v.v_name; bool "expect_races" v.v_expect_races;
          int "reports" v.v_reports; bool "pass" v.v_pass;
        ])
  in
  Report.(
    finish rep
      (golden
      @ [
          num "san_on_overhead" overhead; int "campaign_faults_per_cell" faults;
          int "campaign_san_hits" panic_t.Fault.Campaign.san_hits;
          int "campaign_san_total" panic_t.Fault.Campaign.san_total;
          int "campaign_race_hits" panic_t.Fault.Campaign.race_hits;
          int "campaign_race_total" panic_t.Fault.Campaign.race_total;
          table "race_suites" suite suites;
          int "alloc_lint_seeded_findings" (List.length bugs);
          int "alloc_lint_driver_errors" (List.length driver_errs);
        ]))

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
