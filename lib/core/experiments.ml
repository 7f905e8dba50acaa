(** Experiment runners reproducing every figure in the paper's evaluation
    (§4.2), plus the ablations DESIGN.md commits to. Each runner returns
    structured data; the bench harness renders it. Everything is seeded
    and deterministic. *)

type throughput_series = {
  label : string;
  pps : float array;  (** one sample per trial *)
}

type throughput_result = {
  machine_name : string;
  packet_size : int;
  series : throughput_series list;
}

(* ------------------------------------------------------------------ *)

(** Run [trials] pktgen trials on a fresh testbed per series. Each trial
    reuses the warm testbed but perturbs caches and reseeds noise, like
    back-to-back runs on a live machine. *)
let throughput_trials ~(config : Testbed.config) ~label ~trials ~packets
    ~size () : throughput_series =
  let tb = Testbed.create ~config () in
  let machine = Testbed.machine tb in
  (* warmup: predictor and caches reach steady state *)
  ignore
    (Testbed.run_pktgen tb
       { Net.Pktgen.default_config with count = 200; size; seed = 999 });
  let pps =
    Array.init trials (fun i ->
        let rng = Machine.Rng.create ((config.Testbed.seed * 7919) + i) in
        Machine.Model.perturb machine rng ~fraction:0.08;
        let r =
          Testbed.run_pktgen tb
            { Net.Pktgen.default_config with count = packets; size; seed = i }
        in
        r.Net.Pktgen.pps)
  in
  { label; pps }

let base_config machine =
  { Testbed.default_config with machine; stall_prob = 0.0002 }

(** Figures 3 and 4: throughput CDF, 128-byte packets, two regions,
    carat vs baseline, on the given machine. [engine] selects the KIR
    execution engine; simulated results are engine-independent (the
    golden-run test pins this), so it only changes host wall-clock. *)
let fig_throughput_cdf ?(trials = 41) ?(packets = 600)
    ?(engine = Testbed.default_config.engine)
    (machine : Machine.Model.params) : throughput_result =
  let size = 128 in
  let carat =
    throughput_trials
      ~config:{ (base_config machine) with technique = Carat; engine }
      ~label:"carat" ~trials ~packets ~size ()
  in
  let baseline =
    throughput_trials
      ~config:{ (base_config machine) with technique = Baseline; engine }
      ~label:"baseline" ~trials ~packets ~size ()
  in
  { machine_name = machine.Machine.Model.name; packet_size = size;
    series = [ carat; baseline ] }

let fig3 ?trials ?packets ?engine () =
  fig_throughput_cdf ?trials ?packets ?engine Machine.Presets.r415

let fig4 ?trials ?packets ?engine () =
  fig_throughput_cdf ?trials ?packets ?engine Machine.Presets.r350

(** Figure 5: vary the number of regions n ∈ {2, 16, 64} on the R350.
    Padding regions precede the real rules, so conforming accesses pay the
    full scan — the linear table's worst case. *)
let fig5 ?(trials = 41) ?(packets = 600)
    ?(engine = Testbed.default_config.engine) () : throughput_result =
  let machine = Machine.Presets.r350 in
  let size = 128 in
  let carat_n n label =
    throughput_trials
      ~config:
        {
          (base_config machine) with
          technique = Carat;
          policy = Policy.Region.kernel_only_padded n;
          engine;
        }
      ~label ~trials ~packets ~size ()
  in
  let series =
    [
      carat_n 2 "carat";
      carat_n 16 "carat16";
      carat_n 64 "carat64";
      throughput_trials
        ~config:{ (base_config machine) with technique = Baseline; engine }
        ~label:"baseline" ~trials ~packets ~size ();
    ]
  in
  { machine_name = machine.Machine.Model.name; packet_size = size; series }

(* ------------------------------------------------------------------ *)

type slowdown_point = {
  size : int;
  baseline_pps : float;
  carat_pps : float;
  slowdown : float;
}

(** Figure 6: slowdown vs packet size, R350, two regions. We report the
    slowdown of medians: at large sizes both builds are wire-limited and
    occasionally hit multi-millisecond descheduling episodes, which make
    means noisy without carrying information about the guards. *)
let fig6 ?(trials = 15) ?(packets = 500)
    ?(sizes = [ 64; 128; 256; 512; 1024; 1500 ])
    ?(engine = Testbed.default_config.engine) () : slowdown_point list =
  let machine = Machine.Presets.r350 in
  List.map
    (fun size ->
      let carat =
        throughput_trials
          ~config:{ (base_config machine) with technique = Carat; engine }
          ~label:"carat" ~trials ~packets ~size ()
      in
      let baseline =
        throughput_trials
          ~config:{ (base_config machine) with technique = Baseline; engine }
          ~label:"baseline" ~trials ~packets ~size ()
      in
      let b = Stats.Summary.median baseline.pps
      and c = Stats.Summary.median carat.pps in
      { size; baseline_pps = b; carat_pps = c; slowdown = b /. c })
    sizes

(* ------------------------------------------------------------------ *)

type latency_result = {
  base_latencies : int array;
  carat_latencies : int array;
  base_median : float;  (** including outliers, as the paper reports *)
  carat_median : float;
}

(** Figure 7: per-sendmsg latency in cycles, R350, two regions, 128-byte
    packets. Histogram rendering excludes outliers; medians include
    them. *)
let fig7 ?(packets = 8000) ?(engine = Testbed.default_config.engine) () :
    latency_result =
  let machine = Machine.Presets.r350 in
  let run technique =
    let tb =
      Testbed.create
        ~config:
          {
            (base_config machine) with
            technique;
            engine;
            (* a touch of device stall makes ring-full outliers appear,
               as in the paper's description of hidden outliers *)
            stall_prob = 0.0004;
          }
        ()
    in
    ignore
      (Testbed.run_pktgen tb
         { Net.Pktgen.default_config with count = 200; size = 128; seed = 999 });
    let r =
      Testbed.run_pktgen tb
        { Net.Pktgen.default_config with count = packets; size = 128; seed = 5 }
    in
    r.Net.Pktgen.latencies
  in
  let base = run Testbed.Baseline in
  let carat = run Testbed.Carat in
  {
    base_latencies = base;
    carat_latencies = carat;
    base_median = Stats.Summary.median (Array.map float_of_int base);
    carat_median = Stats.Summary.median (Array.map float_of_int carat);
  }

(* ------------------------------------------------------------------ *)

type transform_stats = {
  functions : int;
  kir_instructions : int;
  memory_ops : int;
  guards_inserted : int;
  kir_text_lines : int;
  signature : string;
}

(** §4 in-text accounting: the scale of the transformed driver (the paper
    reports the e1000e at ~19k LoC and the pass at ~200 LoC). *)
let transform_accounting ?(module_scale = 12) () : transform_stats =
  let m = Nic.Driver_gen.generate ~module_scale () in
  let memory_ops = Kir.Types.module_memory_op_count m in
  ignore (Passes.Pipeline.compile m);
  let text = Kir.Printer.to_string m in
  {
    functions = List.length m.Kir.Types.funcs;
    kir_instructions = Kir.Types.module_instr_count m;
    memory_ops;
    guards_inserted = Passes.Guard_injection.count_guards m;
    kir_text_lines =
      List.length (String.split_on_char '\n' text);
    signature =
      (match Kir.Types.meta_find m Passes.Signing.meta_sig with
      | Some s -> s
      | None -> "<unsigned>");
  }

(* ------------------------------------------------------------------ *)

type placement = Rule_first | Rule_last

let placement_to_string = function
  | Rule_first -> "first"
  | Rule_last -> "last"

type policy_bench_point = {
  structure : string;
  regions : int;
  placement : placement;
      (** where the matching rule sits relative to the padding — the
          linear table's best case (first) and worst case (last) *)
  cycles_per_check : float;
  entries_scanned_per_check : float;
}

(** Ablation [abl-policy]: simulated cost of one [carat_guard] check
    across policy structures and region counts, measured on a hot loop of
    conforming kernel-address probes (the paper's common case).
    [site_cache_rows] appends "linear+ic" rows: the linear table with
    the per-guard-site inline cache enabled, probing
    through {!Policy.Engine.check_fast} from a small rotating set of
    guard sites, as the injected driver does. *)
let policy_structure_bench ?(checks = 4000)
    ?(region_counts = [ 2; 8; 16; 32; 64 ])
    ?(kinds = Policy.Engine.all_kinds)
    ?(placements = [ Rule_last; Rule_first ])
    ?(site_cache_rows = false) () : policy_bench_point list =
  let bench ~kind ~ic ~placement n =
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
    let engine = Policy.Engine.create ~kind ~capacity:64 kernel in
    let rule =
      Policy.Region.v ~tag:"kernel" ~base:Kernel.Layout.kernel_base
        ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_rw ()
    in
    let policy =
      (* non-overlapping variant so every structure can hold it *)
      match placement with
      | Rule_last -> Policy.Region.padding (n - 1) @ [ rule ]
      | Rule_first -> rule :: Policy.Region.padding (n - 1)
    in
    match
      List.fold_left
        (fun acc r ->
          match acc with
          | Error _ as e -> e
          | Ok () -> Policy.Engine.add_region engine r)
        (Ok ()) policy
    with
    | Error _ -> None
    | Ok () ->
      if ic then Policy.Engine.enable_site_cache engine;
      let machine = Kernel.machine kernel in
      let addr = Kernel.Layout.direct_map_base + 0x4000 in
      let probe i =
        if ic then
          ignore
            (Policy.Engine.check_fast engine ~site:(i land 7)
               ~addr:(addr + (i * 8 mod 256))
               ~size:8 ~flags:Policy.Region.prot_read)
        else
          ignore
            (Policy.Engine.check engine
               ~addr:(addr + (i * 8 mod 256))
               ~size:8 ~flags:Policy.Region.prot_read)
      in
      (* warmup *)
      for i = 0 to 400 do
        probe i
      done;
      Policy.Engine.reset_stats engine;
      let c0 = Machine.Model.cycles machine in
      for i = 0 to checks - 1 do
        probe i
      done;
      let c1 = Machine.Model.cycles machine in
      let st = Policy.Engine.stats engine in
      Some
        {
          structure =
            Policy.Engine.kind_to_string kind ^ (if ic then "+ic" else "");
          regions = n;
          placement;
          cycles_per_check = float_of_int (c1 - c0) /. float_of_int checks;
          entries_scanned_per_check =
            float_of_int st.Policy.Engine.entries_scanned
            /. float_of_int st.Policy.Engine.checks;
        }
  in
  let combos ks =
    List.concat_map (fun k -> List.map (fun p -> (k, p)) placements) ks
  in
  List.concat_map
    (fun (kind, placement) ->
      List.filter_map (fun n -> bench ~kind ~ic:false ~placement n)
        region_counts)
    (combos kinds)
  @
  if site_cache_rows then
    List.concat_map
      (fun (kind, placement) ->
        List.filter_map (fun n -> bench ~kind ~ic:true ~placement n)
          region_counts)
      (combos [ Policy.Engine.Linear ])
  else []

(* ------------------------------------------------------------------ *)

type mechanism_point = {
  variant : string;
  baseline_pps : float;
  carat_pps : float;
  overhead_pct : float;
}

(** Mechanism-sensitivity ablation: §4.2 credits "improved caching,
    branch prediction, and speculation" for the R350's near-zero guard
    cost. Knock each mechanism out of the machine model individually and
    measure how the guard overhead responds — if the paper's explanation
    is right, every knockout must inflate it. *)
let mechanism_sensitivity ?(trials = 9) ?(packets = 300) () :
    mechanism_point list =
  let r350 = Machine.Presets.r350 in
  let variants =
    [
      ("r350 (stock)", r350);
      ( "no speculative overlap",
        { r350 with Machine.Model.speculative_overlap = 1.0 } );
      ( "weak branch predictor",
        { r350 with Machine.Model.predictor_entries_log2 = 4;
          predictor_history_bits = 2 } );
      ( "narrow core (1-wide)",
        { r350 with Machine.Model.issue_width = 1 } );
    ]
  in
  List.map
    (fun (variant, machine) ->
      let med technique =
        let series =
          throughput_trials
            ~config:{ (base_config machine) with technique }
            ~label:"x" ~trials ~packets ~size:128 ()
        in
        Stats.Summary.median series.pps
      in
      let b = med Testbed.Baseline in
      let c = med Testbed.Carat in
      { variant; baseline_pps = b; carat_pps = c;
        overhead_pct = (b -. c) /. b *. 100.0 })
    variants

type opt_ablation = {
  technique : string;
  static_guards : int;
  checks_per_packet : float;  (** dynamic carat_guard invocations *)
  checks_per_eeprom_read : float;
      (** dynamic checks in one loopy diagnostic call — where hoisting
          pays off, in contrast to the redundancy-free hot path *)
  pps_mean : float;
  sendmsg_median : float;
}

(** Ablation [abl-opt]: the paper's unoptimized guards vs the CARAT-CAKE
    style optimizing pipeline (redundant elimination + loop hoisting). *)
let guard_optimization_ablation ?(trials = 11) ?(packets = 500) () :
    opt_ablation list =
  let machine = Machine.Presets.r350 in
  let run label technique opt =
    let config = { (base_config machine) with technique; guard_opt = opt } in
    let tb = Testbed.create ~config () in
    ignore
      (Testbed.run_pktgen tb
         { Net.Pktgen.default_config with count = 200; size = 128; seed = 999 });
    let pps = ref [] and lats = ref [] in
    for i = 0 to trials - 1 do
      let r =
        Testbed.run_pktgen tb
          { Net.Pktgen.default_config with count = packets; size = 128; seed = i }
      in
      pps := r.Net.Pktgen.pps :: !pps;
      lats := Array.to_list r.Net.Pktgen.latencies @ !lats
    done;
    let pps = Array.of_list !pps in
    let st =
      Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module)
    in
    let checks_per_packet =
      float_of_int st.Policy.Engine.checks
      /. float_of_int (max 1 (Net.Netstack.sent tb.Testbed.stack))
    in
    (* the loopy diagnostic: hoisting lifts its loop-invariant guard *)
    Policy.Engine.reset_stats
      (Policy.Policy_module.engine tb.Testbed.policy_module);
    let calls = 50 in
    for w = 0 to calls - 1 do
      ignore
        (Kernel.call_symbol tb.Testbed.kernel "e1000e_eeprom_read"
           [| w land 15 |])
    done;
    let st =
      Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module)
    in
    {
      technique = label;
      static_guards = Passes.Guard_injection.count_guards tb.Testbed.driver_kir;
      checks_per_packet;
      checks_per_eeprom_read =
        float_of_int st.Policy.Engine.checks /. float_of_int calls;
      pps_mean =
        Array.fold_left ( +. ) 0.0 pps /. float_of_int (Array.length pps);
      sendmsg_median =
        Stats.Summary.median
          (Array.map float_of_int (Array.of_list !lats));
    }
  in
  [
    run "baseline" Testbed.Baseline Passes.Pipeline.O_none;
    run "carat (unoptimized, as in paper)" Testbed.Carat Passes.Pipeline.O_none;
    run "carat + guard optimizations" Testbed.Carat Passes.Pipeline.O_basic;
    run "carat + certified optimizer" Testbed.Carat Passes.Pipeline.O_aggressive;
  ]
