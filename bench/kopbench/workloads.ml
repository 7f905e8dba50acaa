(* The four workloads. Each builds a testbed through the program's public
   constructors and drives it in chunks; the benchmark owns only the
   closed-loop client (a chunk-at-a-time copy of the user tool's
   per-packet body, so that its own spans can sit around the sendmsg
   call) and the policy-update schedule. Every random choice comes from
   [seed]. *)

open Carat_kop

type sizes = {
  chunks : int;  (** chunks in the measured pass *)
  chunk_ops : int;  (** packets per chunk, or sends per CPU on duplex *)
  rep_chunks : int;  (** chunks in each later host-timing repetition *)
  trace_chunks : int;  (** chunks in each traced pass *)
  warmup_ops : int;  (** untimed warm-up operations before the first chunk *)
}

type chunk = {
  sent : int;  (** packets sent *)
  ops : int;  (** packets sent, plus frames delivered on duplex *)
  attempted : int;  (** sends, updates and offered frames *)
  failed : int;  (** send errors and refused updates *)
  sim_s : float;  (** simulated wall time of the chunk *)
  lats : int array;  (** sendmsg cycles, or arrival-to-delivery cycles *)
}

(* One live testbed, whatever its shape. *)
type inst = {
  kernel : Kernel.t;
  pm : Policy.Policy_module.t;
  driver_kir : Kir.Types.modul;
  machines : Machine.Model.t array;  (** one per simulated CPU *)
  domain : (Policy.Domain.t * int) option;  (** the NIC driver module's own domain *)
  own_loop : bool;
      (** the benchmark drives the client loop itself, so its spans cover
          every simulated tick of a chunk *)
  warmup : unit -> unit;
  chunk : Host.t option -> int -> chunk;
      (** run chunk [i]; the host clock, when given, times only the
          simulation, not the benchmark's bookkeeping *)
  counters : unit -> (string * int) list;  (** cumulative, keyed by [counter_keys] *)
  updates : int list ref;
      (** ticks on the writer's CPU per policy update, newest first *)
}

type t = {
  name : string;
  sizes : sizes;
  smoke : sizes;  (** tiny counts for the tier-1 smoke test *)
  create : seed:int -> Testbed.technique -> sizes -> inst;
  guard_twin : (seed:int -> Testbed.technique -> sizes -> inst) option;
      (** when the unguarded twin cannot follow the workload's own path
          (duplex: only a guarded run has the RCU writer, which shifts the
          scheduler's interleaving), the guard cost is measured on this
          guarded/unguarded pair instead *)
  pieces : unit -> (string * float) list;  (** set-up steps, host seconds *)
}

(* Correctness problems found while running; empty on a correct run. *)
let failures : string list ref = ref []

let check ok fmt =
  Printf.ksprintf (fun s -> if not ok then failures := s :: !failures) fmt

let packet_size = 128
let tool = Net.Pktgen.default_config

let sum_ticks machines =
  Array.fold_left (fun a (m : Machine.Model.t) -> a + m.Machine.Model.ticks) 0 machines

(* Every instance reports the same cumulative counters, in this order;
   a counter a workload does not have reads 0. *)
let counter_keys =
  [
    "ticks"; "instr"; "loads"; "branches"; "mmio"; "bp_ok"; "bp_miss"; "l1_hit";
    "l1_miss"; "checks"; "denied"; "scanned"; "ic_hit"; "ic_miss"; "dom_hit";
    "dom_miss"; "stale"; "dom_pubs"; "dom_retired"; "busy_retries"; "deschedules";
    "rx_polls"; "rx_irqs"; "rx_exhausted"; "rx_kicks"; "rx_dropped"; "rcu_pubs";
    "rcu_retired"; "ipis"; "ipi_cycles"; "grace"; "heap";
  ]

let counters_of l =
  List.map (fun k -> (k, Option.value (List.assoc_opt k l) ~default:0)) counter_keys

let machine_counters machines =
  let sum f = Array.fold_left (fun a m -> a + f m) 0 machines in
  Machine.Model.
    [
      ("ticks", sum (fun m -> m.ticks));
      ("instr", sum (fun m -> m.instructions));
      ("loads", sum (fun m -> m.loads));
      ("branches", sum (fun m -> m.branches));
      ("mmio", sum (fun m -> m.mmio_accesses));
      ("bp_ok", sum (fun m -> m.bp.Machine.Predictor.predicted));
      ("bp_miss", sum (fun m -> m.bp.Machine.Predictor.mispredicted));
      ("l1_hit", sum (fun m -> m.l1.Machine.Cache.hits));
      ("l1_miss", sum (fun m -> m.l1.Machine.Cache.misses));
    ]

let policy_counters pm domain =
  let e = Policy.Policy_module.engine pm in
  let st = Policy.Engine.merged_stats e and tier = Policy.Engine.merged_tier e in
  let d_checks, d_scanned, d_hit, d_miss, d_stale, d_pubs, d_retired =
    match domain with
    | None -> (0, 0, 0, 0, 0, 0, 0)
    | Some (dm, id) ->
      let d = Option.get (Policy.Domain.find dm id) in
      let s = Policy.Domain.dom_stats d in
      ( s.Policy.Engine.checks, s.entries_scanned,
        Policy.Domain.dom_shadow_hits d, Policy.Domain.dom_shadow_misses d,
        Policy.Domain.stale_allows dm, Policy.Domain.publications dm, Policy.Domain.retired dm )
  in
  [
    ("checks", st.Policy.Engine.checks + d_checks);
    ("denied", List.length (Policy.Policy_module.violations pm));
    ("scanned", st.entries_scanned + d_scanned);
    ("ic_hit", tier.Policy.Engine.ic_hits);
    ("ic_miss", tier.ic_misses);
    ("dom_hit", d_hit);
    ("dom_miss", d_miss);
    ("stale", Policy.Engine.stale_allows e + d_stale);
    ("dom_pubs", d_pubs);
    ("dom_retired", d_retired);
  ]

let net_counters stacks =
  let sum f = Array.fold_left (fun a s -> a + f s) 0 stacks in
  [
    ("busy_retries", sum Net.Netstack.busy_retries);
    ("deschedules", sum Net.Netstack.deschedules);
  ]

let heap_counter kernel = [ ("heap", Kernel.phys_used kernel) ]

(* Run [f] as one policy update, timed on the CPU that runs it. *)
let timed_update kernel updates f =
  let m = Kernel.machine kernel in
  let t0 = m.Machine.Model.ticks in
  Spans.enter Spans.update;
  let rc = f () in
  Spans.exit ();
  updates := (m.Machine.Model.ticks - t0) :: !updates;
  rc

(* ------------------------------------------------------------------ *)
(* closed-loop TX: paper-r350, prod64-r415, tenants-1k *)

let tenant_domains = 64
let tenant_regions = 64
let driver_domain_regions = 1000
let install_every = 250
let install_batch = 8

(* The NIC driver module's own 1,000-region domain (interval tier,
   conforming rules last) among 64 live 64-region tenant domains. *)
let setup_tenants (tb : Testbed.t) =
  let pm = tb.Testbed.policy_module in
  let dm = Policy.Policy_module.enable_domains pm in
  let install id rs =
    check (Policy.Domain.install_regions dm ~domain:id rs = 0) "domain install refused at set-up"
  in
  for i = 1 to tenant_domains do
    let d = Policy.Domain.create_domain ~name:(Printf.sprintf "tenant%d" i) dm in
    install (Policy.Domain.dom_id d) (Policy.Region.kernel_only_padded tenant_regions)
  done;
  let d = Policy.Domain.create_domain ~name:"e1000e" dm in
  let id = Policy.Domain.dom_id d in
  install id (Policy.Region.kernel_only_padded driver_domain_regions);
  Policy.Policy_module.bind_module_domain pm
    ~module_name:tb.Testbed.driver.Kernel.lm_name ~domain:id;
  (dm, id)

(* Batch [b] of a run: [install_batch] fresh one-page regions in an
   otherwise unused part of the user half, placed by the seed. *)
let batch_regions ~seed b =
  List.init install_batch (fun k ->
      Policy.Region.v
        ~base:(0x4000_0000 + ((((b * install_batch) + k) * 0x10000)) + ((seed land 0xf) * 0x1000))
        ~len:0x1000 ~prot:Policy.Region.prot_rw ())

let tx_inst ~seed ~tenants (config : Testbed.config) sizes =
  let tb = Testbed.create ~config () in
  let k = tb.Testbed.kernel and stack = tb.Testbed.stack in
  let domain = if tenants then Some (setup_tenants tb) else None in
  let machine = Kernel.machine k in
  let freq_hz = machine.Machine.Model.p.Machine.Model.freq_ghz *. 1e9 in
  let user_buf = Kernel.map_user k ~size:2048 in
  let updates = ref [] in
  (* one iteration of the user tool: service completions, build the frame
     (the fixed tool-side slice), then the timed sendmsg *)
  let send rng ~seq =
    Spans.enter Spans.net_irq;
    Net.Netstack.poll_interrupts stack;
    Spans.exit ();
    Spans.enter Spans.tool;
    Kernel.write_string k ~addr:user_buf (Net.Frame.build ~seq ~size:packet_size ());
    Machine.Model.memcpy machine ~dst:user_buf ~src:(user_buf + 4096) packet_size;
    Machine.Model.retire machine tool.Net.Pktgen.tool_instructions;
    let jitter = 0.97 +. (0.06 *. Machine.Rng.float rng) in
    Machine.Model.add_cycles machine
      (int_of_float (tool.Net.Pktgen.tool_ns *. jitter *. machine.Machine.Model.p.Machine.Model.freq_ghz));
    Spans.exit ();
    let t0 = Machine.Model.cycles machine in
    Spans.enter Spans.net_sendmsg;
    let r = Net.Netstack.try_sendmsg stack ~user_buf ~len:packet_size in
    Spans.exit ();
    match r with Ok _ -> Machine.Model.cycles machine - t0 | Error _ -> -1
  in
  let warmup () =
    let rng = Machine.Rng.create 999 in
    for i = 0 to sizes.warmup_ops - 1 do
      check (send rng ~seq:i >= 0) "warm-up send failed"
    done
  in
  let chunk host c =
    let rng = Machine.Rng.create ((seed * 7919) + c) in
    (* other processes between trials partially pollute the caches, as in
       the repo's figure experiments *)
    Machine.Model.perturb machine (Machine.Rng.create ((seed * 104729) + c)) ~fraction:0.08;
    let n = sizes.chunk_ops in
    let lats = Array.make n 0 in
    let sent = ref 0 and failed = ref 0 and attempted = ref 0 in
    let t0 = machine.Machine.Model.ticks in
    Option.iter Host.start host;
    for i = 0 to n - 1 do
      (match domain with
      | Some (dm, id) when i mod install_every = install_every - 1 ->
        incr attempted;
        let b = ((c * n) + i) / install_every in
        let rc =
          timed_update k updates (fun () ->
              Policy.Domain.install_regions dm ~domain:id (batch_regions ~seed b))
        in
        if rc <> 0 then incr failed
      | _ -> ());
      incr attempted;
      let l = send rng ~seq:i in
      if l >= 0 then begin
        lats.(!sent) <- l;
        incr sent
      end
      else incr failed
    done;
    Option.iter (fun h -> Host.stop h ~chunk:c ~ops:!sent) host;
    {
      sent = !sent;
      ops = !sent;
      attempted = !attempted;
      failed = !failed;
      sim_s = float_of_int (machine.Machine.Model.ticks - t0)
              /. float_of_int Machine.Model.ticks_per_cycle /. freq_hz;
      lats = Array.sub lats 0 !sent;
    }
  in
  let counters () =
    counters_of
      (machine_counters [| machine |]
      @ policy_counters tb.Testbed.policy_module domain
      @ net_counters [| stack |]
      @ heap_counter k)
  in
  {
    kernel = k;
    pm = tb.Testbed.policy_module;
    driver_kir = tb.Testbed.driver_kir;
    machines = [| machine |];
    domain;
    own_loop = true;
    warmup;
    chunk;
    counters;
    updates;
  }

(* ------------------------------------------------------------------ *)
(* open-loop duplex *)

let duplex_cpus = 4
let duplex_flows = 4096
let duplex_churn = 37
let duplex_rx_per_step = 4

let duplex_config ~seed technique =
  { Smp_testbed.default_config with cpus = duplex_cpus; rx_queues = duplex_cpus; seed; technique }

let duplex_inst ?(churn = duplex_churn) ~seed technique sizes =
  let cfg = duplex_config ~seed technique in
  let tb = Smp_testbed.create ~config:cfg () in
  let k = tb.Smp_testbed.kernel and pm = tb.Smp_testbed.policy_module in
  let rx = Option.get tb.Smp_testbed.rx in
  let cpus = Smp.System.cpus tb.Smp_testbed.smp in
  let machines = Array.map (fun (c : Smp.Cpu.t) -> c.Smp.Cpu.machine) cpus in
  let updates = ref [] in
  (* time every policy update on the writer's CPU by wrapping the RCU
     route the SMP system installed *)
  (match pm.Policy.Policy_module.mutator with
  | Some route ->
    Policy.Policy_module.set_mutator pm
      (Some (fun m -> timed_update k updates (fun () -> route m)))
  | None -> ());
  (* chunk [c] replays the traffic driver with its own seed; the testbed
     (device, rings, caches, clocks) carries over between chunks *)
  let traffic ~c ~count =
    Smp_testbed.run_traffic ~count ~churn ~flows:duplex_flows
      ~rx_per_step:duplex_rx_per_step
      { tb with Smp_testbed.config = { cfg with seed = (seed * 31) + c } }
  in
  let samples () = Array.init duplex_cpus (fun q -> Net.Rx.latencies rx ~q) in
  let chunk host c =
    let before = Array.map List.length (samples ()) in
    let dropped0 = Nic.Device.rx_dropped tb.Smp_testbed.device in
    let n_updates = List.length !updates in
    Option.iter Host.start host;
    let r = traffic ~c ~count:sizes.chunk_ops in
    Option.iter (fun h -> Host.stop h ~chunk:c ~ops:(r.Smp_testbed.d_sent + r.d_rx_frames)) host;
    let dropped = Nic.Device.rx_dropped tb.Smp_testbed.device - dropped0 in
    check
      (r.Smp_testbed.d_rx_frames + dropped = r.Smp_testbed.d_injected)
      "duplex: %d delivered + %d dropped <> %d offered" r.d_rx_frames dropped r.d_injected;
    let lats =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun q l -> Array.of_list (List.filteri (fun i _ -> i >= before.(q)) l))
              (samples ())))
    in
    check (Array.length lats = r.d_rx_frames)
      "duplex: %d latency samples for %d delivered frames" (Array.length lats) r.d_rx_frames;
    let updates_run = List.length !updates - n_updates in
    {
      sent = r.d_sent;
      ops = r.d_sent + r.d_rx_frames;
      attempted = r.d_sent + r.d_send_errors + r.d_injected + updates_run;
      failed = r.d_send_errors;
      sim_s = r.d_elapsed_seconds;
      lats;
    }
  in
  let rx_counters () =
    let sum f = Array.fold_left ( + ) 0 (Array.init duplex_cpus (fun q -> f rx ~q)) in
    let rs = Smp.Rcu.stats (Smp.System.rcu tb.Smp_testbed.smp) in
    [
      ("rx_polls", sum Net.Rx.polls);
      ("rx_irqs", sum Net.Rx.irqs);
      ("rx_exhausted", sum Net.Rx.budget_exhausted);
      ("rx_kicks", sum Net.Rx.timer_kicks);
      ("rx_dropped", Nic.Device.rx_dropped tb.Smp_testbed.device);
      ("rcu_pubs", rs.Smp.Rcu.publications);
      ("rcu_retired", rs.Smp.Rcu.retired);
      ("ipis", rs.Smp.Rcu.ipis_taken);
      ("ipi_cycles", rs.Smp.Rcu.ipi_cycles);
      ("grace", rs.Smp.Rcu.grace_quiescents);
    ]
  in
  let counters () =
    counters_of
      (machine_counters machines
      @ policy_counters pm None
      @ net_counters tb.Smp_testbed.stacks
      @ rx_counters ()
      @ heap_counter k)
  in
  {
    kernel = k;
    pm;
    driver_kir = tb.Smp_testbed.driver_kir;
    machines;
    domain = None;
    own_loop = false;
    warmup = (fun () -> ignore (traffic ~c:(-1) ~count:sizes.warmup_ops));
    chunk;
    counters;
    updates;
  }

(* ------------------------------------------------------------------ *)
(* set-up steps, timed one by one for the traced run's breakdown *)

let time f =
  let t0 = Host.now_ns () in
  let r = f () in
  (r, float_of_int (Host.now_ns () - t0) *. 1e-9)

let pieces ~machine ~engine ~opt ~require_certificate ~generate () =
  let k, t_kernel =
    time (fun () -> Kernel.create ~require_signature:true ~require_certificate machine)
  in
  ignore (Vm.Engine.install ~kind:engine k);
  ignore (Policy.Policy_module.install k);
  let m, t_gen = time generate in
  let (), t_compile = time (fun () -> ignore (Passes.Pipeline.compile ~opt m)) in
  let v, t_validate = time (fun () -> Analysis.Certify.validate m) in
  let r, t_insmod = time (fun () -> Kernel.insmod k m) in
  check (v = Ok ()) "set-up: the compiled driver fails Certify.validate";
  check (Result.is_ok r) "set-up: insmod refused the compiled driver";
  [
    ("kernel_create", t_kernel);
    ("driver_gen", t_gen);
    ("compile", t_compile);
    ("validate", t_validate);
    ("insmod", t_insmod);
  ]

let tx_pieces (c : Testbed.config) =
  pieces ~machine:c.Testbed.machine ~engine:c.engine ~opt:c.guard_opt
    ~require_certificate:true ~generate:(fun () ->
      Nic.Driver_gen.generate ~module_scale:c.module_scale ~with_rogue:c.with_rogue ())

(* ------------------------------------------------------------------ *)

let paper_config ~seed technique =
  {
    Testbed.default_config with
    machine = Machine.Presets.r350;
    technique;
    stall_prob = 0.0004;
    seed;
  }

let prod64_config ~seed technique =
  {
    Testbed.default_config with
    machine = Machine.Presets.r415;
    technique;
    stall_prob = 0.0002;
    seed;
    policy = Policy.Region.kernel_only_padded 64;
    structure = Policy.Engine.Shadow;
    site_cache = true;
    engine = Vm.Engine.Compiled;
    guard_opt = Passes.Pipeline.O_aggressive;
  }

let tenants_config ~seed technique =
  { (paper_config ~seed technique) with engine = Vm.Engine.Compiled }

let all =
  [
    {
      name = "paper-r350";
      sizes = { chunks = 40; chunk_ops = 1000; rep_chunks = 20; trace_chunks = 10; warmup_ops = 200 };
      smoke = { chunks = 2; chunk_ops = 100; rep_chunks = 1; trace_chunks = 2; warmup_ops = 20 };
      create = (fun ~seed tech s -> tx_inst ~seed ~tenants:false (paper_config ~seed tech) s);
      guard_twin = None;
      pieces = (fun () -> tx_pieces (paper_config ~seed:1 Testbed.Carat) ());
    };
    {
      name = "prod64-r415";
      sizes = { chunks = 100; chunk_ops = 1000; rep_chunks = 25; trace_chunks = 20; warmup_ops = 200 };
      smoke = { chunks = 2; chunk_ops = 100; rep_chunks = 1; trace_chunks = 2; warmup_ops = 20 };
      create = (fun ~seed tech s -> tx_inst ~seed ~tenants:false (prod64_config ~seed tech) s);
      guard_twin = None;
      pieces = (fun () -> tx_pieces (prod64_config ~seed:1 Testbed.Carat) ());
    };
    {
      name = "duplex-4cpu";
      sizes = { chunks = 8; chunk_ops = 1000; rep_chunks = 8; trace_chunks = 1; warmup_ops = 100 };
      smoke = { chunks = 2; chunk_ops = 60; rep_chunks = 1; trace_chunks = 2; warmup_ops = 10 };
      create = (fun ~seed tech s -> duplex_inst ~seed tech s);
      guard_twin = Some (fun ~seed tech s -> duplex_inst ~churn:0 ~seed tech s);
      pieces =
        (fun () ->
          let c = duplex_config ~seed:1 Testbed.Carat in
          pieces ~machine:c.Smp_testbed.machine ~engine:Vm.Engine.Interp ~opt:c.guard_opt
            ~require_certificate:false
            ~generate:(fun () ->
              Nic.Driver_gen.generate ~module_scale:c.module_scale
                ~tx_queues:Nic.Regs.max_tx_queues ~rx_queues:c.rx_queues ())
            ());
    };
    {
      name = "tenants-1k";
      sizes = { chunks = 20; chunk_ops = 1000; rep_chunks = 5; trace_chunks = 4; warmup_ops = 200 };
      smoke = { chunks = 2; chunk_ops = 500; rep_chunks = 1; trace_chunks = 2; warmup_ops = 20 };
      create = (fun ~seed tech s -> tx_inst ~seed ~tenants:true (tenants_config ~seed tech) s);
      guard_twin = None;
      pieces = (fun () -> tx_pieces (tenants_config ~seed:1 Testbed.Carat) ());
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
