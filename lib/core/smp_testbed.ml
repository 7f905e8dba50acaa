(** N-CPU assembly of the evaluation stack: one kernel image, one
    e1000e-class device, a multi-queue driver build, and per-CPU
    netstacks (CPU [i] owns TX queue [i]) interleaved by the
    deterministic {!Smp.Sched} round-robin. Policy mutations go through
    the {!Smp.Rcu} route when more than one CPU exists.

    Every CPU count uses the *same* multi-queue driver build and
    per-queue MSI-X completion path, so the smpscale efficiency numbers
    compare scaling, not classic-vs-multiqueue code-path deltas. *)

type config = {
  machine : Machine.Model.params;
  technique : Testbed.technique;
  policy : Policy.Region.t list;
  ring_entries : int;
  seed : int;
  on_deny : Policy.Policy_module.on_deny;
  site_cache : bool;
  guard_opt : Passes.Pipeline.opt_level;
  cpus : int;
  module_scale : int;
  rx_queues : int;
      (** 0 = TX-only (the classic build, byte-identical driver);
          > 0 = full duplex with this many RSS-steered RX rings *)
  rx_budget : int;  (** NAPI poll budget (frames per softirq pass) *)
  rx_coalesce : int;  (** device interrupt coalescing (frames/cause) *)
}

let default_config =
  {
    machine = Machine.Presets.r350;
    technique = Testbed.Carat;
    policy = Policy.Region.kernel_only;
    ring_entries = 64;
    seed = 1;
    on_deny = Policy.Policy_module.Panic;
    site_cache = true;
    guard_opt = Passes.Pipeline.O_none;
    cpus = 1;
    module_scale = 12;
    rx_queues = 0;
    rx_budget = 32;
    rx_coalesce = 4;
  }

type t = {
  config : config;
  kernel : Kernel.t;
  policy_module : Policy.Policy_module.t;
  device : Nic.Device.t;
  stacks : Net.Netstack.t array;  (** stack [i] sends on TX queue [i] *)
  smp : Smp.System.t;
  driver_kir : Kir.Types.modul;
  rx : Net.Rx.t option;  (** NAPI state, present iff [rx_queues > 0] *)
}

let create ?(config = default_config) () : t =
  let n = config.cpus in
  if n < 1 || n > Nic.Regs.max_tx_queues then
    invalid_arg "Smp_testbed.create: cpus out of range";
  let require_signature = config.technique = Testbed.Carat in
  let kernel =
    Kernel.create ~require_signature ~seed:config.seed config.machine
  in
  ignore (Vm.Engine.install ~kind:Vm.Engine.Interp kernel);
  let policy_module =
    Policy.Policy_module.install ~on_deny:config.on_deny
      ~site_cache:config.site_cache kernel
  in
  (match config.technique with
  | Testbed.Carat -> Policy.Policy_module.set_policy policy_module config.policy
  | Testbed.Baseline -> ());
  let device = Nic.Device.create ~seed:(config.seed + 17) kernel in
  (* all TX queues in the silicon regardless of CPU count; we only set up
     the ones that have a CPU behind them *)
  if config.rx_queues > Nic.Regs.max_rx_queues then
    invalid_arg "Smp_testbed.create: rx_queues out of range";
  let driver_kir =
    Nic.Driver_gen.generate ~module_scale:config.module_scale
      ~tx_queues:Nic.Regs.max_tx_queues ~rx_queues:config.rx_queues ()
  in
  (match config.technique with
  | Testbed.Carat -> ignore (Passes.Pipeline.compile ~opt:config.guard_opt driver_kir)
  | Testbed.Baseline ->
    ignore
      (Passes.Pass.run_pipeline_checked (Passes.Pipeline.baseline_sign ())
         driver_kir));
  (match Kernel.insmod kernel driver_kir with
  | Ok _ -> ()
  | Error e -> failwith ("insmod e1000e: " ^ Kernel.load_error_to_string e));
  let stacks =
    Array.init n (fun i ->
        Net.Netstack.create ~queue:i
          ~noise_seed:(config.seed + 31 + (i * 101))
          kernel device)
  in
  (* probe once (adapter init + transmitter enable), then each CPU's
     queue gets its own ring *)
  Net.Netstack.bring_up stacks.(0) ~ring_entries:config.ring_entries;
  Array.iter
    (fun s -> Net.Netstack.bring_up_queue s ~ring_entries:config.ring_entries)
    stacks;
  let rx =
    if config.rx_queues > 0 then begin
      let rx =
        Net.Rx.create ~budget:config.rx_budget ~coalesce:config.rx_coalesce
          kernel device ~queues:config.rx_queues
      in
      Net.Rx.bring_up rx ~ring_entries:config.ring_entries ~bufsz:2048;
      Some rx
    end
    else None
  in
  let smp =
    Smp.System.create ~seed:config.seed ~params:config.machine ~cpus:n kernel
      policy_module
  in
  { config; kernel; policy_module; device; stacks; smp; driver_kir; rx }

let kernel t = t.kernel
let policy_module t = t.policy_module
let smp t = t.smp
let stacks t = t.stacks
let device t = t.device
let rx t = t.rx
let engine t = Smp.System.engine t.smp

(* ------------------------------------------------------------------ *)
(* the traffic workload *)

(** Rotate a policy: same set of regions, different table order. Both
    orders make identical decisions for disjoint regions, so alternating
    between them is pure update churn — any behavioural difference a CPU
    observes is a publication bug. *)
let rotate = function [] -> [] | r :: rest -> rest @ [ r ]

type duplex_cpu = {
  dc_cpu : int;
  dc_sent : int;
  dc_rx_frames : int;  (** frames this CPU's NAPI loop consumed *)
  dc_cycles : int;
  dc_seconds : float;
  dc_tx_pps : float;
  dc_rx_pps : float;
}

(** One {!run_traffic} call's outcome; every count covers that run only,
    even on a testbed that has carried traffic before. A TX-only run
    reports no RX work: its RX counts are 0 and [d_latencies] is empty. *)
type duplex_result = {
  d_per_cpu : duplex_cpu array;
  d_sent : int;
  d_injected : int;  (** frames offered to the device by the generator *)
  d_rx_frames : int;  (** frames delivered through the NAPI path *)
  d_rx_dropped : int;  (** device-side drops (overrun / unconfigured) *)
  d_elapsed_seconds : float;
  d_tx_pps : float;
  d_rx_pps : float;
  d_latencies : float array;
      (** per-frame arrival-to-delivery latency, cycles *)
  d_rx_irqs : int;
  d_rx_polls : int;
  d_budget_exhausted : int;
  d_timer_kicks : int;
  d_publications : int;
  d_stale_allows : int;
      (** paranoid cross-check failures: inline-cache allows that the
          live policy would deny (must be 0) *)
  d_send_errors : int;
}

(** The one SMP run: every CPU runs {!Net.Pktgen.send}, the tool's
    per-packet body, with {!Net.Pktgen.default_config}'s frames and tool
    costs, interleaved by the seeded scheduler. On a duplex
    testbed each CPU first offers [rx_per_step] generator arrivals to the
    device (RSS-steered onto RX rings by flow hash; injection's
    simulated-memory cost is charged to the injecting CPU, the model's
    stand-in for the wire) and gives NAPI service to its *own* RX queue;
    a testbed built with [rx_queues = 0] runs TX only. [churn] > 0 makes
    CPU 0 replace the whole policy (rotated) every [churn]-th operation,
    the update storm running concurrently with guarded traffic.
    Paranoid verification is on for the whole run: every inline-cache
    allow is cross-checked against the live policy and mismatches are
    counted in [d_stale_allows]. *)
let run_traffic ?(count = 500) ?(churn = 0) ?(flows = 4096) ?(rx_per_step = 2)
    t : duplex_result =
  let n = Array.length t.stacks in
  (match t.rx with
  | Some rx when Net.Rx.queues rx < n ->
    invalid_arg "run_traffic: fewer RX queues than CPUs"
  | _ -> ());
  let engine = Smp.System.engine t.smp in
  Policy.Engine.set_verify engine true;
  let rngs =
    Array.init n (fun i -> Machine.Rng.create (t.config.seed + (i * 7919)))
  in
  let user_bufs =
    Array.init n (fun _ -> Kernel.map_user t.kernel ~size:2048)
  in
  let sent = Array.make n 0 in
  let seqs = Array.make n 0 in
  let injected = ref 0 in
  let errors = ref 0 in
  let all_cpus = Smp.System.cpus t.smp in
  let start_cycles =
    Array.map (fun (c : Smp.Cpu.t) -> Smp.Cpu.cycles c) all_cpus
  in
  (* a per-queue RX counter; 0 on a TX-only testbed *)
  let rx_count f q = match t.rx with Some rx -> f rx ~q | None -> 0 in
  let rx_before = Array.init n (rx_count Net.Rx.frames) in
  let latencies =
    match t.rx with
    | Some rx ->
      let marks = Net.Rx.sample_counts rx in
      fun () -> Net.Rx.latencies_since rx marks
    | None -> fun () -> [||]
  in
  (* the device, NAPI and RCU counters run over the testbed's life; the
     result reports each one's change over this run *)
  let since f =
    let v0 = f () in
    fun () -> f () - v0
  in
  let rx_sum f () =
    let s = ref 0 in
    for q = 0 to n - 1 do
      s := !s + rx_count f q
    done;
    !s
  in
  let rcu f () = f (Smp.Rcu.stats (Smp.System.rcu t.smp)) in
  let dropped = since (fun () -> Nic.Device.rx_dropped t.device) in
  let irqs = since (rx_sum Net.Rx.irqs) in
  let polls = since (rx_sum Net.Rx.polls) in
  let exhausted = since (rx_sum Net.Rx.budget_exhausted) in
  let kicks = since (rx_sum Net.Rx.timer_kicks) in
  let publications = since (rcu (fun rs -> rs.Smp.Rcu.publications)) in
  let stale = since (fun () -> Policy.Engine.stale_allows engine) in
  (* the RX half of a step: arrivals onto the wire, then softirq service
     of this CPU's own RX queue *)
  let rx_step =
    match t.rx with
    | None -> fun _ -> ()
    | Some rx ->
      let fg = Net.Flowgen.create ~flows ~seed:(t.config.seed + 977) () in
      fun cpu ->
        for _ = 1 to rx_per_step do
          let arr = Net.Flowgen.next fg in
          let payload = Net.Flowgen.payload arr ~seq:!injected in
          incr injected;
          (* every CPU's clock is a private domain; arrival-to-delivery
             latency is only meaningful on one clock, so stamp with the
             cycle counter of the CPU whose NAPI loop owns the target
             queue — the same clock that will claim the stamp *)
          let qi =
            Nic.Device.rx_queue_for t.device ~hash:arr.Net.Flowgen.hash
          in
          let stamp = Smp.Cpu.cycles all_cpus.(qi) in
          ignore
            (Nic.Device.rx_inject ~hash:arr.Net.Flowgen.hash ~stamp t.device
               payload
              : bool)
        done;
        ignore (Net.Rx.service rx ~q:cpu : int)
  in
  let churn_policy = ref t.config.policy in
  let steps =
    Array.init n (fun cpu () ->
        let churning =
          churn > 0 && cpu = 0
          && t.config.technique = Testbed.Carat
          && seqs.(cpu) mod churn = churn - 1
        in
        if churning then begin
          (* whole-policy replace through the mutation router: one
             publication under load *)
          churn_policy := rotate !churn_policy;
          let rc =
            Policy.Policy_module.replace_policy t.policy_module
              ~default_allow:(Policy.Engine.default_allow engine)
              !churn_policy
          in
          if rc <> 0 then incr errors;
          seqs.(cpu) <- seqs.(cpu) + 1;
          sent.(cpu) < count
        end
        else begin
          rx_step cpu;
          (* TX half: one packet of the tool, charged to the running CPU *)
          (match
             Net.Pktgen.send t.stacks.(cpu) rngs.(cpu)
               ~user_buf:user_bufs.(cpu) ~seq:seqs.(cpu)
               Net.Pktgen.default_config
           with
          | (_ : int) -> sent.(cpu) <- sent.(cpu) + 1
          | exception Net.Netstack.Send_failed _ -> incr errors);
          seqs.(cpu) <- seqs.(cpu) + 1;
          sent.(cpu) < count && seqs.(cpu) < count * 4
        end)
  in
  ignore (Smp.System.run t.smp steps : int list * Smp.Sched.stats);
  (* drain the coalesced tails so every delivered frame is counted; each
     queue drains with its owner CPU current, keeping tail latencies in
     that CPU's clock domain *)
  Option.iter
    (fun rx ->
      Array.iteri
        (fun i c ->
          Smp.Cpu.make_current c t.kernel engine;
          ignore (Net.Rx.flush rx ~q:i : int))
        all_cpus)
    t.rx;
  let freq = t.config.machine.Machine.Model.freq_ghz in
  let per_cpu =
    Array.mapi
      (fun i (c : Smp.Cpu.t) ->
        let cyc = Smp.Cpu.cycles c - start_cycles.(i) in
        let secs = float_of_int (max 1 cyc) /. (freq *. 1e9) in
        let rxf = rx_count Net.Rx.frames i - rx_before.(i) in
        {
          dc_cpu = i;
          dc_sent = sent.(i);
          dc_rx_frames = rxf;
          dc_cycles = cyc;
          dc_seconds = secs;
          dc_tx_pps = float_of_int sent.(i) /. secs;
          dc_rx_pps = float_of_int rxf /. secs;
        })
      all_cpus
  in
  let total_sent = Array.fold_left ( + ) 0 sent in
  let total_rx =
    Array.fold_left (fun a r -> a + r.dc_rx_frames) 0 per_cpu
  in
  let elapsed =
    Array.fold_left (fun a r -> max a r.dc_seconds) 0.0 per_cpu
  in
  Policy.Engine.set_verify engine false;
  {
    d_per_cpu = per_cpu;
    d_sent = total_sent;
    d_injected = !injected;
    d_rx_frames = total_rx;
    d_rx_dropped = dropped ();
    d_elapsed_seconds = elapsed;
    d_tx_pps = float_of_int total_sent /. elapsed;
    d_rx_pps = float_of_int total_rx /. elapsed;
    d_latencies = latencies ();
    d_rx_irqs = irqs ();
    d_rx_polls = polls ();
    d_budget_exhausted = exhausted ();
    d_timer_kicks = kicks ();
    d_publications = publications ();
    d_stale_allows = stale ();
    d_send_errors = !errors;
  }
