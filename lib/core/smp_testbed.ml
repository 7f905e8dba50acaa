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
(* the per-CPU pktgen workload *)

type cpu_result = {
  cr_cpu : int;
  cr_sent : int;
  cr_cycles : int;  (** cycles this CPU's clock advanced over the run *)
  cr_seconds : float;
  cr_pps : float;  (** this CPU's private launch rate *)
}

type result = {
  per_cpu : cpu_result array;
  total_sent : int;
  elapsed_seconds : float;  (** slowest CPU — the run's wall time *)
  pps : float;  (** aggregate: total packets over the run's wall time *)
  interleave : int list;  (** CPU id per scheduler operation, in order *)
  slices : int;
  publications : int;
  retired : int;
  stale_allows : int;
      (** paranoid cross-check failures: inline-cache allows that the
          live policy would deny (must be 0) *)
  send_errors : int;
}

(** One pktgen-style packet on [stack]: mirrors {!Net.Pktgen.run}'s
    per-packet body (tool-side frame build + fixed ns slice outside the
    timed window, then the sendmsg). Charged to whichever machine is
    current — the scheduler guarantees that is CPU [cpu]'s. *)
let send_one t stack rng user_buf ~seq ~size ~tool_ns ~tool_instructions =
  let k = t.kernel in
  let machine = Kernel.machine k in
  Net.Netstack.poll_interrupts stack;
  let frame = Net.Frame.build ~seq ~size () in
  Kernel.write_string k ~addr:user_buf frame;
  Machine.Model.memcpy machine ~dst:user_buf ~src:(user_buf + 4096) size;
  Machine.Model.retire machine tool_instructions;
  let jitter = 0.97 +. (0.06 *. Machine.Rng.float rng) in
  Machine.Model.add_cycles machine
    (int_of_float (tool_ns *. jitter *. machine.Machine.Model.p.freq_ghz));
  match Net.Netstack.try_sendmsg stack ~user_buf ~len:size with
  | Ok _ -> true
  | Error _ -> false

(** Rotate a policy: same set of regions, different table order. Both
    orders make identical decisions for disjoint regions, so alternating
    between them is pure update churn — any behavioural difference a CPU
    observes is a publication bug. *)
let rotate = function [] -> [] | r :: rest -> rest @ [ r ]

(** Run [count] packets of [size] bytes on every CPU, interleaved by the
    seeded scheduler. [storm] > 0 makes CPU 0 replace the whole policy
    (rotated) every [storm]-th operation — the concurrent-ioctl update
    storm — while the other CPUs keep sending. Paranoid verification is
    on for the whole run: every inline-cache allow is cross-checked
    against the live policy and mismatches are counted in
    [stale_allows]. *)
let run_pktgen ?(count = 1000) ?(size = 128) ?(storm = 0)
    ?(tool_ns = 6800.0) ?(tool_instructions = 2600) t : result =
  let n = Array.length t.stacks in
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
  let errors = ref 0 in
  let start_cycles =
    Array.map (fun (c : Smp.Cpu.t) -> Smp.Cpu.cycles c) (Smp.System.cpus t.smp)
  in
  let storm_policy = ref t.config.policy in
  let storm_count = ref 0 in
  let steps =
    Array.init n (fun cpu () ->
        let storming =
          storm > 0 && cpu = 0
          && t.config.technique = Testbed.Carat
          && seqs.(cpu) mod storm = storm - 1
        in
        if storming then begin
          (* whole-policy replace through the mutation router: one
             publication under load *)
          storm_policy := rotate !storm_policy;
          let rc =
            Policy.Policy_module.replace_policy t.policy_module
              ~default_allow:(Policy.Engine.default_allow engine)
              !storm_policy
          in
          if rc <> 0 then incr errors;
          incr storm_count;
          seqs.(cpu) <- seqs.(cpu) + 1;
          sent.(cpu) < count
        end
        else begin
          let ok =
            send_one t t.stacks.(cpu) rngs.(cpu) user_bufs.(cpu)
              ~seq:seqs.(cpu) ~size ~tool_ns ~tool_instructions
          in
          seqs.(cpu) <- seqs.(cpu) + 1;
          if ok then sent.(cpu) <- sent.(cpu) + 1 else incr errors;
          sent.(cpu) < count && seqs.(cpu) < count * 4
        end)
  in
  let interleave, sstats = Smp.System.run t.smp steps in
  let cpus = Smp.System.cpus t.smp in
  let freq = t.config.machine.Machine.Model.freq_ghz in
  let per_cpu =
    Array.mapi
      (fun i (c : Smp.Cpu.t) ->
        let cyc = Smp.Cpu.cycles c - start_cycles.(i) in
        let secs = float_of_int (max 1 cyc) /. (freq *. 1e9) in
        {
          cr_cpu = i;
          cr_sent = sent.(i);
          cr_cycles = cyc;
          cr_seconds = secs;
          cr_pps = float_of_int sent.(i) /. secs;
        })
      cpus
  in
  let total_sent = Array.fold_left ( + ) 0 sent in
  let elapsed =
    Array.fold_left (fun a r -> max a r.cr_seconds) 0.0 per_cpu
  in
  let rs = Smp.Rcu.stats (Smp.System.rcu t.smp) in
  Policy.Engine.set_verify engine false;
  {
    per_cpu;
    total_sent;
    elapsed_seconds = elapsed;
    pps = float_of_int total_sent /. elapsed;
    interleave;
    slices = sstats.Smp.Sched.slices;
    publications = rs.Smp.Rcu.publications;
    retired = rs.Smp.Rcu.retired;
    stale_allows = Policy.Engine.stale_allows engine;
    send_errors = !errors;
  }

(* ------------------------------------------------------------------ *)
(* the full-duplex traffic workload *)

type duplex_cpu = {
  dc_cpu : int;
  dc_sent : int;
  dc_rx_frames : int;  (** frames this CPU's NAPI loop consumed *)
  dc_cycles : int;
  dc_seconds : float;
  dc_tx_pps : float;
  dc_rx_pps : float;
}

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
  d_retired : int;
  d_stale_allows : int;
  d_send_errors : int;
}

(** Full-duplex run: every CPU alternates generator arrivals (frames
    injected into the device, RSS-steered onto RX rings by flow hash),
    NAPI service of its *own* RX queue, and pktgen-style TX sends —
    interleaved by the seeded scheduler. [churn] > 0 makes CPU 0 replace
    the whole policy (rotated) every [churn]-th operation, the update
    storm running concurrently with guarded RX. [rx_per_step] arrivals
    are offered per scheduler step; injection's simulated-memory cost is
    charged to the injecting CPU (the model's stand-in for the wire).
    Requires [config.rx_queues >= cpus]. Paranoid verification is on for
    the whole run. *)
let run_traffic ?(count = 500) ?(size = 128) ?(churn = 0) ?(flows = 4096)
    ?(rx_per_step = 2) ?(tool_ns = 6800.0) ?(tool_instructions = 2600) t :
    duplex_result =
  let n = Array.length t.stacks in
  let rx =
    match t.rx with
    | Some rx -> rx
    | None -> invalid_arg "run_traffic: testbed built without rx_queues"
  in
  if Net.Rx.queues rx < n then
    invalid_arg "run_traffic: fewer RX queues than CPUs";
  let engine = Smp.System.engine t.smp in
  Policy.Engine.set_verify engine true;
  let fg = Net.Flowgen.create ~flows ~seed:(t.config.seed + 977) () in
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
  let rx_before = Array.init n (fun q -> Net.Rx.frames rx ~q) in
  let churn_policy = ref t.config.policy in
  let steps =
    Array.init n (fun cpu () ->
        let churning =
          churn > 0 && cpu = 0
          && t.config.technique = Testbed.Carat
          && seqs.(cpu) mod churn = churn - 1
        in
        if churning then begin
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
          (* offered load: draw arrivals and put them on the wire; RSS
             hashes each flow onto its ring *)
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
              (Nic.Device.rx_inject ~hash:arr.Net.Flowgen.hash ~stamp
                 t.device payload
                : bool)
          done;
          (* softirq half: service this CPU's own RX queue *)
          ignore (Net.Rx.service rx ~q:cpu : int);
          (* TX half: one pktgen-style send *)
          let ok =
            send_one t t.stacks.(cpu) rngs.(cpu) user_bufs.(cpu)
              ~seq:seqs.(cpu) ~size ~tool_ns ~tool_instructions
          in
          seqs.(cpu) <- seqs.(cpu) + 1;
          if ok then sent.(cpu) <- sent.(cpu) + 1 else incr errors;
          sent.(cpu) < count && seqs.(cpu) < count * 4
        end)
  in
  let _interleave, _sstats = Smp.System.run t.smp steps in
  (* drain the coalesced tails so every delivered frame is counted; each
     queue drains with its owner CPU current, keeping tail latencies in
     that CPU's clock domain *)
  Array.iteri
    (fun i c ->
      Smp.Cpu.make_current c t.kernel engine;
      ignore (Net.Rx.flush rx ~q:i : int))
    all_cpus;
  let cpus = Smp.System.cpus t.smp in
  let freq = t.config.machine.Machine.Model.freq_ghz in
  let per_cpu =
    Array.mapi
      (fun i (c : Smp.Cpu.t) ->
        let cyc = Smp.Cpu.cycles c - start_cycles.(i) in
        let secs = float_of_int (max 1 cyc) /. (freq *. 1e9) in
        let rxf = Net.Rx.frames rx ~q:i - rx_before.(i) in
        {
          dc_cpu = i;
          dc_sent = sent.(i);
          dc_rx_frames = rxf;
          dc_cycles = cyc;
          dc_seconds = secs;
          dc_tx_pps = float_of_int sent.(i) /. secs;
          dc_rx_pps = float_of_int rxf /. secs;
        })
      cpus
  in
  let total_sent = Array.fold_left ( + ) 0 sent in
  let total_rx =
    Array.fold_left (fun a r -> a + r.dc_rx_frames) 0 per_cpu
  in
  let elapsed =
    Array.fold_left (fun a r -> max a r.dc_seconds) 0.0 per_cpu
  in
  let rs = Smp.Rcu.stats (Smp.System.rcu t.smp) in
  Policy.Engine.set_verify engine false;
  let sum f = Array.fold_left (fun a r -> a + f r.dc_cpu) 0 per_cpu in
  {
    d_per_cpu = per_cpu;
    d_sent = total_sent;
    d_injected = !injected;
    d_rx_frames = total_rx;
    d_rx_dropped = Nic.Device.rx_dropped t.device;
    d_elapsed_seconds = elapsed;
    d_tx_pps = float_of_int total_sent /. elapsed;
    d_rx_pps = float_of_int total_rx /. elapsed;
    d_latencies = Net.Rx.all_latencies rx;
    d_rx_irqs = sum (fun q -> Net.Rx.irqs rx ~q);
    d_rx_polls = sum (fun q -> Net.Rx.polls rx ~q);
    d_budget_exhausted = sum (fun q -> Net.Rx.budget_exhausted rx ~q);
    d_timer_kicks = sum (fun q -> Net.Rx.timer_kicks rx ~q);
    d_publications = rs.Smp.Rcu.publications;
    d_retired = rs.Smp.Rcu.retired;
    d_stale_allows = Policy.Engine.stale_allows engine;
    d_send_errors = !errors;
  }
