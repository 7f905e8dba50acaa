(** The user-level measurement tool (§4.2 "Methodology and factors"):
    brings the NIC up on a private address, sends raw Ethernet packets to
    a fake destination, varying packet count and size, and measures
    {b throughput} of the transmissions and {b latency} of individual
    packet launches ("in cycles using the cycle counter, as the time spent
    in the sendmsg() call from the user-space test application's point of
    view").

    Per-packet tool-side work (building the frame, raw-socket
    bookkeeping, rate bookkeeping) happens *outside* the timed sendmsg
    window, exactly as in the paper — which is why sendmsg latency is
    ~700 cycles while the end-to-end rate is ~10⁵ packets/s. The tool-side
    time has a large core-speed-independent component (DRAM and device
    time), so both testbed machines land in the same pps band, as the
    paper's figures show. *)

type config = {
  count : int;  (** packets per trial *)
  size : int;  (** frame size in bytes *)
  seed : int;
  tool_ns : float;
      (** fixed per-packet tool+stack time outside sendmsg, in ns *)
  tool_instructions : int;
      (** per-packet tool work that does scale with the core *)
}

let default_config =
  { count = 1000; size = 128; seed = 1; tool_ns = 6800.0; tool_instructions = 2600 }

type result = {
  sent : int;
  cycles : int;  (** total cycles across the trial *)
  seconds : float;
  pps : float;  (** achieved packet launch throughput *)
  latencies : int array;  (** per-sendmsg cycle counts *)
  busy_retries : int;
  error : Netstack.send_error option;
      (** why the trial stopped early, if it did — a quarantined or
          wedged driver degrades the trial instead of crashing it *)
}

(** One packet of the tool's loop, charged to the kernel's current
    machine — under SMP, the CPU that runs it. Interrupts are serviced
    and the frame is built outside the timed window; returns the
    sendmsg's own cycles. A failed send raises {!Netstack.Send_failed}. *)
let send stack rng ~user_buf ~seq (cfg : config) =
  let k = stack.Netstack.kernel in
  let machine = Kernel.machine k in
  (* interrupts are serviced between sends — completion processing
     happens outside the timed sendmsg window, as with real MSI *)
  Netstack.poll_interrupts stack;
  (* build the frame in user space: the write into the user buffer is
     real (so the DMA'd bytes check out), the bulk of the tool's
     per-packet cost is charged explicitly *)
  let frame = Frame.build ~seq ~size:cfg.size () in
  Kernel.write_string k ~addr:user_buf frame;
  Machine.Model.memcpy machine ~dst:user_buf ~src:(user_buf + 4096) cfg.size;
  Machine.Model.retire machine cfg.tool_instructions;
  (* core-speed-independent slice (timers, device time, DRAM): same
     nanoseconds on both machines, different cycle counts *)
  let jitter = 0.97 +. (0.06 *. Machine.Rng.float rng) in
  Machine.Model.add_cycles machine
    (int_of_float (cfg.tool_ns *. jitter *. machine.Machine.Model.p.freq_ghz));
  (* the timed window: the sendmsg call itself *)
  let t0 = Machine.Model.cycles machine in
  let sent = Netstack.sendmsg stack ~user_buf ~len:cfg.size in
  assert (sent = cfg.size);
  Machine.Model.cycles machine - t0

(** Run one trial: [count] packets of [size] bytes through [stack]. A
    send error ends the trial gracefully: the result covers the packets
    that did go out and records the error. *)
let run (stack : Netstack.t) (cfg : config) : result =
  let k = stack.Netstack.kernel in
  let machine = Kernel.machine k in
  let rng = Machine.Rng.create cfg.seed in
  (* the tool's user-space frame buffer *)
  let user_buf = Kernel.map_user k ~size:2048 in
  let latencies = Array.make cfg.count 0 in
  let busy0 = Netstack.busy_retries stack in
  let t_start = Machine.Model.cycles machine in
  let sent_n = ref 0 in
  let error = ref None in
  (try
     for i = 0 to cfg.count - 1 do
       latencies.(i) <- send stack rng ~user_buf ~seq:i cfg;
       incr sent_n
     done
   with Netstack.Send_failed e -> error := Some e);
  let t_end = Machine.Model.cycles machine in
  let cycles = max 1 (t_end - t_start) in
  let seconds =
    float_of_int cycles /. (machine.Machine.Model.p.freq_ghz *. 1e9)
  in
  {
    sent = !sent_n;
    cycles;
    seconds;
    pps = float_of_int !sent_n /. seconds;
    latencies = Array.sub latencies 0 !sent_n;
    busy_retries = Netstack.busy_retries stack - busy0;
    error = !error;
  }
