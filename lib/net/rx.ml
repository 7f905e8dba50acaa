(** NAPI-style receive processing over the driver's multi-queue RX entry
    points: the kernel half of the full-duplex path.

    Per queue, mirroring Linux's net_rx_action:
    - the RX interrupt fires ({!Nic.Device.rxq_irq_pending}): charge
      interrupt entry/exit, run the handler, which *masks* the queue
      ([e1000e_rx_disable]) and schedules the poll loop — no frame is
      touched in hard-irq context;
    - softirq passes ({!poll}) call [e1000e_napi_poll] with a fixed
      budget: every frame consumed there pays the *guarded* loads of the
      driver's descriptor walk and EtherType sniff, so guard cost lands
      in softirq context, amortized across the coalesced batch;
    - a pass that exhausts its budget stays scheduled (more work is
      waiting); a pass that comes up short re-enables the queue's
      interrupt ([e1000e_rx_enable]) and goes idle;
    - interrupt coalescing ([e1000e_rx_coalesce]) delays the cause latch
      until [coalesce] frames have accumulated; a software delay-timer
      kick ({!Nic.Device.rx_fire_timer}) rescues quiet tails so the last
      sub-threshold batch is never stranded.

    Per-frame latency is measured device-side: the device stamps each
    frame's DMA-delivery cycle, and the poll loop pops one stamp per
    consumed frame ({!Nic.Device.rx_take_stamps}), yielding
    arrival-to-delivery latencies that include coalescing delay, softirq
    batching, and guard overhead. Each queue keeps its samples in a
    {!Samples} store: four bytes per delivered frame. *)

(** One queue's per-frame latencies (cycles), oldest first: an
    append-only store of 4 KiB chunks of little-endian int32 plus a
    count, so a sample costs half a word where an [int array] slot
    costs one and a list cell three. A sample the int32 cannot hold
    exactly is stored as [escape], with its value in [wide] under its
    index; [escape] itself is such a sample, so every stored [escape]
    is one. *)
module Samples = struct
  let chunk = 1024
  let escape = Int32.min_int

  type t = {
    mutable chunks : Bytes.t array;
        (** full chunks, the open one, then unused empty slots *)
    mutable count : int;
    wide : (int, int) Hashtbl.t;  (** index -> sample, for escaped ones *)
  }

  let create () = { chunks = [||]; count = 0; wide = Hashtbl.create 1 }
  let length s = s.count

  let get s i =
    let v = Bytes.get_int32_le s.chunks.(i / chunk) (4 * (i mod chunk)) in
    if Int32.equal v escape then Hashtbl.find s.wide i else Int32.to_int v

  let push s v =
    let c = s.count / chunk and i = s.count mod chunk in
    if i = 0 then begin
      if c = Array.length s.chunks then begin
        let spine = Array.make (Int.max 4 (2 * c)) Bytes.empty in
        Array.blit s.chunks 0 spine 0 c;
        s.chunks <- spine
      end;
      s.chunks.(c) <- Bytes.make (4 * chunk) '\000'
    end;
    let n = Int32.of_int v in
    let n =
      if Int32.to_int n = v && not (Int32.equal n escape) then n
      else begin
        Hashtbl.replace s.wide s.count v;
        escape
      end
    in
    Bytes.set_int32_le s.chunks.(c) (4 * i) n;
    s.count <- s.count + 1

  (** Every sample, oldest first. *)
  let to_list s =
    let l = ref [] in
    for i = s.count - 1 downto 0 do
      l := get s i :: !l
    done;
    !l
end

type qstate = {
  q : int;
  mutable scheduled : bool;  (** poll loop owns the queue (irq masked) *)
  mutable irqs : int;
  mutable polls : int;  (** non-empty poll passes *)
  mutable frames : int;
  mutable budget_exhausted : int;
  mutable rearms : int;
  mutable timer_kicks : int;
  mutable idle_since_kick : int;
      (** idle polls since the last delivery; drives the timer model *)
  lats : Samples.t;  (** per-frame latency (cycles) *)
}

type t = {
  kernel : Kernel.t;
  device : Nic.Device.t;
  budget : int;
  coalesce : int;
  timer_passes : int;
      (** idle passes after which the coalescing delay timer fires *)
  trace : Trace.t option;
  qs : qstate array;
  mutable irq_cycles : int;  (** interrupt entry/exit cost per RX irq *)
}

let create ?(budget = 32) ?(coalesce = 1) ?(timer_passes = 4) ?trace kernel
    device ~queues =
  assert (queues >= 1 && queues <= Nic.Regs.max_rx_queues);
  {
    kernel;
    device;
    budget = max 1 budget;
    coalesce = max 1 coalesce;
    timer_passes = max 1 timer_passes;
    trace;
    qs =
      Array.init queues (fun q ->
          {
            q;
            scheduled = false;
            irqs = 0;
            polls = 0;
            frames = 0;
            budget_exhausted = 0;
            rearms = 0;
            timer_kicks = 0;
            idle_since_kick = 0;
            lats = Samples.create ();
          });
    irq_cycles = 120;
  }

let queues t = Array.length t.qs

(** Bring up every RX queue: per-queue ring + buffers, the coalescing
    threshold, and the RSS fan-out across all queues. The driver's probe
    ([Netstack.bring_up]) must have run first. *)
let bring_up t ~ring_entries ~bufsz =
  assert (ring_entries land (ring_entries - 1) = 0);
  Array.iter
    (fun qs ->
      let rc =
        Kernel.call_symbol t.kernel "e1000e_setup_rx_queue"
          [| qs.q; ring_entries; bufsz |]
      in
      if rc <> 0 then failwith "Rx.bring_up: setup_rx_queue failed";
      ignore
        (Kernel.call_symbol t.kernel "e1000e_rx_coalesce"
           [| qs.q; t.coalesce |]))
    t.qs;
  ignore
    (Kernel.call_symbol t.kernel "e1000e_setup_rss" [| Array.length t.qs |])

let on_trace ?size ?flags t kind ~info =
  match t.trace with
  | Some tr -> Trace.on_lifecycle ?size ?flags tr kind ~info
  | None -> ()

(* Claim latency stamps for [n] just-consumed frames of queue [q]. *)
let claim_stamps t qs n =
  if n > 0 then begin
    let now = Machine.Model.cycles (Kernel.machine t.kernel) in
    let stamps = Nic.Device.rx_take_stamps t.device ~q:qs.q n in
    Array.iter (fun s -> Samples.push qs.lats (now - s)) stamps
  end

(** Service queue [q]'s pending RX interrupt, if any: hard-irq half.
    Masks the queue and schedules the poll loop. Returns true if an
    interrupt was taken. *)
let irq t ~q =
  let qs = t.qs.(q) in
  if Nic.Device.rxq_irq_pending t.device ~q then begin
    Nic.Device.ack_rxq_irq t.device ~q;
    Machine.Model.add_cycles (Kernel.machine t.kernel) t.irq_cycles;
    ignore (Kernel.call_symbol t.kernel "e1000e_rx_disable" [| q |]);
    qs.irqs <- qs.irqs + 1;
    qs.scheduled <- true;
    on_trace t Trace.Rx_irq ~info:q;
    true
  end
  else false

(** One softirq poll pass for queue [q], if it is scheduled: consume up
    to [budget] frames through the driver, then either stay scheduled
    (budget exhausted — more frames are waiting) or re-enable the
    interrupt and go idle. Returns the number of frames consumed. *)
let poll_once t ~q =
  let qs = t.qs.(q) in
  if not qs.scheduled then 0
  else begin
    (* a quarantined driver's calls return a negative errno; treat that
       as an empty poll so the loop re-arms and counters stay sane *)
    let n =
      max 0 (Kernel.call_symbol t.kernel "e1000e_napi_poll" [| q; t.budget |])
    in
    claim_stamps t qs n;
    qs.frames <- qs.frames + n;
    if n > 0 then qs.polls <- qs.polls + 1;
    if n >= t.budget then begin
      qs.budget_exhausted <- qs.budget_exhausted + 1;
      on_trace t Trace.Rx_poll ~size:n ~flags:1 ~info:q
    end
    else begin
      ignore (Kernel.call_symbol t.kernel "e1000e_rx_enable" [| q |]);
      qs.scheduled <- false;
      qs.rearms <- qs.rearms + 1;
      if n > 0 then on_trace t Trace.Rx_poll ~size:n ~flags:0 ~info:q
    end;
    n
  end

(** Drive queue [q] once from the outside: take a pending interrupt,
    run one poll pass if scheduled, and model the coalescing delay
    timer — after [timer_passes] idle calls with frames waiting below
    the threshold, kick the cause so the tail batch is delivered.
    Returns frames consumed this call. *)
let service t ~q =
  ignore (irq t ~q : bool);
  let n = poll_once t ~q in
  let qs = t.qs.(q) in
  if n = 0 && not qs.scheduled then begin
    qs.idle_since_kick <- qs.idle_since_kick + 1;
    if qs.idle_since_kick >= t.timer_passes then begin
      qs.idle_since_kick <- 0;
      if Nic.Device.rx_fire_timer t.device ~q then
        qs.timer_kicks <- qs.timer_kicks + 1
    end
  end
  else qs.idle_since_kick <- 0;
  n

(** Drain queue [q] completely: repeated service passes until the ring
    is empty and the queue is idle. Used at end of run so coalesced
    tails are counted. Returns frames consumed. *)
let flush t ~q =
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    ignore (Nic.Device.rx_fire_timer t.device ~q : bool);
    let n = service t ~q in
    total := !total + n;
    if n = 0 && not t.qs.(q).scheduled then continue := false
  done;
  !total

(* --- statistics ----------------------------------------------------- *)

let frames t ~q = t.qs.(q).frames
let irqs t ~q = t.qs.(q).irqs
let polls t ~q = t.qs.(q).polls
let budget_exhausted t ~q = t.qs.(q).budget_exhausted
let rearms t ~q = t.qs.(q).rearms
let timer_kicks t ~q = t.qs.(q).timer_kicks

(** Per-frame arrival-to-delivery latencies (cycles) of queue [q],
    oldest first. *)
let latencies t ~q = Samples.to_list t.qs.(q).lats

(** Every queue's sample count: the marks {!latencies_since} reads
    from. *)
let sample_counts t = Array.map (fun qs -> Samples.length qs.lats) t.qs

(** The samples each queue claimed after its mark in [marks] (from
    {!sample_counts}), as one float array (for {!Stats.Cdf}): queue by
    queue, oldest first. *)
let latencies_since t marks =
  let n =
    Array.fold_left (fun a qs -> a + Samples.length qs.lats - marks.(qs.q)) 0 t.qs
  in
  let out = Array.make n 0.0 in
  let pos = ref 0 in
  Array.iter
    (fun qs ->
      for i = marks.(qs.q) to Samples.length qs.lats - 1 do
        out.(!pos) <- float_of_int (Samples.get qs.lats i);
        incr pos
      done)
    t.qs;
  out

(** All queues' latencies as one float array (for {!Stats.Cdf}). *)
let all_latencies t = latencies_since t (Array.make (Array.length t.qs) 0)

(** The /proc/carat/net rendering: one row per RX queue — driver-side
    delivery counters, device-side drop counters, and the NAPI loop's
    own accounting. *)
let render t =
  let b = Buffer.create 512 in
  Buffer.add_string b "carat net: RX queues (NAPI)\n";
  Printf.bprintf b "  %3s %8s %10s %8s %6s %6s %8s %7s %6s\n" "q" "frames"
    "bytes" "dropped" "irqs" "polls" "exhaust" "rearms" "kicks";
  Array.iter
    (fun qs ->
      Printf.bprintf b "  %3d %8d %10d %8d %6d %6d %8d %7d %6d\n" qs.q
        (Nic.Device.rxq_frames t.device ~q:qs.q)
        (Nic.Device.rxq_bytes t.device ~q:qs.q)
        (Nic.Device.rxq_dropped t.device ~q:qs.q)
        qs.irqs qs.polls qs.budget_exhausted qs.rearms qs.timer_kicks)
    t.qs;
  Printf.bprintf b "rss_queues %d rdt_rejects %d\n"
    (Nic.Device.rss_queues t.device)
    (Nic.Device.rdt_rejects t.device);
  Buffer.contents b
