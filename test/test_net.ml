(* Net: frame construction, the sendmsg path, pktgen measurement. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let setup ?(ring = 64) ?(stall_prob = 0.0) () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Interp.install k);
  let dev = Nic.Device.create ~stall_prob k in
  (match Kernel.insmod k (Nic.Driver_gen.generate ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  let stack = Net.Netstack.create k dev in
  Net.Netstack.bring_up stack ~ring_entries:ring;
  (k, dev, stack)

(* ---------- frames ---------- *)

let test_frame_layout () =
  let f = Net.Frame.build ~seq:5 ~size:128 () in
  checki "size" 128 (String.length f);
  Alcotest.(check (option int)) "seq" (Some 5) (Net.Frame.seq_of f);
  Alcotest.(check (option int)) "ethertype" (Some Net.Frame.ethertype_experimental)
    (Net.Frame.ethertype_of f);
  (* destination mac in the first six bytes *)
  checki "dst first byte" 0x02 (Char.code f.[0])

let test_frame_min_size () =
  match Net.Frame.build ~seq:0 ~size:10 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undersized frame accepted"

let test_frame_custom_fields () =
  let f =
    Net.Frame.build ~dst:Net.Frame.broadcast ~ethertype:0x0800 ~seq:1 ~size:64 ()
  in
  checki "broadcast" 0xff (Char.code f.[0]);
  Alcotest.(check (option int)) "ethertype" (Some 0x0800) (Net.Frame.ethertype_of f)

let prop_frame_seq_roundtrip =
  QCheck.Test.make ~name:"frame sequence round-trips" ~count:200
    QCheck.(pair (int_bound 0xFFFFFF) (int_range 64 1500))
    (fun (seq, size) ->
      Net.Frame.seq_of (Net.Frame.build ~seq ~size ()) = Some seq)

let test_mac_to_string () =
  Alcotest.(check string) "format" "ff:ff:ff:ff:ff:ff"
    (Net.Frame.mac_to_string Net.Frame.broadcast)

(* ---------- netstack ---------- *)

let test_sendmsg_delivers_payload () =
  let k, dev, stack = setup () in
  let frame = Net.Frame.build ~seq:42 ~size:200 () in
  let ub = Kernel.map_user k ~size:2048 in
  Kernel.write_string k ~addr:ub frame;
  checki "bytes sent" 200 (Net.Netstack.sendmsg stack ~user_buf:ub ~len:200);
  Machine.Model.add_cycles (Kernel.machine k) 1_000_000;
  Nic.Device.sync dev;
  (match Nic.Device.recent_frames dev with
  | f :: _ ->
    Alcotest.(check string) "payload survived the stack" frame f.Nic.Device.data
  | [] -> Alcotest.fail "nothing on the wire");
  checki "sent counter" 1 (Net.Netstack.sent stack)

let test_sendmsg_blocks_on_tiny_ring () =
  let k, _, stack = setup ~ring:4 () in
  let ub = Kernel.map_user k ~size:2048 in
  Kernel.write_string k ~addr:ub (Net.Frame.build ~seq:0 ~size:1500 ());
  (* flood: more packets than ring slots without giving time *)
  for _ = 1 to 12 do
    ignore (Net.Netstack.sendmsg stack ~user_buf:ub ~len:1500)
  done;
  checkb "blocked at least once" true (Net.Netstack.busy_retries stack > 0);
  checki "all eventually sent" 12 (Net.Netstack.sent stack)

let test_sendmsg_charges_cycles () =
  let k, _, stack = setup () in
  let ub = Kernel.map_user k ~size:2048 in
  Kernel.write_string k ~addr:ub (Net.Frame.build ~seq:0 ~size:128 ());
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  ignore (Net.Netstack.sendmsg stack ~user_buf:ub ~len:128);
  let dt = Machine.Model.cycles m - c0 in
  checkb "at least the syscall cost" true
    (dt >= Machine.Presets.r350.Machine.Model.syscall_overhead);
  checkb "not absurd" true (dt < 100_000)

(* ---------- graceful degradation ---------- *)

let setup_with_lm ?(ring = 64) () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Interp.install k);
  let dev = Nic.Device.create k in
  let lm =
    match Kernel.insmod k (Nic.Driver_gen.generate ()) with
    | Ok lm -> lm
    | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e)
  in
  let stack = Net.Netstack.create k dev in
  Net.Netstack.bring_up stack ~ring_entries:ring;
  (k, stack, lm)

let test_sendmsg_ring_full_typed_error () =
  let k, stack, _ = setup_with_lm ~ring:4 () in
  (* no retry budget: the first busy ring surfaces as a typed error
     instead of spinning *)
  Net.Netstack.set_max_retries stack 0;
  let ub = Kernel.map_user k ~size:2048 in
  Kernel.write_string k ~addr:ub (Net.Frame.build ~seq:0 ~size:1500 ());
  let rec flood n =
    if n = 0 then Alcotest.fail "ring never filled"
    else
      match Net.Netstack.try_sendmsg stack ~user_buf:ub ~len:1500 with
      | Ok _ -> flood (n - 1)
      | Error (Net.Netstack.Ring_full_timeout tries) ->
        checki "gave up after max_retries" 0 tries
      | Error e ->
        Alcotest.failf "wrong error: %s" (Net.Netstack.send_error_to_string e)
  in
  flood 32;
  checkb "error counted" true (Net.Netstack.send_errors stack > 0);
  checkb "kernel alive" true (Kernel.panic_state k = None)

let test_sendmsg_bounded_retry_succeeds () =
  (* with a retry budget, the backoff gives the device time to drain and
     the same flood goes through *)
  let k, stack, _ = setup_with_lm ~ring:4 () in
  let ub = Kernel.map_user k ~size:2048 in
  Kernel.write_string k ~addr:ub (Net.Frame.build ~seq:0 ~size:1500 ());
  for _ = 1 to 12 do
    match Net.Netstack.try_sendmsg stack ~user_buf:ub ~len:1500 with
    | Ok n -> checki "full frame" 1500 n
    | Error e ->
      Alcotest.failf "send failed: %s" (Net.Netstack.send_error_to_string e)
  done;
  checki "no errors" 0 (Net.Netstack.send_errors stack)

let test_sendmsg_quarantined_driver () =
  let k, stack, lm = setup_with_lm () in
  let ub = Kernel.map_user k ~size:2048 in
  Kernel.write_string k ~addr:ub (Net.Frame.build ~seq:0 ~size:128 ());
  checki "first send ok" 128 (Net.Netstack.sendmsg stack ~user_buf:ub ~len:128);
  Kernel.quarantine_module k lm ~reason:"test";
  (match Net.Netstack.try_sendmsg stack ~user_buf:ub ~len:128 with
  | Error Net.Netstack.Driver_quarantined -> ()
  | Ok _ -> Alcotest.fail "send succeeded through a quarantined driver"
  | Error e ->
    Alcotest.failf "wrong error: %s" (Net.Netstack.send_error_to_string e));
  (* the raising variant reports the same thing *)
  (match Net.Netstack.sendmsg stack ~user_buf:ub ~len:128 with
  | exception Net.Netstack.Send_failed Net.Netstack.Driver_quarantined -> ()
  | _ -> Alcotest.fail "expected Send_failed");
  checkb "kernel alive" true (Kernel.panic_state k = None)

let test_pktgen_degrades_on_quarantine () =
  let k, stack, lm = setup_with_lm () in
  Kernel.quarantine_module k lm ~reason:"test";
  let r =
    Net.Pktgen.run stack { Net.Pktgen.default_config with count = 50 }
  in
  checki "nothing sent" 0 r.Net.Pktgen.sent;
  checkb "error reported" true
    (r.Net.Pktgen.error = Some Net.Netstack.Driver_quarantined);
  checki "latency array matches" 0 (Array.length r.Net.Pktgen.latencies);
  checkb "kernel alive" true (Kernel.panic_state k = None)

(* ---------- NAPI receive ---------- *)

let setup_napi ?(queues = 2) ?(ring = 16) ?(budget = 32) ?(coalesce = 1)
    ?(timer_passes = 4) () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Interp.install k);
  let dev = Nic.Device.create k in
  (match Kernel.insmod k (Nic.Driver_gen.generate ~rx_queues:queues ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  let stack = Net.Netstack.create k dev in
  Net.Netstack.bring_up stack ~ring_entries:64;
  let rx = Net.Rx.create ~budget ~coalesce ~timer_passes k dev ~queues in
  Net.Rx.bring_up rx ~ring_entries:ring ~bufsz:2048;
  (k, dev, rx)

let test_napi_budget_exhaustion_and_rearm () =
  let _, dev, rx = setup_napi ~budget:4 ~coalesce:1 () in
  for i = 0 to 9 do
    ignore (Nic.Device.rx_inject ~hash:0 dev (Net.Frame.build ~seq:i ~size:64 ()))
  done;
  (* pass 1: take the irq (masking the queue), consume a budget's worth *)
  checki "first pass consumes the budget" 4 (Net.Rx.service rx ~q:0);
  checki "one interrupt" 1 (Net.Rx.irqs rx ~q:0);
  (* passes 2-3: still scheduled, no new interrupt while masked *)
  checki "second pass" 4 (Net.Rx.service rx ~q:0);
  checki "third pass drains the rest" 2 (Net.Rx.service rx ~q:0);
  checki "still one interrupt" 1 (Net.Rx.irqs rx ~q:0);
  checki "two exhausted passes" 2 (Net.Rx.budget_exhausted rx ~q:0);
  checki "one re-arm" 1 (Net.Rx.rearms rx ~q:0);
  checki "all frames through" 10 (Net.Rx.frames rx ~q:0);
  (* re-armed: the next frame raises a fresh interrupt *)
  ignore (Nic.Device.rx_inject ~hash:0 dev (Net.Frame.build ~seq:10 ~size:64 ()));
  checki "consumed after re-arm" 1 (Net.Rx.service rx ~q:0);
  checki "second interrupt" 2 (Net.Rx.irqs rx ~q:0)

let test_napi_coalescing_timer_kick () =
  let _, dev, rx = setup_napi ~coalesce:4 ~timer_passes:2 () in
  (* two frames stay below the 4-frame coalescing threshold: no cause *)
  for i = 0 to 1 do
    ignore (Nic.Device.rx_inject ~hash:0 dev (Net.Frame.build ~seq:i ~size:64 ()))
  done;
  checki "no irq below threshold" 0 (Net.Rx.service rx ~q:0);
  (* the second idle pass fires the delay timer; the third delivers *)
  checki "timer pass" 0 (Net.Rx.service rx ~q:0);
  checki "tail batch delivered" 2 (Net.Rx.service rx ~q:0);
  checki "one timer kick" 1 (Net.Rx.timer_kicks rx ~q:0);
  checki "one interrupt" 1 (Net.Rx.irqs rx ~q:0)

let prop_rx_dma_byte_identity =
  let k, dev, rx = setup_napi ~queues:2 ~ring:16 () in
  let adapter_rxq = Option.get (Kernel.symbol_address k "adapter_rxq") in
  QCheck.Test.make ~name:"RX payloads survive DMA byte-identically" ~count:60
    QCheck.(triple (int_bound 0xFFFFFF) (int_range 64 1500) (int_bound 1000))
    (fun (seq, size, hash) ->
      let frame = Net.Frame.build ~seq ~size () in
      let q = Nic.Device.rx_queue_for dev ~hash in
      let qb = adapter_rxq + (q * 64) in
      let ring = Kernel.read k ~addr:qb ~size:8 in
      let next = Kernel.read k ~addr:(qb + 16) ~size:8 in
      let ok = Nic.Device.rx_inject ~hash dev frame in
      (* the frame lands in the buffer of the driver's next descriptor *)
      let buf =
        Kernel.read k ~addr:(ring + (next * Nic.Regs.desc_size)) ~size:8
      in
      let got = Kernel.read_string k ~addr:buf ~len:size in
      ignore (Net.Rx.flush rx ~q : int);
      ok && got = frame)

(* The per-queue latency sample store against an [int list] reference:
   batches of 0 to 3 chunks' worth of samples per queue, so appends cross
   chunk boundaries, and one sample in eight at or beyond the int32 range
   a chunk holds. After each batch, every queue reads back oldest first,
   [all_latencies] holds the same samples, and the slice since the
   batch's marks is each queue's new suffix. *)
let prop_rx_samples_match_list =
  let queues = 3 and chunk = Net.Rx.Samples.chunk in
  let i31 = 1 lsl 31 in
  let wide = [| i31 - 1; i31; i31 + 1; -i31; -i31 + 1; -i31 - 1; max_int; min_int; -5 |] in
  let k, dev, _ = setup_napi ~queues () in
  QCheck.Test.make ~name:"RX sample store matches a list" ~count:25
    QCheck.(
      pair (int_bound 1_000_000)
        (list_of_size Gen.(1 -- 4)
           (array_of_size (Gen.return queues) (int_bound (3 * chunk)))))
    (fun (seed, batches) ->
      let rng = Random.State.make [| seed |] in
      let rx = Net.Rx.create k dev ~queues in
      let reference = Array.make queues [] in
      List.for_all
        (fun counts ->
          let marks = Net.Rx.sample_counts rx in
          let sample () =
            if Random.State.int rng 8 > 0 then Random.State.int rng 1_000_000
            else wide.(Random.State.int rng (Array.length wide))
          in
          let fresh = Array.map (fun n -> List.init n (fun _ -> sample ())) counts in
          Array.iteri
            (fun q l ->
              List.iter (Net.Rx.Samples.push rx.Net.Rx.qs.(q).Net.Rx.lats) l;
              reference.(q) <- reference.(q) @ l)
            fresh;
          let floats l = List.map float_of_int l in
          let sorted a = List.sort compare (Array.to_list a) in
          List.for_all
            (fun q -> Net.Rx.latencies rx ~q = reference.(q))
            (List.init queues Fun.id)
          && sorted (Net.Rx.all_latencies rx)
             = List.sort compare (floats (List.concat (Array.to_list reference)))
          && Array.to_list (Net.Rx.latencies_since rx marks)
             = floats (List.concat (Array.to_list fresh)))
        batches)

(* Four bytes per sample: 100,000 samples on one queue cost their
   chunks, at most one of them partly empty, and a short spine; a sample
   outside the int32 range still reads back exactly. *)
let test_rx_samples_footprint () =
  let s = Net.Rx.Samples.create () in
  for i = 1 to 100_000 do
    Net.Rx.Samples.push s i
  done;
  let words = Obj.reachable_words (Obj.repr s) in
  checkb (Printf.sprintf "%d words for 100,000 samples" words) true (words <= 52_000);
  checki "last sample" 100_000 (Net.Rx.Samples.get s 99_999);
  let i31 = 1 lsl 31 in
  List.iteri
    (fun k v ->
      Net.Rx.Samples.push s v;
      checki (Printf.sprintf "wide sample %d" v) v (Net.Rx.Samples.get s (100_000 + k)))
    [ max_int; min_int; i31; -i31; -5 ]

let test_deny_policy_blocks_rx () =
  (* the other half of the DMA property: with write permission on the
     kernel half revoked, the guarded driver cannot walk its own RX ring
     — the module quarantines and zero frames are delivered *)
  let config =
    {
      Smp_testbed.default_config with
      cpus = 1;
      rx_queues = 1;
      rx_coalesce = 1;
      on_deny = Policy.Policy_module.Quarantine;
      seed = 5;
    }
  in
  let tb = Smp_testbed.create ~config () in
  let dev = Smp_testbed.device tb in
  let rx = Option.get (Smp_testbed.rx tb) in
  ignore (Nic.Device.rx_inject dev (Net.Frame.build ~seq:0 ~size:64 ()));
  checki "delivered while allowed" 1 (Net.Rx.service rx ~q:0);
  let ro =
    [
      Policy.Region.v ~tag:"kernel-ro" ~base:Kernel.Layout.kernel_base
        ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_read ();
      Policy.Region.v ~tag:"user-low-half" ~base:0x0
        ~len:Kernel.Layout.kernel_base ~prot:0 ();
    ]
  in
  Policy.Policy_module.set_policy (Smp_testbed.policy_module tb) ro;
  for i = 1 to 5 do
    ignore (Nic.Device.rx_inject dev (Net.Frame.build ~seq:i ~size:64 ()))
  done;
  ignore (Net.Rx.service rx ~q:0 : int);
  ignore (Net.Rx.service rx ~q:0 : int);
  checki "zero frames after revocation" 1 (Net.Rx.frames rx ~q:0);
  checkb "driver quarantined" true
    (Kernel.quarantine_records (Smp_testbed.kernel tb) <> []);
  checkb "kernel alive" true (Kernel.panic_state (Smp_testbed.kernel tb) = None)

(* ---------- pktgen ---------- *)

let test_pktgen_counts () =
  let _, dev, stack = setup () in
  let r =
    Net.Pktgen.run stack
      { Net.Pktgen.default_config with count = 50; size = 128 }
  in
  checki "sent" 50 r.Net.Pktgen.sent;
  checki "latencies recorded" 50 (Array.length r.Net.Pktgen.latencies);
  checkb "cycles positive" true (r.Net.Pktgen.cycles > 0);
  checkb "pps positive" true (r.Net.Pktgen.pps > 0.0);
  Machine.Model.add_cycles (Kernel.machine stack.Net.Netstack.kernel) 10_000_000;
  Nic.Device.sync dev;
  checki "frames on the wire" 50 (Nic.Device.tx_frames dev)

let test_pktgen_latency_reasonable () =
  let _, _, stack = setup () in
  ignore
    (Net.Pktgen.run stack
       { Net.Pktgen.default_config with count = 100; size = 128 });
  let r =
    Net.Pktgen.run stack
      { Net.Pktgen.default_config with count = 200; size = 128 }
  in
  let med =
    Stats.Summary.median (Array.map float_of_int r.Net.Pktgen.latencies)
  in
  (* the paper reports ~686 cycles; the model should be in that band *)
  checkb "median in the hundreds" true (med > 300.0 && med < 2000.0)

let test_pktgen_throughput_band () =
  let _, _, stack = setup () in
  ignore
    (Net.Pktgen.run stack
       { Net.Pktgen.default_config with count = 100; size = 128 });
  let r =
    Net.Pktgen.run stack
      { Net.Pktgen.default_config with count = 400; size = 128 }
  in
  (* the paper's figures are in the 90k-140k pps band *)
  checkb "pps plausible" true
    (r.Net.Pktgen.pps > 60_000.0 && r.Net.Pktgen.pps < 250_000.0)

let test_pktgen_deterministic_with_seed () =
  let run () =
    let _, _, stack = setup () in
    let r =
      Net.Pktgen.run stack
        { Net.Pktgen.default_config with count = 100; size = 128; seed = 9 }
    in
    (r.Net.Pktgen.cycles, r.Net.Pktgen.pps)
  in
  let a = run () and b = run () in
  checkb "bit-identical reruns" true (a = b)

let test_pktgen_size_affects_cycles () =
  let _, _, stack = setup () in
  ignore
    (Net.Pktgen.run stack
       { Net.Pktgen.default_config with count = 100; size = 64 });
  let small =
    Net.Pktgen.run stack
      { Net.Pktgen.default_config with count = 300; size = 64 }
  in
  let big =
    Net.Pktgen.run stack
      { Net.Pktgen.default_config with count = 300; size = 1500 }
  in
  checkb "bigger packets cost more cycles" true
    (big.Net.Pktgen.cycles > small.Net.Pktgen.cycles)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "layout" `Quick test_frame_layout;
          Alcotest.test_case "min size" `Quick test_frame_min_size;
          Alcotest.test_case "custom fields" `Quick test_frame_custom_fields;
          Alcotest.test_case "mac to string" `Quick test_mac_to_string;
          QCheck_alcotest.to_alcotest prop_frame_seq_roundtrip;
        ] );
      ( "netstack",
        [
          Alcotest.test_case "payload delivery" `Quick test_sendmsg_delivers_payload;
          Alcotest.test_case "blocks on tiny ring" `Quick test_sendmsg_blocks_on_tiny_ring;
          Alcotest.test_case "charges cycles" `Quick test_sendmsg_charges_cycles;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "ring-full typed error" `Quick
            test_sendmsg_ring_full_typed_error;
          Alcotest.test_case "bounded retry succeeds" `Quick
            test_sendmsg_bounded_retry_succeeds;
          Alcotest.test_case "quarantined driver" `Quick
            test_sendmsg_quarantined_driver;
          Alcotest.test_case "pktgen degrades" `Quick
            test_pktgen_degrades_on_quarantine;
        ] );
      ( "napi",
        [
          Alcotest.test_case "budget exhaustion and re-arm" `Quick
            test_napi_budget_exhaustion_and_rearm;
          Alcotest.test_case "coalescing timer kick" `Quick
            test_napi_coalescing_timer_kick;
          QCheck_alcotest.to_alcotest prop_rx_dma_byte_identity;
          QCheck_alcotest.to_alcotest prop_rx_samples_match_list;
          Alcotest.test_case "sample store footprint" `Quick
            test_rx_samples_footprint;
          Alcotest.test_case "deny policy blocks rx" `Quick
            test_deny_policy_blocks_rx;
        ] );
      ( "pktgen",
        [
          Alcotest.test_case "counts" `Quick test_pktgen_counts;
          Alcotest.test_case "latency band" `Quick test_pktgen_latency_reasonable;
          Alcotest.test_case "throughput band" `Quick test_pktgen_throughput_band;
          Alcotest.test_case "deterministic" `Quick test_pktgen_deterministic_with_seed;
          Alcotest.test_case "size scaling" `Quick test_pktgen_size_affects_cycles;
        ] );
    ]
