(* NIC: register file semantics, DMA TX ring, drain timing, and the KIR
   driver generated by Driver_gen, executed through the VM. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fresh () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Interp.install k);
  k

(* a testbed with device + raw (unguarded) driver loaded *)
let setup ?(ring = 8) ?(stall_prob = 0.0) () =
  let k = fresh () in
  let dev = Nic.Device.create ~stall_prob k in
  let drv = Nic.Driver_gen.generate () in
  (match Kernel.insmod k drv with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  let rc =
    Kernel.call_symbol k "e1000e_probe" [| Nic.Device.mmio_base dev; ring |]
  in
  checki "probe ok" 0 rc;
  (k, dev)

let xmit k buf len = Kernel.call_symbol k "e1000e_xmit_frame" [| buf; len |]

let frame_buf k content =
  let buf = Kernel.kmalloc k ~size:2048 in
  Kernel.write_string k ~addr:buf content;
  buf

(* ---------- device model ---------- *)

let test_regs_scratch () =
  let k = fresh () in
  let dev = Nic.Device.create k in
  let base = Nic.Device.mmio_base dev in
  Kernel.write k ~addr:(base + Nic.Regs.scratch) ~size:4 0xFEED;
  checki "scratch rw" 0xFEED (Kernel.read k ~addr:(base + Nic.Regs.scratch) ~size:4)

let test_status_link () =
  let k = fresh () in
  let dev = Nic.Device.create k in
  let base = Nic.Device.mmio_base dev in
  let st = Kernel.read k ~addr:(base + Nic.Regs.status) ~size:4 in
  checkb "link up bit" true (st land Nic.Regs.status_lu <> 0);
  Nic.Device.set_link dev false;
  let st = Kernel.read k ~addr:(base + Nic.Regs.status) ~size:4 in
  checkb "link down" true (st land Nic.Regs.status_lu = 0)

let test_icr_read_to_clear () =
  let k, dev = setup () in
  let base = Nic.Device.mmio_base dev in
  let buf = frame_buf k (Net.Frame.build ~seq:0 ~size:64 ()) in
  ignore (xmit k buf 64);
  Machine.Model.add_cycles (Kernel.machine k) 100_000;
  Nic.Device.sync dev;
  let icr = Kernel.read k ~addr:(base + Nic.Regs.icr) ~size:4 in
  checkb "txdw set" true (icr land Nic.Regs.icr_txdw <> 0);
  let icr2 = Kernel.read k ~addr:(base + Nic.Regs.icr) ~size:4 in
  checki "cleared on read" 0 icr2

let test_device_reset () =
  let k, dev = setup () in
  let base = Nic.Device.mmio_base dev in
  Kernel.write k ~addr:(base + Nic.Regs.ctrl) ~size:4 Nic.Regs.ctrl_rst;
  checki "tdh reset" 0 (Kernel.read k ~addr:(base + Nic.Regs.tdh) ~size:4);
  checki "free slots 0 until reconfig" 0 (Nic.Device.free_slots dev)

(* ---------- transmit path ---------- *)

let test_single_transmit_bytes () =
  let k, dev = setup () in
  let payload = Net.Frame.build ~seq:7 ~size:128 () in
  let buf = frame_buf k payload in
  checki "xmit accepted" 0 (xmit k buf 128);
  (* allow wire time to elapse, then sync (the interrupt) *)
  Machine.Model.add_cycles (Kernel.machine k) 1_000_000;
  Nic.Device.sync dev;
  checki "one frame" 1 (Nic.Device.tx_frames dev);
  checki "bytes" 128 (Nic.Device.tx_bytes dev);
  (match Nic.Device.recent_frames dev with
  | [ f ] ->
    Alcotest.(check string) "exact bytes on the wire" payload f.Nic.Device.data;
    Alcotest.(check (option int)) "sequence" (Some 7)
      (Net.Frame.seq_of f.Nic.Device.data)
  | l -> Alcotest.failf "expected 1 frame, got %d" (List.length l))

let test_many_transmits_in_order () =
  let k, dev = setup ~ring:8 () in
  for i = 0 to 4 do
    let buf = frame_buf k (Net.Frame.build ~seq:i ~size:64 ()) in
    Machine.Model.add_cycles (Kernel.machine k) 10_000;
    checki "accepted" 0 (xmit k buf 64)
  done;
  Machine.Model.add_cycles (Kernel.machine k) 10_000_000;
  Nic.Device.sync dev;
  checki "all sent" 5 (Nic.Device.tx_frames dev);
  let seqs =
    List.rev_map (fun f -> Option.get (Net.Frame.seq_of f.Nic.Device.data))
      (Nic.Device.recent_frames dev)
  in
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3; 4 ] seqs

let test_ring_full_returns_busy () =
  let k, dev = setup ~ring:4 () in
  (* a 4-entry ring holds 3 in-flight descriptors; the device drains in
     simulated time, so saturate without letting time pass *)
  let buf = frame_buf k (Net.Frame.build ~seq:0 ~size:1500 ()) in
  let results = List.init 5 (fun _ -> xmit k buf 1500) in
  checkb "eventually busy" true (List.exists (fun r -> r = -1) results);
  (* busy counter in driver stats (index 3) *)
  let busy = Kernel.call_symbol k "e1000e_get_stats" [| 3 |] in
  checkb "busy counted" true (busy > 0);
  (* drain and the ring frees up *)
  Machine.Model.add_cycles (Kernel.machine k) 100_000_000;
  Nic.Device.sync dev;
  checki "accepted after drain" 0 (xmit k buf 1500)

let test_ring_wraps () =
  let k, dev = setup ~ring:4 () in
  for i = 0 to 9 do
    let buf = frame_buf k (Net.Frame.build ~seq:i ~size:64 ()) in
    Machine.Model.add_cycles (Kernel.machine k) 1_000_000;
    Nic.Device.sync dev;
    checki "wrap accepted" 0 (xmit k buf 64)
  done;
  Machine.Model.add_cycles (Kernel.machine k) 10_000_000;
  Nic.Device.sync dev;
  checki "all 10 through a 4-ring" 10 (Nic.Device.tx_frames dev)

let test_drain_respects_wire_time () =
  let k, dev = setup ~ring:8 () in
  let buf = frame_buf k (Net.Frame.build ~seq:0 ~size:1500 ()) in
  ignore (xmit k buf 1500);
  (* immediately after the doorbell, the frame needs ~12us of wire time:
     nothing should have completed yet *)
  Nic.Device.sync dev;
  checki "not done yet" 0 (Nic.Device.tx_frames dev);
  (* 1500B at 1 Gb/s is ~12.2 us = ~34k cycles at 2.8 GHz *)
  Machine.Model.add_cycles (Kernel.machine k) 60_000;
  Nic.Device.sync dev;
  checki "done after wire time" 1 (Nic.Device.tx_frames dev)

let test_dma_does_not_charge_cpu () =
  let k, dev = setup () in
  let buf = frame_buf k (Net.Frame.build ~seq:0 ~size:1500 ()) in
  ignore (xmit k buf 1500);
  Machine.Model.add_cycles (Kernel.machine k) 60_000;
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  Nic.Device.sync dev (* does descriptor + payload DMA *);
  checki "sync is free for the CPU" c0 (Machine.Model.cycles m)

let test_stall_injection () =
  let k, dev = setup ~ring:8 ~stall_prob:1.0 () in
  (* every frame pauses: after one frame's wire time nothing is done *)
  let buf = frame_buf k (Net.Frame.build ~seq:0 ~size:64 ()) in
  ignore (xmit k buf 64);
  Machine.Model.add_cycles (Kernel.machine k) 10_000;
  Nic.Device.sync dev;
  checki "stalled" 0 (Nic.Device.tx_frames dev);
  Machine.Model.add_cycles (Kernel.machine k) 10_000_000;
  Nic.Device.sync dev;
  checki "eventually sent" 1 (Nic.Device.tx_frames dev)

(* ---------- driver internals ---------- *)

let test_driver_module_shape () =
  let m = Nic.Driver_gen.generate () in
  (* the generator does not verify its output (every pipeline and insmod
     do), so check each configuration it can emit here *)
  List.iter
    (fun module_scale ->
      List.iter
        (fun with_rogue ->
          List.iter
            (fun (tx_queues, rx_queues) ->
              checkb
                (Printf.sprintf "verifies: scale %d, rogue %b, %d TX / %d RX"
                   module_scale with_rogue tx_queues rx_queues)
                true
                (Kir.Verify.is_valid
                   (Nic.Driver_gen.generate ~module_scale ~with_rogue ~tx_queues
                      ~rx_queues ())))
            [ (1, 0); (4, 0); (8, 4) ])
        [ false; true ])
    [ 1; 12; 40 ];
  checkb "no inline asm" true
    ((Passes.Attest.scan m).Passes.Attest.inline_asm = []);
  checkb "has xmit" true (Kir.Types.find_func m "e1000e_xmit_frame" <> None);
  checkb "has probe" true (Kir.Types.find_func m "e1000e_probe" <> None);
  checkb "substantial" true (Kir.Types.module_instr_count m > 300);
  (* scale knob grows the module *)
  let big = Nic.Driver_gen.generate ~module_scale:40 () in
  checkb "scale grows module" true
    (Kir.Types.module_instr_count big > Kir.Types.module_instr_count m)

let test_driver_stats () =
  let k, _ = setup () in
  for i = 0 to 2 do
    let buf = frame_buf k (Net.Frame.build ~seq:i ~size:100 ()) in
    Machine.Model.add_cycles (Kernel.machine k) 100_000;
    ignore (xmit k buf 100)
  done;
  checki "tx_packets" 3 (Kernel.call_symbol k "e1000e_get_stats" [| 0 |]);
  checki "tx_bytes" 300 (Kernel.call_symbol k "e1000e_get_stats" [| 1 |]);
  checki "unknown stat" (-1) (Kernel.call_symbol k "e1000e_get_stats" [| 9 |])

let test_driver_clean_tx () =
  let k, dev = setup ~ring:8 () in
  for i = 0 to 3 do
    let buf = frame_buf k (Net.Frame.build ~seq:i ~size:64 ()) in
    ignore (xmit k buf 64)
  done;
  Machine.Model.add_cycles (Kernel.machine k) 10_000_000;
  Nic.Device.sync dev;
  let cleaned = Kernel.call_symbol k "e1000e_clean_tx" [||] in
  checkb "cleaned descriptors" true (cleaned > 0)

let test_driver_self_test () =
  let k, _ = setup () in
  checki "scratch loopback" 0 (Kernel.call_symbol k "e1000e_self_test" [||])

let test_driver_irq_handler () =
  let k, dev = setup () in
  let buf = frame_buf k (Net.Frame.build ~seq:0 ~size:64 ()) in
  ignore (xmit k buf 64);
  Machine.Model.add_cycles (Kernel.machine k) 1_000_000;
  Nic.Device.sync dev;
  let icr = Kernel.call_symbol k "e1000e_irq_handler" [||] in
  checkb "saw txdw" true (icr land Nic.Regs.icr_txdw <> 0);
  let icr2 = Kernel.call_symbol k "e1000e_irq_handler" [||] in
  checki "idle irq" 0 icr2

let test_driver_checksum () =
  let k, _ = setup () in
  let buf = Kernel.kmalloc k ~size:8 in
  Kernel.write_string k ~addr:buf "\001\002\003\004";
  checki "sum" 10 (Kernel.call_symbol k "e1000e_checksum" [| buf; 4 |])

let test_driver_eeprom () =
  let k, _ = setup () in
  let v1 = Kernel.call_symbol k "e1000e_eeprom_read" [| 0 |] in
  let v2 = Kernel.call_symbol k "e1000e_eeprom_read" [| 0 |] in
  checki "deterministic" v1 v2;
  let v3 = Kernel.call_symbol k "e1000e_eeprom_read" [| 4 |] in
  checkb "word-dependent" true (v1 <> v3)

let test_driver_set_mac () =
  let k, _ = setup () in
  ignore (Kernel.call_symbol k "e1000e_set_mac" [| 0x0102; 0x03040506 |]);
  (* read the MAC back from the adapter global *)
  let adapter = Option.get (Kernel.symbol_address k "adapter") in
  checki "mac hi" 0x0102 (Kernel.read k ~addr:(adapter + 80) ~size:2)

(* ---------- receive path ---------- *)

let setup_rx ?(ring = 8) () =
  let k, dev = setup () in
  let rc = Kernel.call_symbol k "e1000e_setup_rx" [| ring; 2048 |] in
  checki "setup_rx ok" 0 rc;
  (k, dev)

let test_rx_deliver_and_poll () =
  let k, dev = setup_rx () in
  let frame = Net.Frame.build ~seq:9 ~size:256 () in
  checkb "injected" true (Nic.Device.rx_inject dev frame);
  checki "device counted" 1 (Nic.Device.rx_frames dev);
  let n = Kernel.call_symbol k "e1000e_poll_rx" [| 16 |] in
  checki "driver polled one" 1 n;
  checki "rx_packets stat" 1 (Kernel.call_symbol k "e1000e_get_stats" [| 4 |]);
  checki "rx_bytes stat" 256 (Kernel.call_symbol k "e1000e_get_stats" [| 5 |])

let test_rx_payload_lands_in_buffer () =
  let k, dev = setup_rx () in
  let frame = Net.Frame.build ~seq:77 ~size:128 () in
  ignore (Nic.Device.rx_inject dev frame);
  (* buffer address is in the first descriptor *)
  let adapter = Option.get (Kernel.symbol_address k "adapter") in
  let ring = Kernel.read k ~addr:(adapter + 96) ~size:8 in
  let buf = Kernel.read k ~addr:ring ~size:8 in
  Alcotest.(check string) "payload DMA'd in" frame
    (Kernel.read_string k ~addr:buf ~len:128)

let test_rx_budget_and_order () =
  let k, dev = setup_rx () in
  for i = 0 to 4 do
    ignore (Nic.Device.rx_inject dev (Net.Frame.build ~seq:i ~size:64 ()))
  done;
  checki "budget respected" 3 (Kernel.call_symbol k "e1000e_poll_rx" [| 3 |]);
  checki "remainder" 2 (Kernel.call_symbol k "e1000e_poll_rx" [| 16 |]);
  checki "all counted" 5 (Kernel.call_symbol k "e1000e_get_stats" [| 4 |])

let test_rx_drop_when_no_buffers () =
  let k, dev = setup_rx ~ring:4 () in
  (* 3 buffers posted (entries-1); the 4th frame has nowhere to go *)
  let sent = ref 0 in
  for i = 0 to 3 do
    if Nic.Device.rx_inject dev (Net.Frame.build ~seq:i ~size:64 ()) then
      incr sent
  done;
  checki "three delivered" 3 !sent;
  checki "one dropped" 1 (Nic.Device.rx_dropped dev);
  (* polling recycles buffers; new frames flow again *)
  ignore (Kernel.call_symbol k "e1000e_poll_rx" [| 16 |]);
  checkb "recycled" true
    (Nic.Device.rx_inject dev (Net.Frame.build ~seq:9 ~size:64 ()))

let test_rx_ring_wraps () =
  let k, dev = setup_rx ~ring:4 () in
  for i = 0 to 9 do
    checkb "inject" true
      (Nic.Device.rx_inject dev (Net.Frame.build ~seq:i ~size:64 ()));
    checki "poll" 1 (Kernel.call_symbol k "e1000e_poll_rx" [| 4 |])
  done;
  checki "ten through a 4-ring" 10
    (Kernel.call_symbol k "e1000e_get_stats" [| 4 |])

let test_rx_without_setup_drops () =
  let _, dev = setup () in
  checkb "dropped" false
    (Nic.Device.rx_inject dev (Net.Frame.build ~seq:0 ~size:64 ()));
  checki "counted as drop" 1 (Nic.Device.rx_dropped dev)

let test_rx_irq_path () =
  let k, dev = setup_rx () in
  ignore (Nic.Device.rx_inject dev (Net.Frame.build ~seq:0 ~size:64 ()));
  checkb "interrupt pending" true (Nic.Device.pending_interrupt dev);
  let icr = Kernel.call_symbol k "e1000e_irq_handler" [||] in
  checkb "rxt0 cause" true (icr land Nic.Regs.icr_rxt0 <> 0);
  (* the handler's NAPI poll consumed it *)
  checki "polled by irq" 1 (Kernel.call_symbol k "e1000e_get_stats" [| 4 |])

let test_rdt_out_of_range_rejected () =
  let k, dev = setup_rx ~ring:8 () in
  let base = Nic.Device.mmio_base dev in
  checki "no rejects yet" 0 (Nic.Device.rdt_rejects dev);
  let before = Kernel.read k ~addr:(base + Nic.Regs.rdt) ~size:4 in
  (* a buggy (or hostile) driver posts a tail past the ring: the device
     must refuse it with a typed record, not wrap it into range *)
  Kernel.write k ~addr:(base + Nic.Regs.rdt) ~size:4 99;
  checki "tail unchanged" before
    (Kernel.read k ~addr:(base + Nic.Regs.rdt) ~size:4);
  checki "reject counted" 1 (Nic.Device.rdt_rejects dev);
  (match Nic.Device.last_rdt_error dev with
  | Some e ->
    checki "queue" 0 e.Nic.Device.rdt_queue;
    checki "value" 99 e.Nic.Device.rdt_value;
    checki "entries" 8 e.Nic.Device.rdt_entries
  | None -> Alcotest.fail "no rdt error recorded");
  (* an in-range tail still lands, without another reject *)
  Kernel.write k ~addr:(base + Nic.Regs.rdt) ~size:4 3;
  checki "valid tail accepted" 3
    (Kernel.read k ~addr:(base + Nic.Regs.rdt) ~size:4);
  checki "no extra reject" 1 (Nic.Device.rdt_rejects dev)

(* ---------- multi-queue receive ---------- *)

let setup_mq ?(queues = 4) ?(ring = 8) () =
  let k = fresh () in
  let dev = Nic.Device.create k in
  (match Kernel.insmod k (Nic.Driver_gen.generate ~rx_queues:queues ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  checki "probe ok" 0
    (Kernel.call_symbol k "e1000e_probe" [| Nic.Device.mmio_base dev; ring |]);
  for q = 0 to queues - 1 do
    checki "setup_rx_queue ok" 0
      (Kernel.call_symbol k "e1000e_setup_rx_queue" [| q; ring; 2048 |])
  done;
  ignore (Kernel.call_symbol k "e1000e_setup_rss" [| queues |]);
  (k, dev)

let test_rss_steering () =
  let _, dev = setup_mq ~queues:4 () in
  for hash = 0 to 7 do
    checkb "injected" true
      (Nic.Device.rx_inject ~hash dev (Net.Frame.build ~seq:hash ~size:64 ()))
  done;
  for q = 0 to 3 do
    checki "two frames per queue" 2 (Nic.Device.rxq_frames dev ~q)
  done;
  checki "steering is hash mod queues" 1 (Nic.Device.rx_queue_for dev ~hash:5)

let test_mq_rx_wraps () =
  let k, dev = setup_mq ~queues:4 ~ring:4 () in
  for i = 0 to 9 do
    checkb "inject" true
      (Nic.Device.rx_inject ~hash:3 dev (Net.Frame.build ~seq:i ~size:64 ()));
    checki "polled one" 1 (Kernel.call_symbol k "e1000e_napi_poll" [| 3; 4 |])
  done;
  checki "ten through a 4-ring" 10
    (Kernel.call_symbol k "e1000e_rx_stats_mq" [| 3; 0 |]);
  checki "other queues untouched" 0
    (Kernel.call_symbol k "e1000e_rx_stats_mq" [| 0; 0 |])

let test_mq_dd_eop_strict () =
  let k, dev = setup_mq ~queues:2 () in
  ignore (Nic.Device.rx_inject ~hash:1 dev (Net.Frame.build ~seq:0 ~size:64 ()));
  let qb = Option.get (Kernel.symbol_address k "adapter_rxq") + 64 in
  let ring = Kernel.read k ~addr:qb ~size:8 in
  let sta_addr = ring + Nic.Regs.rxd_sta_off in
  (* DD without EOP: a partial writeback the driver must not consume *)
  Kernel.write k ~addr:sta_addr ~size:1 Nic.Regs.sta_dd;
  checki "dd alone not consumed" 0
    (Kernel.call_symbol k "e1000e_napi_poll" [| 1; 16 |]);
  Kernel.write k ~addr:sta_addr ~size:1 (Nic.Regs.sta_dd lor Nic.Regs.sta_eop);
  checki "dd|eop consumed" 1 (Kernel.call_symbol k "e1000e_napi_poll" [| 1; 16 |])

let test_mq_refill_starvation_recovery () =
  let k, dev = setup_mq ~queues:2 ~ring:4 () in
  let base = Nic.Device.mmio_base dev in
  (* a 4-ring posts 3 buffers; frames 4 and 5 overrun *)
  let delivered = ref 0 in
  for i = 0 to 4 do
    if Nic.Device.rx_inject ~hash:0 dev (Net.Frame.build ~seq:i ~size:64 ())
    then incr delivered
  done;
  checki "three delivered" 3 !delivered;
  checki "two dropped" 2 (Nic.Device.rxq_dropped dev ~q:0);
  let icr = Kernel.read k ~addr:(base + Nic.Regs.icr) ~size:4 in
  checkb "RXO latched" true (icr land Nic.Regs.icr_rxo <> 0);
  checki "device dropped via driver stats" 2
    (Kernel.call_symbol k "e1000e_rx_stats_mq" [| 0; 4 |]);
  (* the poll loop's refill doorbell recovers the ring *)
  checki "drained" 3 (Kernel.call_symbol k "e1000e_napi_poll" [| 0; 16 |]);
  checkb "flows again after refill" true
    (Nic.Device.rx_inject ~hash:0 dev (Net.Frame.build ~seq:9 ~size:64 ()))

let test_rogue_peek_flag () =
  let m = Nic.Driver_gen.generate ~with_rogue:true () in
  checkb "rogue entry present" true
    (Kir.Types.find_func m "e1000e_debug_peek" <> None);
  let m2 = Nic.Driver_gen.generate () in
  checkb "absent by default" true
    (Kir.Types.find_func m2 "e1000e_debug_peek" = None)

let () =
  Alcotest.run "nic"
    [
      ( "device",
        [
          Alcotest.test_case "scratch reg" `Quick test_regs_scratch;
          Alcotest.test_case "status/link" `Quick test_status_link;
          Alcotest.test_case "ICR read-to-clear" `Quick test_icr_read_to_clear;
          Alcotest.test_case "reset" `Quick test_device_reset;
        ] );
      ( "transmit",
        [
          Alcotest.test_case "single frame bytes" `Quick test_single_transmit_bytes;
          Alcotest.test_case "fifo order" `Quick test_many_transmits_in_order;
          Alcotest.test_case "ring full busy" `Quick test_ring_full_returns_busy;
          Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
          Alcotest.test_case "wire time" `Quick test_drain_respects_wire_time;
          Alcotest.test_case "DMA free for CPU" `Quick test_dma_does_not_charge_cpu;
          Alcotest.test_case "stall injection" `Quick test_stall_injection;
        ] );
      ( "receive",
        [
          Alcotest.test_case "deliver and poll" `Quick test_rx_deliver_and_poll;
          Alcotest.test_case "payload in buffer" `Quick test_rx_payload_lands_in_buffer;
          Alcotest.test_case "budget and order" `Quick test_rx_budget_and_order;
          Alcotest.test_case "drop when full" `Quick test_rx_drop_when_no_buffers;
          Alcotest.test_case "ring wraps" `Quick test_rx_ring_wraps;
          Alcotest.test_case "no setup drops" `Quick test_rx_without_setup_drops;
          Alcotest.test_case "irq path" `Quick test_rx_irq_path;
          Alcotest.test_case "rdt out-of-range rejected" `Quick
            test_rdt_out_of_range_rejected;
        ] );
      ( "multi-queue rx",
        [
          Alcotest.test_case "rss steering" `Quick test_rss_steering;
          Alcotest.test_case "ring wraps" `Quick test_mq_rx_wraps;
          Alcotest.test_case "dd|eop strict" `Quick test_mq_dd_eop_strict;
          Alcotest.test_case "refill starvation recovery" `Quick
            test_mq_refill_starvation_recovery;
        ] );
      ( "driver",
        [
          Alcotest.test_case "module shape" `Quick test_driver_module_shape;
          Alcotest.test_case "stats" `Quick test_driver_stats;
          Alcotest.test_case "clean_tx" `Quick test_driver_clean_tx;
          Alcotest.test_case "self test" `Quick test_driver_self_test;
          Alcotest.test_case "irq handler" `Quick test_driver_irq_handler;
          Alcotest.test_case "checksum" `Quick test_driver_checksum;
          Alcotest.test_case "eeprom" `Quick test_driver_eeprom;
          Alcotest.test_case "set mac" `Quick test_driver_set_mac;
          Alcotest.test_case "rogue flag" `Quick test_rogue_peek_flag;
        ] );
    ]
