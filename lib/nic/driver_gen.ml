(** Generator for the simulated e1000e network driver, written in KIR.

    This stands in for the ~19k-line in-tree e1000e driver the paper
    builds with and without the CARAT KOP compiler (§4). What matters for
    the evaluation is the *memory-reference pattern of the transmit path*:
    reads of adapter state, writes of transfer descriptors into the ring,
    ring-index updates, statistics, a header sniff, and the MMIO doorbell
    — each of which receives a guard after transformation. The DMA of the
    payload itself is done by the device and is never guarded.

    The module is generated un-transformed; callers run the CARAT KOP
    pipeline (or not, for the baseline) on the result. Generate two
    separate instances for an A/B pair — the transform mutates in place.

    [module_scale] pads the module with additional realistic cold
    functions (EEPROM/PHY/diagnostic style code) so that static transform
    accounting (the [tab-guards] experiment) operates on a driver of
    non-trivial size; the hot path is unaffected. *)

open Kir.Types
module Builder = Kir.Builder

(* adapter field offsets *)
let off_mmio = 0
let off_ring = 8
let off_entries = 16
let off_next_use = 24
let off_next_clean = 32
let off_tx_packets = 40
let off_tx_bytes = 48
let off_tx_errors = 56
let off_tx_busy = 64
let off_lock = 72
let off_mac = 80
(* RX side *)
let off_rx_ring = 96
let off_rx_entries = 104
let off_rx_next = 112
let off_rx_packets = 120
let off_rx_bytes = 128
let off_rx_bufsz = 136
let adapter_size = 160

let banner = "e1000e-sim: Intel(R) PRO/1000 network driver (KIR build)\n"
let unload_msg = "e1000e-sim: driver unloaded\n"

(* fixed register names used across blocks inside generated functions *)
let r_clean = "%rclean"
let r_use = "%ruse"
let r_count = "%rcount"
let r_sum = "%rsum"

let adapter = Sym "adapter"

let fld b off = Builder.gep b adapter (Imm off) ~scale:1

let load_fld b off = Builder.load b I64 (fld b off)
let store_fld b off v = Builder.store b I64 v (fld b off)

let declare_kernel_api b =
  List.iter
    (fun (name, arity) -> Builder.declare_extern b name ~arity)
    [
      ("printk", 2);
      ("memcpy", 3);
      ("memset", 3);
      ("kmalloc", 1);
      ("spin_lock", 1);
      ("spin_unlock", 1);
      ("get_cycles", 0);
      ("ndelay", 1);
    ]

let gen_io_helpers b =
  (* e1000e_io_write(off, val): MMIO store through the BAR mapping *)
  ignore
    (Builder.start_func b "e1000e_io_write"
       ~params:[ ("%off", I64); ("%val", I64) ]
       ~ret:None);
  let base = load_fld b off_mmio in
  let addr = Builder.gep b base (Reg "%off") ~scale:1 in
  Builder.store b I32 (Reg "%val") addr;
  Builder.ret b None;
  (* e1000e_io_read(off) *)
  ignore
    (Builder.start_func b "e1000e_io_read" ~params:[ ("%off", I64) ]
       ~ret:(Some I64));
  let base = load_fld b off_mmio in
  let addr = Builder.gep b base (Reg "%off") ~scale:1 in
  let v = Builder.load b I32 addr in
  Builder.ret b (Some v)

let gen_probe b =
  (* e1000e_probe(mmio_base, ring_entries): ring_entries must be a power
     of two (the index mask arithmetic relies on it, as in the real
     driver) *)
  ignore
    (Builder.start_func b "e1000e_probe"
       ~params:[ ("%mmio", I64); ("%entries", I64) ]
       ~ret:(Some I64));
  store_fld b off_mmio (Reg "%mmio");
  let ring_bytes = Builder.mul b I64 (Reg "%entries") (Imm Regs.desc_size) in
  let ring =
    match Builder.call b "kmalloc" [ ring_bytes ] with
    | Some v -> v
    | None -> assert false
  in
  store_fld b off_ring ring;
  store_fld b off_entries (Reg "%entries");
  store_fld b off_next_use (Imm 0);
  store_fld b off_next_clean (Imm 0);
  store_fld b off_tx_packets (Imm 0);
  store_fld b off_tx_bytes (Imm 0);
  store_fld b off_tx_errors (Imm 0);
  store_fld b off_tx_busy (Imm 0);
  (* zero the descriptor ring *)
  Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%entries") ~step:(Imm 1)
    (fun i ->
      let d = Builder.gep b ring i ~scale:Regs.desc_size in
      Builder.store b I64 (Imm 0) d;
      let d8 = Builder.gep b d (Imm 8) ~scale:1 in
      Builder.store b I64 (Imm 0) d8);
  (* program the device *)
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.tdbal; ring ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.tdbah; Imm 0 ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.tdlen; ring_bytes ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.tdh; Imm 0 ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.tdt; Imm 0 ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.tctl; Imm Regs.tctl_en ];
  Builder.ret b (Some (Imm 0))

let gen_clean_tx b =
  ignore (Builder.start_func b "e1000e_clean_tx" ~params:[] ~ret:(Some I64));
  let ring = load_fld b off_ring in
  let entries = load_fld b off_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let use = load_fld b off_next_use in
  let clean0 = load_fld b off_next_clean in
  Builder.mov_to b r_clean I64 clean0;
  Builder.mov_to b r_count I64 (Imm 0);
  let head = Builder.new_block b ~hint:"clean_head" () in
  let chk = Builder.new_block b ~hint:"clean_chk" () in
  let advance = Builder.new_block b ~hint:"clean_adv" () in
  let done_ = Builder.new_block b ~hint:"clean_done" () in
  Builder.br b head;
  Builder.position_at b head;
  let pending = Builder.icmp b Ne I64 (Reg r_clean) use in
  Builder.cond_br b pending ~if_true:chk ~if_false:done_;
  Builder.position_at b chk;
  let desc = Builder.gep b ring (Reg r_clean) ~scale:Regs.desc_size in
  let sta_addr = Builder.gep b desc (Imm Regs.desc_sta_off) ~scale:1 in
  let sta = Builder.load b I8 sta_addr in
  let dd = Builder.and_ b I64 sta (Imm Regs.sta_dd) in
  let is_done = Builder.icmp b Ne I64 dd (Imm 0) in
  Builder.cond_br b is_done ~if_true:advance ~if_false:done_;
  Builder.position_at b advance;
  Builder.store b I8 (Imm 0) sta_addr;
  let c1 = Builder.add b I64 (Reg r_clean) (Imm 1) in
  let c1m = Builder.and_ b I64 c1 mask in
  Builder.mov_to b r_clean I64 c1m;
  let n1 = Builder.add b I64 (Reg r_count) (Imm 1) in
  Builder.mov_to b r_count I64 n1;
  Builder.br b head;
  Builder.position_at b done_;
  store_fld b off_next_clean (Reg r_clean);
  Builder.ret b (Some (Reg r_count))

let gen_tx_avail b =
  ignore (Builder.start_func b "e1000e_tx_avail" ~params:[] ~ret:(Some I64));
  let entries = load_fld b off_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let use = load_fld b off_next_use in
  let clean = load_fld b off_next_clean in
  let diff = Builder.sub b I64 clean use in
  let diff1 = Builder.sub b I64 diff (Imm 1) in
  let wrapped = Builder.add b I64 diff1 entries in
  let avail = Builder.and_ b I64 wrapped mask in
  Builder.ret b (Some avail)

let gen_xmit b =
  (* e1000e_xmit_frame(buf, len) -> 0 ok | -1 ring full.

     The hot path does NOT clean the ring: completion processing is
     interrupt work (e1000e_irq_handler -> e1000e_clean_tx). Only when
     the ring looks full does xmit try an inline clean before reporting
     BUSY — the same shape as the real driver's maybe_stop_tx path. *)
  ignore
    (Builder.start_func b "e1000e_xmit_frame"
       ~params:[ ("%buf", I64); ("%len", I64) ]
       ~ret:(Some I64));
  let avail =
    match Builder.call b "e1000e_tx_avail" [] with
    | Some v -> v
    | None -> assert false
  in
  let full = Builder.icmp b Eq I64 avail (Imm 0) in
  let slow = Builder.new_block b ~hint:"tx_slow" () in
  let busy = Builder.new_block b ~hint:"tx_busy" () in
  let go = Builder.new_block b ~hint:"tx_go" () in
  Builder.cond_br b full ~if_true:slow ~if_false:go;
  (* slow path: clean, re-check *)
  Builder.position_at b slow;
  ignore (Builder.call b ~want_result:false "e1000e_clean_tx" []);
  let avail2 =
    match Builder.call b "e1000e_tx_avail" [] with
    | Some v -> v
    | None -> assert false
  in
  let still_full = Builder.icmp b Eq I64 avail2 (Imm 0) in
  Builder.cond_br b still_full ~if_true:busy ~if_false:go;
  Builder.position_at b busy;
  let nbusy = load_fld b off_tx_busy in
  let nbusy1 = Builder.add b I64 nbusy (Imm 1) in
  store_fld b off_tx_busy nbusy1;
  Builder.ret b (Some (Imm (-1)));
  Builder.position_at b go;
  let ring = load_fld b off_ring in
  let entries = load_fld b off_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let use = load_fld b off_next_use in
  (* fill the legacy descriptor *)
  let desc = Builder.gep b ring use ~scale:Regs.desc_size in
  Builder.store b I64 (Reg "%buf") desc;
  let len_addr = Builder.gep b desc (Imm Regs.desc_len_off) ~scale:1 in
  Builder.store b I16 (Reg "%len") len_addr;
  let cso_addr = Builder.gep b desc (Imm Regs.desc_cso_off) ~scale:1 in
  Builder.store b I8 (Imm 0) cso_addr;
  let cmd_addr = Builder.gep b desc (Imm Regs.desc_cmd_off) ~scale:1 in
  Builder.store b I8
    (Imm (Regs.cmd_eop lor Regs.cmd_ifcs lor Regs.cmd_rs))
    cmd_addr;
  let sta_addr = Builder.gep b desc (Imm Regs.desc_sta_off) ~scale:1 in
  Builder.store b I8 (Imm 0) sta_addr;
  (* sniff the EtherType for stats, as the real xmit path reads headers *)
  let et_addr = Builder.gep b (Reg "%buf") (Imm 12) ~scale:1 in
  let _ethertype = Builder.load b I16 et_addr in
  (* advance the producer index *)
  let use1 = Builder.add b I64 use (Imm 1) in
  let use1m = Builder.and_ b I64 use1 mask in
  store_fld b off_next_use use1m;
  (* statistics *)
  let pk = load_fld b off_tx_packets in
  let pk1 = Builder.add b I64 pk (Imm 1) in
  store_fld b off_tx_packets pk1;
  let by = load_fld b off_tx_bytes in
  let by1 = Builder.add b I64 by (Reg "%len") in
  store_fld b off_tx_bytes by1;
  (* doorbell *)
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.tdt; use1m ];
  Builder.ret b (Some (Imm 0))

let gen_irq_handler b =
  ignore
    (Builder.start_func b "e1000e_irq_handler" ~params:[] ~ret:(Some I64));
  let icr =
    match Builder.call b "e1000e_io_read" [ Imm Regs.icr ] with
    | Some v -> v
    | None -> assert false
  in
  let txdw = Builder.and_ b I64 icr (Imm Regs.icr_txdw) in
  let c = Builder.icmp b Ne I64 txdw (Imm 0) in
  Builder.if_then b c ~then_:(fun () ->
      ignore (Builder.call b ~want_result:false "e1000e_clean_tx" []));
  let rxt = Builder.and_ b I64 icr (Imm Regs.icr_rxt0) in
  let cr = Builder.icmp b Ne I64 rxt (Imm 0) in
  Builder.if_then b cr ~then_:(fun () ->
      ignore (Builder.call b ~want_result:false "e1000e_poll_rx" [ Imm 32 ]));
  Builder.ret b (Some icr)

let gen_self_test b =
  ignore (Builder.start_func b "e1000e_self_test" ~params:[] ~ret:(Some I64));
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.scratch; Imm 0xA55A ];
  let v =
    match Builder.call b "e1000e_io_read" [ Imm Regs.scratch ] with
    | Some v -> v
    | None -> assert false
  in
  let ok = Builder.icmp b Eq I64 v (Imm 0xA55A) in
  let r = Builder.select b ok (Imm 0) (Imm (-1)) in
  Builder.ret b (Some r)

let gen_set_mac b =
  (* e1000e_set_mac(hi, lo): hi = first 2 bytes, lo = last 4 *)
  ignore
    (Builder.start_func b "e1000e_set_mac"
       ~params:[ ("%hi", I64); ("%lo", I64) ]
       ~ret:None);
  let mac0 = fld b off_mac in
  Builder.store b I16 (Reg "%hi") mac0;
  let mac2 = fld b (off_mac + 2) in
  Builder.store b I32 (Reg "%lo") mac2;
  Builder.ret b None

let gen_get_stats b =
  ignore
    (Builder.start_func b "e1000e_get_stats" ~params:[ ("%which", I64) ]
       ~ret:(Some I64));
  let pkts = Builder.new_block b ~hint:"st_pkts" () in
  let bytes = Builder.new_block b ~hint:"st_bytes" () in
  let errors = Builder.new_block b ~hint:"st_errors" () in
  let busy = Builder.new_block b ~hint:"st_busy" () in
  let other = Builder.new_block b ~hint:"st_other" () in
  let rxp = Builder.new_block b ~hint:"st_rxp" () in
  let rxb = Builder.new_block b ~hint:"st_rxb" () in
  Builder.switch b (Reg "%which")
    [ (0, pkts); (1, bytes); (2, errors); (3, busy); (4, rxp); (5, rxb) ]
    ~default:other;
  Builder.position_at b rxp;
  let v = load_fld b off_rx_packets in
  Builder.ret b (Some v);
  Builder.position_at b rxb;
  let v = load_fld b off_rx_bytes in
  Builder.ret b (Some v);
  Builder.position_at b pkts;
  let v = load_fld b off_tx_packets in
  Builder.ret b (Some v);
  Builder.position_at b bytes;
  let v = load_fld b off_tx_bytes in
  Builder.ret b (Some v);
  Builder.position_at b errors;
  let v = load_fld b off_tx_errors in
  Builder.ret b (Some v);
  Builder.position_at b busy;
  let v = load_fld b off_tx_busy in
  Builder.ret b (Some v);
  Builder.position_at b other;
  Builder.ret b (Some (Imm (-1)))

let gen_checksum b =
  (* e1000e_checksum(buf, len): byte-wise sum — a guarded-load loop whose
     address is *not* loop-invariant (contrast for the hoist ablation) *)
  ignore
    (Builder.start_func b "e1000e_checksum"
       ~params:[ ("%buf", I64); ("%len", I64) ]
       ~ret:(Some I64));
  Builder.mov_to b r_sum I64 (Imm 0);
  Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%len") ~step:(Imm 1)
    (fun i ->
      let a = Builder.gep b (Reg "%buf") i ~scale:1 in
      let byte = Builder.load b I8 a in
      let s = Builder.add b I64 (Reg r_sum) byte in
      Builder.mov_to b r_sum I64 s);
  Builder.ret b (Some (Reg r_sum))

let gen_eeprom b =
  (* e1000e_eeprom_read(word): checksum a fixed EEPROM window — the guard
     on @eeprom's base is loop-invariant, so the hoist ablation can lift
     it *)
  ignore
    (Builder.start_func b "e1000e_eeprom_read" ~params:[ ("%word", I64) ]
       ~ret:(Some I64));
  let base = Builder.gep b (Sym "eeprom") (Reg "%word") ~scale:2 in
  Builder.mov_to b r_sum I64 (Imm 0);
  Builder.for_loop b ~init:(Imm 0) ~limit:(Imm 8) ~step:(Imm 1) (fun _i ->
      let v = Builder.load b I16 base in
      let s = Builder.add b I64 (Reg r_sum) v in
      Builder.mov_to b r_sum I64 s);
  Builder.ret b (Some (Reg r_sum))

let gen_setup_rx b =
  (* e1000e_setup_rx(entries, bufsz): allocate the RX ring and one
     receive buffer per slot, program the device, enable the receiver.
     entries must be a power of two. *)
  ignore
    (Builder.start_func b "e1000e_setup_rx"
       ~params:[ ("%entries", I64); ("%bufsz", I64) ]
       ~ret:(Some I64));
  let ring_bytes = Builder.mul b I64 (Reg "%entries") (Imm Regs.desc_size) in
  let ring =
    match Builder.call b "kmalloc" [ ring_bytes ] with
    | Some v -> v
    | None -> assert false
  in
  store_fld b off_rx_ring ring;
  store_fld b off_rx_entries (Reg "%entries");
  store_fld b off_rx_next (Imm 0);
  store_fld b off_rx_packets (Imm 0);
  store_fld b off_rx_bytes (Imm 0);
  store_fld b off_rx_bufsz (Reg "%bufsz");
  (* one buffer per descriptor *)
  Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%entries") ~step:(Imm 1)
    (fun i ->
      let buf =
        match Builder.call b "kmalloc" [ Reg "%bufsz" ] with
        | Some v -> v
        | None -> assert false
      in
      let d = Builder.gep b ring i ~scale:Regs.desc_size in
      Builder.store b I64 buf d;
      let sta = Builder.gep b d (Imm Regs.rxd_sta_off) ~scale:1 in
      Builder.store b I8 (Imm 0) sta);
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.rdbal; ring ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.rdlen; ring_bytes ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.rdh; Imm 0 ];
  (* hand the device all but one buffer, as the real driver does *)
  let last = Builder.sub b I64 (Reg "%entries") (Imm 1) in
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.rdt; last ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.rctl; Imm Regs.rctl_en ];
  Builder.ret b (Some (Imm 0))

let gen_poll_rx b =
  (* e1000e_poll_rx(budget) -> frames processed. NAPI-style polling:
     consume DD descriptors, sniff the EtherType (a guarded read of the
     payload the device DMA'd in), account, recycle the buffer. *)
  ignore
    (Builder.start_func b "e1000e_poll_rx" ~params:[ ("%budget", I64) ]
       ~ret:(Some I64));
  let ring = load_fld b off_rx_ring in
  let entries = load_fld b off_rx_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let next0 = load_fld b off_rx_next in
  Builder.mov_to b "%rxnext" I64 next0;
  Builder.mov_to b r_count I64 (Imm 0);
  let head = Builder.new_block b ~hint:"rx_head" () in
  let chk = Builder.new_block b ~hint:"rx_chk" () in
  let work = Builder.new_block b ~hint:"rx_work" () in
  let done_ = Builder.new_block b ~hint:"rx_done" () in
  Builder.br b head;
  Builder.position_at b head;
  let more = Builder.icmp b Slt I64 (Reg r_count) (Reg "%budget") in
  Builder.cond_br b more ~if_true:chk ~if_false:done_;
  Builder.position_at b chk;
  let desc = Builder.gep b ring (Reg "%rxnext") ~scale:Regs.desc_size in
  let sta_addr = Builder.gep b desc (Imm Regs.rxd_sta_off) ~scale:1 in
  let sta = Builder.load b I8 sta_addr in
  let dd = Builder.and_ b I64 sta (Imm Regs.sta_dd) in
  let ready = Builder.icmp b Ne I64 dd (Imm 0) in
  Builder.cond_br b ready ~if_true:work ~if_false:done_;
  Builder.position_at b work;
  let len_addr = Builder.gep b desc (Imm Regs.rxd_len_off) ~scale:1 in
  let len = Builder.load b I16 len_addr in
  let buf = Builder.load b I64 desc in
  (* touch the received headers, as eth_type_trans does *)
  let et_addr = Builder.gep b buf (Imm 12) ~scale:1 in
  let _ethertype = Builder.load b I16 et_addr in
  (* account *)
  let pk = load_fld b off_rx_packets in
  let pk1 = Builder.add b I64 pk (Imm 1) in
  store_fld b off_rx_packets pk1;
  let by = load_fld b off_rx_bytes in
  let by1 = Builder.add b I64 by len in
  store_fld b off_rx_bytes by1;
  (* recycle: clear status, hand the slot back *)
  Builder.store b I8 (Imm 0) sta_addr;
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.rdt; Reg "%rxnext" ];
  let nx = Builder.add b I64 (Reg "%rxnext") (Imm 1) in
  let nxm = Builder.and_ b I64 nx mask in
  Builder.mov_to b "%rxnext" I64 nxm;
  let c1 = Builder.add b I64 (Reg r_count) (Imm 1) in
  Builder.mov_to b r_count I64 c1;
  Builder.br b head;
  Builder.position_at b done_;
  store_fld b off_rx_next (Reg "%rxnext");
  Builder.ret b (Some (Reg r_count))

let gen_diag b =
  (* e1000e_diag_latency(): time one posted register write with the
     cycle counter — a realistic diagnostic that needs the privileged
     rdtsc builtin (the §5 intrinsic-guarding extension governs it) *)
  ignore
    (Builder.start_func b "e1000e_diag_latency" ~params:[] ~ret:(Some I64));
  let t0 =
    match Builder.intrinsic b ~want_result:true "rdtsc" [] with
    | Some v -> v
    | None -> assert false
  in
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.scratch; Imm 0x1234 ];
  let t1 =
    match Builder.intrinsic b ~want_result:true "rdtsc" [] with
    | Some v -> v
    | None -> assert false
  in
  let dt = Builder.sub b I64 t1 t0 in
  Builder.ret b (Some dt)

let gen_lifecycle b =
  ignore (Builder.start_func b "init_module" ~params:[] ~ret:(Some I64));
  Builder.call_unit b "printk"
    [ Sym "drv_banner"; Imm (String.length banner) ];
  Builder.ret b (Some (Imm 0));
  ignore (Builder.start_func b "cleanup_module" ~params:[] ~ret:(Some I64));
  Builder.call_unit b "printk"
    [ Sym "drv_unload"; Imm (String.length unload_msg) ];
  Builder.ret b (Some (Imm 0))

(** A deliberately rogue entry point: reads an arbitrary address and
    returns the value — the "debug backdoor" a malicious or buggy module
    might carry. Under CARAT KOP, calling it on a forbidden address trips
    the guard. *)
let gen_rogue_peek b =
  ignore
    (Builder.start_func b "e1000e_debug_peek" ~params:[ ("%addr", I64) ]
       ~ret:(Some I64));
  let v = Builder.load b I64 (Reg "%addr") in
  Builder.ret b (Some v);
  ignore
    (Builder.start_func b "e1000e_debug_poke"
       ~params:[ ("%addr", I64); ("%val", I64) ]
       ~ret:(Some I64));
  Builder.store b I64 (Reg "%val") (Reg "%addr");
  Builder.ret b (Some (Imm 0))

(** Cold padding functions that emulate the bulk of a real driver
    (PHY management, diagnostics, register dump tables). Never called on
    the hot path; they exist so the static transform statistics operate
    on a driver of realistic size. *)
let gen_cold_padding b ~scale =
  for k = 0 to scale - 1 do
    let name = Printf.sprintf "e1000e_phy_op_%d" k in
    ignore
      (Builder.start_func b name ~params:[ ("%arg", I64) ] ~ret:(Some I64));
    let scratch = Builder.alloca b 64 in
    Builder.mov_to b r_sum I64 (Reg "%arg");
    Builder.for_loop b ~init:(Imm 0) ~limit:(Imm 8) ~step:(Imm 1) (fun i ->
        let slot = Builder.gep b scratch i ~scale:8 in
        let x = Builder.mul b I64 (Reg r_sum) (Imm (2 * k + 3)) in
        let x2 = Builder.xor b I64 x (Imm (0x9e37 + k)) in
        Builder.store b I64 x2 slot;
        let back = Builder.load b I64 slot in
        let folded = Builder.add b I64 back i in
        Builder.mov_to b r_sum I64 folded);
    let wrapped = Builder.and_ b I64 (Reg r_sum) (Imm 0xFFFF) in
    Builder.ret b (Some wrapped)
  done

(* ------------------------------------------------------------------ *)
(* multi-queue TX (per-CPU queues over the one device)

   Per-queue adapter state lives in the [adapter_mq] global, one
   64-byte block per queue, accessed relative to a computed queue base —
   the same memory-reference pattern as the classic path, so the
   transform guards it identically. Queue [q]'s device registers sit at
   the classic offsets plus [q * Regs.txq_stride]. These functions are
   only generated for multi-queue builds ([tx_queues > 1]); the default
   module is byte-identical to the single-queue driver. *)

let mq_stride = 64
let mqf_ring = 0
let mqf_entries = 8
let mqf_next_use = 16
let mqf_next_clean = 24
let mqf_tx_packets = 32
let mqf_tx_bytes = 40
let mqf_tx_busy = 48

(* base of queue %q's adapter block *)
let mq_base b = Builder.gep b (Sym "adapter_mq") (Reg "%q") ~scale:mq_stride

let mq_fld b qb off = Builder.gep b qb (Imm off) ~scale:1
let mq_load b qb off = Builder.load b I64 (mq_fld b qb off)
let mq_store b qb off v = Builder.store b I64 v (mq_fld b qb off)

(* queue %q's register offset for classic register [reg] *)
let mq_reg b reg =
  let skew = Builder.mul b I64 (Reg "%q") (Imm Regs.txq_stride) in
  Builder.add b I64 skew (Imm reg)

let gen_setup_tx_queue b =
  (* e1000e_setup_tx_queue(q, entries): allocate and program queue q's
     ring (entries must be a power of two). TCTL enable is global and
     stays with e1000e_probe. *)
  ignore
    (Builder.start_func b "e1000e_setup_tx_queue"
       ~params:[ ("%q", I64); ("%entries", I64) ]
       ~ret:(Some I64));
  let qb = mq_base b in
  let ring_bytes = Builder.mul b I64 (Reg "%entries") (Imm Regs.desc_size) in
  let ring =
    match Builder.call b "kmalloc" [ ring_bytes ] with
    | Some v -> v
    | None -> assert false
  in
  mq_store b qb mqf_ring ring;
  mq_store b qb mqf_entries (Reg "%entries");
  mq_store b qb mqf_next_use (Imm 0);
  mq_store b qb mqf_next_clean (Imm 0);
  mq_store b qb mqf_tx_packets (Imm 0);
  mq_store b qb mqf_tx_bytes (Imm 0);
  mq_store b qb mqf_tx_busy (Imm 0);
  Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%entries") ~step:(Imm 1)
    (fun i ->
      let d = Builder.gep b ring i ~scale:Regs.desc_size in
      Builder.store b I64 (Imm 0) d;
      let d8 = Builder.gep b d (Imm 8) ~scale:1 in
      Builder.store b I64 (Imm 0) d8);
  Builder.call_unit b "e1000e_io_write" [ mq_reg b Regs.tdbal; ring ];
  Builder.call_unit b "e1000e_io_write" [ mq_reg b Regs.tdlen; ring_bytes ];
  Builder.call_unit b "e1000e_io_write" [ mq_reg b Regs.tdh; Imm 0 ];
  Builder.call_unit b "e1000e_io_write" [ mq_reg b Regs.tdt; Imm 0 ];
  Builder.ret b (Some (Imm 0))

let gen_clean_tx_mq b =
  ignore
    (Builder.start_func b "e1000e_clean_tx_mq" ~params:[ ("%q", I64) ]
       ~ret:(Some I64));
  let qb = mq_base b in
  let ring = mq_load b qb mqf_ring in
  let entries = mq_load b qb mqf_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let use = mq_load b qb mqf_next_use in
  let clean0 = mq_load b qb mqf_next_clean in
  Builder.mov_to b r_clean I64 clean0;
  Builder.mov_to b r_count I64 (Imm 0);
  let head = Builder.new_block b ~hint:"mqclean_head" () in
  let chk = Builder.new_block b ~hint:"mqclean_chk" () in
  let advance = Builder.new_block b ~hint:"mqclean_adv" () in
  let done_ = Builder.new_block b ~hint:"mqclean_done" () in
  Builder.br b head;
  Builder.position_at b head;
  let pending = Builder.icmp b Ne I64 (Reg r_clean) use in
  Builder.cond_br b pending ~if_true:chk ~if_false:done_;
  Builder.position_at b chk;
  let desc = Builder.gep b ring (Reg r_clean) ~scale:Regs.desc_size in
  let sta_addr = Builder.gep b desc (Imm Regs.desc_sta_off) ~scale:1 in
  let sta = Builder.load b I8 sta_addr in
  let dd = Builder.and_ b I64 sta (Imm Regs.sta_dd) in
  let is_done = Builder.icmp b Ne I64 dd (Imm 0) in
  Builder.cond_br b is_done ~if_true:advance ~if_false:done_;
  Builder.position_at b advance;
  Builder.store b I8 (Imm 0) sta_addr;
  let c1 = Builder.add b I64 (Reg r_clean) (Imm 1) in
  let c1m = Builder.and_ b I64 c1 mask in
  Builder.mov_to b r_clean I64 c1m;
  let n1 = Builder.add b I64 (Reg r_count) (Imm 1) in
  Builder.mov_to b r_count I64 n1;
  Builder.br b head;
  Builder.position_at b done_;
  mq_store b qb mqf_next_clean (Reg r_clean);
  Builder.ret b (Some (Reg r_count))

let gen_tx_avail_mq b =
  ignore
    (Builder.start_func b "e1000e_tx_avail_mq" ~params:[ ("%q", I64) ]
       ~ret:(Some I64));
  let qb = mq_base b in
  let entries = mq_load b qb mqf_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let use = mq_load b qb mqf_next_use in
  let clean = mq_load b qb mqf_next_clean in
  let diff = Builder.sub b I64 clean use in
  let diff1 = Builder.sub b I64 diff (Imm 1) in
  let wrapped = Builder.add b I64 diff1 entries in
  let avail = Builder.and_ b I64 wrapped mask in
  Builder.ret b (Some avail)

let gen_xmit_mq b =
  (* e1000e_xmit_frame_mq(buf, len, q) -> 0 ok | -1 ring full; same
     shape as the classic xmit, against queue q's ring and doorbell. *)
  ignore
    (Builder.start_func b "e1000e_xmit_frame_mq"
       ~params:[ ("%buf", I64); ("%len", I64); ("%q", I64) ]
       ~ret:(Some I64));
  let qb = mq_base b in
  let avail =
    match Builder.call b "e1000e_tx_avail_mq" [ Reg "%q" ] with
    | Some v -> v
    | None -> assert false
  in
  let full = Builder.icmp b Eq I64 avail (Imm 0) in
  let slow = Builder.new_block b ~hint:"mqtx_slow" () in
  let busy = Builder.new_block b ~hint:"mqtx_busy" () in
  let go = Builder.new_block b ~hint:"mqtx_go" () in
  Builder.cond_br b full ~if_true:slow ~if_false:go;
  Builder.position_at b slow;
  ignore (Builder.call b ~want_result:false "e1000e_clean_tx_mq" [ Reg "%q" ]);
  let avail2 =
    match Builder.call b "e1000e_tx_avail_mq" [ Reg "%q" ] with
    | Some v -> v
    | None -> assert false
  in
  let still_full = Builder.icmp b Eq I64 avail2 (Imm 0) in
  Builder.cond_br b still_full ~if_true:busy ~if_false:go;
  Builder.position_at b busy;
  let nbusy = mq_load b qb mqf_tx_busy in
  let nbusy1 = Builder.add b I64 nbusy (Imm 1) in
  mq_store b qb mqf_tx_busy nbusy1;
  Builder.ret b (Some (Imm (-1)));
  Builder.position_at b go;
  let ring = mq_load b qb mqf_ring in
  let entries = mq_load b qb mqf_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let use = mq_load b qb mqf_next_use in
  let desc = Builder.gep b ring use ~scale:Regs.desc_size in
  Builder.store b I64 (Reg "%buf") desc;
  let len_addr = Builder.gep b desc (Imm Regs.desc_len_off) ~scale:1 in
  Builder.store b I16 (Reg "%len") len_addr;
  let cso_addr = Builder.gep b desc (Imm Regs.desc_cso_off) ~scale:1 in
  Builder.store b I8 (Imm 0) cso_addr;
  let cmd_addr = Builder.gep b desc (Imm Regs.desc_cmd_off) ~scale:1 in
  Builder.store b I8
    (Imm (Regs.cmd_eop lor Regs.cmd_ifcs lor Regs.cmd_rs))
    cmd_addr;
  let sta_addr = Builder.gep b desc (Imm Regs.desc_sta_off) ~scale:1 in
  Builder.store b I8 (Imm 0) sta_addr;
  let et_addr = Builder.gep b (Reg "%buf") (Imm 12) ~scale:1 in
  let _ethertype = Builder.load b I16 et_addr in
  let use1 = Builder.add b I64 use (Imm 1) in
  let use1m = Builder.and_ b I64 use1 mask in
  mq_store b qb mqf_next_use use1m;
  let pk = mq_load b qb mqf_tx_packets in
  let pk1 = Builder.add b I64 pk (Imm 1) in
  mq_store b qb mqf_tx_packets pk1;
  let by = mq_load b qb mqf_tx_bytes in
  let by1 = Builder.add b I64 by (Reg "%len") in
  mq_store b qb mqf_tx_bytes by1;
  Builder.call_unit b "e1000e_io_write" [ mq_reg b Regs.tdt; use1m ];
  Builder.ret b (Some (Imm 0))

let gen_irq_handler_mq b =
  (* Per-queue (MSI-X vector) handler: the kernel dispatches it only for
     its queue's latch, so there is no shared cause register to read —
     read-to-clear on ICR from concurrent CPUs would swallow each
     other's causes. *)
  ignore
    (Builder.start_func b "e1000e_irq_handler_mq" ~params:[ ("%q", I64) ]
       ~ret:(Some I64));
  let cleaned =
    match Builder.call b "e1000e_clean_tx_mq" [ Reg "%q" ] with
    | Some v -> v
    | None -> assert false
  in
  Builder.ret b (Some cleaned)

let gen_get_stats_mq b =
  ignore
    (Builder.start_func b "e1000e_get_stats_mq"
       ~params:[ ("%q", I64); ("%which", I64) ]
       ~ret:(Some I64));
  let qb = mq_base b in
  let pkts = Builder.new_block b ~hint:"mqst_pkts" () in
  let bytes = Builder.new_block b ~hint:"mqst_bytes" () in
  let busy = Builder.new_block b ~hint:"mqst_busy" () in
  let other = Builder.new_block b ~hint:"mqst_other" () in
  Builder.switch b (Reg "%which")
    [ (0, pkts); (1, bytes); (3, busy) ]
    ~default:other;
  Builder.position_at b pkts;
  let v = mq_load b qb mqf_tx_packets in
  Builder.ret b (Some v);
  Builder.position_at b bytes;
  let v = mq_load b qb mqf_tx_bytes in
  Builder.ret b (Some v);
  Builder.position_at b busy;
  let v = mq_load b qb mqf_tx_busy in
  Builder.ret b (Some v);
  Builder.position_at b other;
  Builder.ret b (Some (Imm (-1)))

(* ------------------------------------------------------------------ *)
(* multi-queue RX (RSS-steered rings, NAPI polling)

   Per-queue RX adapter state lives in the [adapter_rxq] global, one
   64-byte block per queue, mirroring [adapter_mq]; queue [q]'s device
   registers sit at the classic RX offsets plus [q * Regs.rxq_stride].
   Emitted only for [rx_queues > 0] builds so the default module stays
   byte-identical. *)

let rxmq_stride = 64
let rxmqf_ring = 0
let rxmqf_entries = 8
let rxmqf_next = 16
let rxmqf_packets = 24
let rxmqf_bytes = 32
let rxmqf_bufsz = 40

(* base of queue %q's RX adapter block *)
let rxmq_base b =
  Builder.gep b (Sym "adapter_rxq") (Reg "%q") ~scale:rxmq_stride

(* queue %q's register offset for classic RX register [reg] *)
let rxmq_reg b reg =
  let skew = Builder.mul b I64 (Reg "%q") (Imm Regs.rxq_stride) in
  Builder.add b I64 skew (Imm reg)

let gen_setup_rx_queue b =
  (* e1000e_setup_rx_queue(q, entries, bufsz): per-queue analogue of
     e1000e_setup_rx — allocate ring + buffers, program queue q's block,
     hand the device all but one slot, enable the (global) receiver. *)
  ignore
    (Builder.start_func b "e1000e_setup_rx_queue"
       ~params:[ ("%q", I64); ("%entries", I64); ("%bufsz", I64) ]
       ~ret:(Some I64));
  let qb = rxmq_base b in
  let ring_bytes = Builder.mul b I64 (Reg "%entries") (Imm Regs.desc_size) in
  let ring =
    match Builder.call b "kmalloc" [ ring_bytes ] with
    | Some v -> v
    | None -> assert false
  in
  mq_store b qb rxmqf_ring ring;
  mq_store b qb rxmqf_entries (Reg "%entries");
  mq_store b qb rxmqf_next (Imm 0);
  mq_store b qb rxmqf_packets (Imm 0);
  mq_store b qb rxmqf_bytes (Imm 0);
  mq_store b qb rxmqf_bufsz (Reg "%bufsz");
  Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%entries") ~step:(Imm 1)
    (fun i ->
      let buf =
        match Builder.call b "kmalloc" [ Reg "%bufsz" ] with
        | Some v -> v
        | None -> assert false
      in
      let d = Builder.gep b ring i ~scale:Regs.desc_size in
      Builder.store b I64 buf d;
      let sta = Builder.gep b d (Imm Regs.rxd_sta_off) ~scale:1 in
      Builder.store b I8 (Imm 0) sta);
  Builder.call_unit b "e1000e_io_write" [ rxmq_reg b Regs.rdbal; ring ];
  Builder.call_unit b "e1000e_io_write" [ rxmq_reg b Regs.rdlen; ring_bytes ];
  Builder.call_unit b "e1000e_io_write" [ rxmq_reg b Regs.rdh; Imm 0 ];
  let last = Builder.sub b I64 (Reg "%entries") (Imm 1) in
  Builder.call_unit b "e1000e_io_write" [ rxmq_reg b Regs.rdt; last ];
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.rctl; Imm Regs.rctl_en ];
  Builder.ret b (Some (Imm 0))

let gen_rx_coalesce b =
  (* e1000e_rx_coalesce(q, frames): program queue q's interrupt
     coalescing threshold (frames per asserted cause; 1 = per-frame). *)
  ignore
    (Builder.start_func b "e1000e_rx_coalesce"
       ~params:[ ("%q", I64); ("%frames", I64) ]
       ~ret:None);
  Builder.call_unit b "e1000e_io_write"
    [ rxmq_reg b (Regs.rdbal + Regs.rxq_rdtr_off); Reg "%frames" ];
  Builder.ret b None

let gen_rx_mask b =
  (* e1000e_rx_disable/enable(q): the NAPI mask dance — the handler
     masks its queue before scheduling the poll loop, the poll loop
     re-enables when it goes idle. *)
  ignore
    (Builder.start_func b "e1000e_rx_disable" ~params:[ ("%q", I64) ]
       ~ret:None);
  Builder.call_unit b "e1000e_io_write"
    [ rxmq_reg b (Regs.rdbal + Regs.rxq_mask_off); Imm 1 ];
  Builder.ret b None;
  ignore
    (Builder.start_func b "e1000e_rx_enable" ~params:[ ("%q", I64) ]
       ~ret:None);
  Builder.call_unit b "e1000e_io_write"
    [ rxmq_reg b (Regs.rdbal + Regs.rxq_mask_off); Imm 0 ];
  Builder.ret b None

let gen_setup_rss b =
  (* e1000e_setup_rss(queues): program the RSS fan-out. *)
  ignore
    (Builder.start_func b "e1000e_setup_rss" ~params:[ ("%queues", I64) ]
       ~ret:None);
  Builder.call_unit b "e1000e_io_write" [ Imm Regs.mrqc; Reg "%queues" ];
  Builder.ret b None

let gen_napi_poll b =
  (* e1000e_napi_poll(q, budget) -> frames processed. The softirq half
     of the RX path: consume DD|EOP descriptors from queue q's ring,
     sniff the EtherType (a guarded read of DMA'd payload), account,
     recycle the slot and publish it back through the RDT doorbell. *)
  ignore
    (Builder.start_func b "e1000e_napi_poll"
       ~params:[ ("%q", I64); ("%budget", I64) ]
       ~ret:(Some I64));
  let qb = rxmq_base b in
  let ring = mq_load b qb rxmqf_ring in
  let entries = mq_load b qb rxmqf_entries in
  let mask = Builder.sub b I64 entries (Imm 1) in
  let next0 = mq_load b qb rxmqf_next in
  Builder.mov_to b "%rxnext" I64 next0;
  Builder.mov_to b r_count I64 (Imm 0);
  let head = Builder.new_block b ~hint:"napi_head" () in
  let chk = Builder.new_block b ~hint:"napi_chk" () in
  let work = Builder.new_block b ~hint:"napi_work" () in
  let done_ = Builder.new_block b ~hint:"napi_done" () in
  Builder.br b head;
  Builder.position_at b head;
  let more = Builder.icmp b Slt I64 (Reg r_count) (Reg "%budget") in
  Builder.cond_br b more ~if_true:chk ~if_false:done_;
  Builder.position_at b chk;
  let desc = Builder.gep b ring (Reg "%rxnext") ~scale:Regs.desc_size in
  let sta_addr = Builder.gep b desc (Imm Regs.rxd_sta_off) ~scale:1 in
  let sta = Builder.load b I8 sta_addr in
  let dd = Builder.and_ b I64 sta (Imm (Regs.sta_dd lor Regs.sta_eop)) in
  let ready =
    Builder.icmp b Eq I64 dd (Imm (Regs.sta_dd lor Regs.sta_eop))
  in
  Builder.cond_br b ready ~if_true:work ~if_false:done_;
  Builder.position_at b work;
  let len_addr = Builder.gep b desc (Imm Regs.rxd_len_off) ~scale:1 in
  let len = Builder.load b I16 len_addr in
  let buf = Builder.load b I64 desc in
  let et_addr = Builder.gep b buf (Imm 12) ~scale:1 in
  let _ethertype = Builder.load b I16 et_addr in
  let pk = mq_load b qb rxmqf_packets in
  let pk1 = Builder.add b I64 pk (Imm 1) in
  mq_store b qb rxmqf_packets pk1;
  let by = mq_load b qb rxmqf_bytes in
  let by1 = Builder.add b I64 by len in
  mq_store b qb rxmqf_bytes by1;
  (* recycle: clear status, publish the slot back to the device *)
  Builder.store b I8 (Imm 0) sta_addr;
  Builder.call_unit b "e1000e_io_write"
    [ rxmq_reg b Regs.rdt; Reg "%rxnext" ];
  let nx = Builder.add b I64 (Reg "%rxnext") (Imm 1) in
  let nxm = Builder.and_ b I64 nx mask in
  Builder.mov_to b "%rxnext" I64 nxm;
  let c1 = Builder.add b I64 (Reg r_count) (Imm 1) in
  Builder.mov_to b r_count I64 c1;
  Builder.br b head;
  Builder.position_at b done_;
  mq_store b qb rxmqf_next (Reg "%rxnext");
  Builder.ret b (Some (Reg r_count))

let gen_rx_stats_mq b =
  (* e1000e_rx_stats_mq(q, which): 0 = driver frames, 1 = driver bytes,
     2 = device frames, 3 = device bytes, 4 = device dropped (the RXO
     overflow count the old driver silently swallowed). *)
  ignore
    (Builder.start_func b "e1000e_rx_stats_mq"
       ~params:[ ("%q", I64); ("%which", I64) ]
       ~ret:(Some I64));
  let qb = rxmq_base b in
  let pkts = Builder.new_block b ~hint:"rxst_pkts" () in
  let bytes = Builder.new_block b ~hint:"rxst_bytes" () in
  let dframes = Builder.new_block b ~hint:"rxst_dframes" () in
  let dbytes = Builder.new_block b ~hint:"rxst_dbytes" () in
  let ddrop = Builder.new_block b ~hint:"rxst_ddrop" () in
  let other = Builder.new_block b ~hint:"rxst_other" () in
  Builder.switch b (Reg "%which")
    [ (0, pkts); (1, bytes); (2, dframes); (3, dbytes); (4, ddrop) ]
    ~default:other;
  Builder.position_at b pkts;
  let v = mq_load b qb rxmqf_packets in
  Builder.ret b (Some v);
  Builder.position_at b bytes;
  let v = mq_load b qb rxmqf_bytes in
  Builder.ret b (Some v);
  Builder.position_at b dframes;
  let v =
    match
      Builder.call b "e1000e_io_read"
        [ rxmq_reg b (Regs.rdbal + Regs.rxq_frames_off) ]
    with
    | Some v -> v
    | None -> assert false
  in
  Builder.ret b (Some v);
  Builder.position_at b dbytes;
  let v =
    match
      Builder.call b "e1000e_io_read"
        [ rxmq_reg b (Regs.rdbal + Regs.rxq_bytes_off) ]
    with
    | Some v -> v
    | None -> assert false
  in
  Builder.ret b (Some v);
  Builder.position_at b ddrop;
  let v =
    match
      Builder.call b "e1000e_io_read"
        [ rxmq_reg b (Regs.rdbal + Regs.rxq_dropped_off) ]
    with
    | Some v -> v
    | None -> assert false
  in
  Builder.ret b (Some v);
  Builder.position_at b other;
  Builder.ret b (Some (Imm (-1)))

(** Generate a fresh, un-transformed driver module. [tx_queues > 1]
    additionally emits the multi-queue TX entry points (setup/xmit/
    clean/irq per queue) and their [adapter_mq] state; [rx_queues > 0]
    emits the RSS/NAPI RX entry points (per-queue setup/poll/coalesce/
    mask, RSS programming, RX stats) and their [adapter_rxq] state. The
    default is byte-identical to the classic single-queue driver.

    The result is not verified here: [Pass.run_pipeline_checked] verifies
    a module on entry and [Kernel.insmod] verifies it again, and the NIC
    tests verify every generated configuration. *)
let generate ?(module_scale = 12) ?(with_rogue = false) ?(tx_queues = 1)
    ?(rx_queues = 0) () : modul =
  let b = Builder.create "e1000e" in
  declare_kernel_api b;
  ignore (Builder.declare_global b "adapter" ~size:adapter_size);
  ignore
    (Builder.declare_global b "drv_banner" ~writable:false
       ~init:banner ~size:(String.length banner));
  ignore
    (Builder.declare_global b "drv_unload" ~writable:false
       ~init:unload_msg ~size:(String.length unload_msg));
  ignore
    (Builder.declare_global b "eeprom" ~writable:false ~size:256
       ~init:(String.init 64 (fun i -> Char.chr ((i * 37 + 11) land 0xff))));
  gen_io_helpers b;
  gen_probe b;
  gen_clean_tx b;
  gen_tx_avail b;
  gen_xmit b;
  gen_irq_handler b;
  gen_self_test b;
  gen_set_mac b;
  gen_get_stats b;
  gen_checksum b;
  gen_eeprom b;
  gen_setup_rx b;
  gen_poll_rx b;
  gen_diag b;
  gen_lifecycle b;
  if tx_queues > 1 then begin
    ignore
      (Builder.declare_global b "adapter_mq"
         ~size:(Regs.max_tx_queues * mq_stride));
    gen_setup_tx_queue b;
    gen_clean_tx_mq b;
    gen_tx_avail_mq b;
    gen_xmit_mq b;
    gen_irq_handler_mq b;
    gen_get_stats_mq b
  end;
  if rx_queues > 0 then begin
    ignore
      (Builder.declare_global b "adapter_rxq"
         ~size:(Regs.max_rx_queues * rxmq_stride));
    gen_setup_rx_queue b;
    gen_rx_coalesce b;
    gen_rx_mask b;
    gen_setup_rss b;
    gen_napi_poll b;
    gen_rx_stats_mq b
  end;
  if with_rogue then gen_rogue_peek b;
  gen_cold_padding b ~scale:module_scale;
  Builder.modul b
