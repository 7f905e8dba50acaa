(** Fault classes and their seeded instantiation.

    Each fault is a concrete corruption of one stage of the module
    pipeline (compile → sign → load → run). The first three classes
    attack the *pipeline* (tampering with IR or signature after signing)
    and are what load-time signature verification is supposed to catch;
    the rest are *runtime* memory attacks — the wild stores the paper's
    guards exist to stop, including a cross-CPU race against a
    concurrent policy shrink.

    Builders are deterministic in the supplied PRNG, so a campaign with a
    fixed seed reproduces byte-for-byte. *)

type cls =
  | Ir_tamper
      (** post-signing IR mutation: a benign store's destination is
          redirected at a protected kernel object *)
  | Sig_truncation  (** the signature metadata is truncated in transit *)
  | Guard_deletion
      (** the guard call protecting the malicious store is deleted after
          signing — the attack §3.2's signing scheme exists to prevent *)
  | Wild_store  (** a wild-pointer store into a core-kernel object *)
  | Oob_ring_index
      (** a TX-descriptor write with an out-of-bounds ring index,
          clobbering whatever sits after the ring *)
  | Policy_corruption
      (** a store aimed at the policy module's own region table *)
  | Cross_cpu_race
      (** a guarded store on CPU A racing a policy shrink written from
          CPU B: the region the store targets is revoked mid-run, and the
          store keeps firing from a warm guard site afterwards. Guards
          must enforce the *live* policy — a stale inline-cache allow
          after the shrink is an escape. *)
  | Icache_corrupt
      (** a wild write spraying a per-site inline-cache slot with a
          forged (epoch, span, prot) fact covering the victim's target
          page for its payload guard site. The watchdog must detect
          (canary or semantic cross-check), switch the caches off, deny
          from the exact walk, and re-promote after the flush. *)
  | Rcu_instance_corrupt
      (** the SMP variant: the live policy table is corrupted (a
          protected region's permission bits flipped) right after CPU B
          replaces the policy in place, racing readers on CPU A. The
          watchdog must catch the digest divergence and rewrite the
          table from the authoritative copy through the SMP route. The
          printed name is kept so campaign reports stay comparable. *)
  | Rx_ring_corrupt
      (** the interrupt-path attack: a module store aimed at an RX
          descriptor ring — the memory the NAPI poll loop walks in
          softirq context. Redirecting a descriptor's buffer pointer
          turns the device's next unguarded DMA write into an arbitrary
          kernel write; the guard on the module's store is the only
          thing in the way. *)

(* [Rx_ring_corrupt] is appended last: campaign per-class PRNG streams
   are split by class name, but the class rotation is positional, so
   appending preserves every existing class's fault sequence. *)
let all_classes =
  [
    Ir_tamper;
    Sig_truncation;
    Guard_deletion;
    Wild_store;
    Oob_ring_index;
    Policy_corruption;
    Cross_cpu_race;
    Icache_corrupt;
    Rcu_instance_corrupt;
    Rx_ring_corrupt;
  ]

let cls_to_string = function
  | Ir_tamper -> "ir-tamper"
  | Sig_truncation -> "sig-truncation"
  | Guard_deletion -> "guard-deletion"
  | Wild_store -> "wild-store"
  | Oob_ring_index -> "oob-ring-index"
  | Policy_corruption -> "policy-corruption"
  | Cross_cpu_race -> "cross-cpu-race"
  | Icache_corrupt -> "icache-corrupt"
  | Rcu_instance_corrupt -> "rcu-instance-corrupt"
  | Rx_ring_corrupt -> "rx-ring-corrupt"

(** Does this class corrupt the pipeline after signing (so a verifying
    loader should reject the module), as opposed to attacking at run
    time? *)
let is_pipeline_fault = function
  | Ir_tamper | Sig_truncation | Guard_deletion -> true
  | Wild_store | Oob_ring_index | Policy_corruption | Cross_cpu_race
  | Icache_corrupt | Rcu_instance_corrupt | Rx_ring_corrupt ->
    false

(** Does this class corrupt the enforcement machinery itself (so the
    self-healing watchdog, not the guard check, is the detector)? *)
let is_tier_corruption = function
  | Icache_corrupt | Rcu_instance_corrupt -> true
  | Ir_tamper | Sig_truncation | Guard_deletion | Wild_store | Oob_ring_index
  | Policy_corruption | Cross_cpu_race | Rx_ring_corrupt ->
    false

(* ------------------------------------------------------------------ *)
(* victim construction *)

let victim_name = "victim"
let entry = "victim_run"
let counter_global = "victim_calls"

(** Build the victim module: it bumps its call counter, performs a few
    benign stores into [work] (values salted by [rng] so every seed signs
    differently), and — when [payload] is given — fires the malicious
    store at that address. [Ir_tamper] victims are built benign; the
    post-signing mutation is what turns them hostile. *)
let build_victim ?payload ~rng ~work () =
  let b = Kir.Builder.create victim_name in
  ignore (Kir.Builder.declare_global b counter_global ~size:8);
  ignore (Kir.Builder.start_func b entry ~params:[] ~ret:(Some Kir.Types.I64));
  let open Kir.Types in
  let c = Kir.Builder.load b I64 (Sym counter_global) in
  let c1 = Kir.Builder.add b I64 c (Imm 1) in
  Kir.Builder.store b I64 c1 (Sym counter_global);
  for i = 0 to 3 do
    let salt = Machine.Rng.int rng 0x10000 in
    Kir.Builder.store b I64 (Imm salt) (Imm (work + (8 * i)))
  done;
  (match payload with
  | Some addr -> Kir.Builder.store b I64 (Imm 0xDEAD_BEEF) (Imm addr)
  | None -> ());
  Kir.Builder.ret b (Some c1);
  Kir.Builder.modul b

(** The repaired replacement inserted during recovery: same name and
    entry point, benign stores only. *)
let build_repaired ~rng ~work () = build_victim ~rng ~work ()

(* the cross-CPU race victim's entry points *)
let race_early = "victim_early"
let race_late = "victim_late"

(** The cross-CPU race victim: [victim_early] stores into the window
    that stays writable, [victim_late] into the window the concurrent
    policy shrink revokes. Both bump the call counter. The late stores
    are legitimate when first exercised (warming the guard's site inline
    cache for that page) and become violations once CPU B's shrink is
    written — the interesting store is the same instruction at the
    same site before and after. *)
let build_race_victim ~rng ~lo ~hi () =
  let b = Kir.Builder.create victim_name in
  ignore (Kir.Builder.declare_global b counter_global ~size:8);
  let open Kir.Types in
  let entry_fn name window =
    ignore (Kir.Builder.start_func b name ~params:[] ~ret:(Some I64));
    let c = Kir.Builder.load b I64 (Sym counter_global) in
    let c1 = Kir.Builder.add b I64 c (Imm 1) in
    Kir.Builder.store b I64 c1 (Sym counter_global);
    for i = 0 to 2 do
      (* value depends on the live counter so every call writes fresh
         bytes — a post-shrink store always shows up in the memory diff *)
      let salt = Machine.Rng.int rng 0x10000 in
      let x = Kir.Builder.add b I64 c1 (Imm salt) in
      Kir.Builder.store b I64 x (Imm (window + (8 * i)))
    done;
    Kir.Builder.ret b (Some c1)
  in
  entry_fn race_early lo;
  entry_fn race_late hi;
  Kir.Builder.modul b

(* ------------------------------------------------------------------ *)
(* post-signing mutations *)

let iter_bodies (m : Kir.Types.modul) f =
  List.iter
    (fun (fn : Kir.Types.func) ->
      List.iter (fun (blk : Kir.Types.block) -> f blk) fn.Kir.Types.blocks)
    m.Kir.Types.funcs

(** Redirect the first benign store (an [Imm] destination that is not the
    payload) at [payload_addr] — flipping address bits after the module
    was signed. *)
let mutate_ir_tamper (m : Kir.Types.modul) ~payload_addr =
  let done_ = ref false in
  iter_bodies m (fun blk ->
      if not !done_ then
        blk.Kir.Types.body <-
          List.map
            (fun i ->
              match i with
              | Kir.Types.Store { ty; v; addr = Imm _ } when not !done_ ->
                done_ := true;
                Kir.Types.Store { ty; v; addr = Imm payload_addr }
              | i -> i)
            blk.Kir.Types.body)

(** Delete the guard call immediately preceding the store that targets
    [payload_addr]. A no-op on unguarded (baseline) modules. *)
let mutate_guard_deletion (m : Kir.Types.modul) ~payload_addr ~guard_symbol =
  iter_bodies m (fun blk ->
      let rec strip = function
        | Kir.Types.Call { callee; _ }
          :: (Kir.Types.Store { addr = Imm a; _ } as store) :: rest
          when callee = guard_symbol && a = payload_addr ->
          store :: strip rest
        | i :: rest -> i :: strip rest
        | [] -> []
      in
      blk.Kir.Types.body <- strip blk.Kir.Types.body)

(** The compiler-assigned site id of the guard protecting the store at
    [payload_addr] in a compiled (guard-injected) module — the slot the
    inline-cache corruption class sprays. [None] on unguarded modules. *)
let payload_guard_site (m : Kir.Types.modul) ~payload_addr ~guard_symbol =
  let found = ref None in
  iter_bodies m (fun blk ->
      List.iter
        (fun i ->
          match i with
          | Kir.Types.Call
              { callee; args = [ Kir.Types.Imm a; _; _; Kir.Types.Imm site ]; _ }
            when !found = None && callee = guard_symbol && a = payload_addr ->
            found := Some site
          | _ -> ())
        blk.Kir.Types.body);
  !found

(** Truncate the signature tag, as a corrupted or spliced module image
    would present it. *)
let mutate_sig_truncation (m : Kir.Types.modul) =
  match Kir.Types.meta_find m Passes.Signing.meta_sig with
  | Some tag when String.length tag > 4 ->
    Kir.Types.meta_set m Passes.Signing.meta_sig
      (String.sub tag 0 (String.length tag / 2))
  | _ -> ()
