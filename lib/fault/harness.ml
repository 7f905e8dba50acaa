(** One containment cell per (fault, configuration): a fresh small kernel
    with the VM and policy module installed, a protected victim target
    set (a secret kernel object, a TX descriptor ring with a canary after
    it, the policy table itself), and a seeded victim module from
    {!Inject}. After the run the cell checks the containment invariants:

    - no byte outside the policy's writable regions changed (verified by
      diffing physical memory against a pre-run snapshot);
    - the kernel is either alive or panicked with the first fault
      recorded;
    - a quarantined module is not re-enterable (calls return -EIO with no
      side effects) and the kernel recovers by unloading it and loading a
      repaired replacement. *)

type mode = Baseline | Carat of Policy.Policy_module.on_deny

let all_modes =
  [
    Baseline;
    Carat Policy.Policy_module.Panic;
    Carat Policy.Policy_module.Quarantine;
    Carat Policy.Policy_module.Audit;
  ]

let mode_to_string = function
  | Baseline -> "baseline"
  | Carat m -> "carat/" ^ Policy.Policy_module.on_deny_to_string m

type outcome = {
  cls : Inject.cls;
  mode : mode;
  seed : int;
  loaded : bool;
  load_error : string option;
  rc : int option;  (** victim entry return value, when it was invoked *)
  panicked : bool;
  first_fault_recorded : bool;
      (** panic (if any) names the guard violation, not a secondary crash *)
  quarantined : bool;
  denied : int;  (** guard denials recorded by the policy module *)
  escaped_bytes : int;
      (** bytes outside the policy's writable regions that changed *)
  reenter_blocked : bool option;
      (** quarantine only: second call bounced with -EIO, counter intact *)
  recovered : bool option;
      (** quarantine only: rmmod + repaired insmod + clean run worked *)
  trace_tail : string list;
      (** last guard/lifecycle events from the cell's trace ring when the
          run ended in a deny/panic/quarantine — the operator's forensic
          view of what the module touched right before containment *)
  sh_detected : bool option;
      (** tier-corruption classes under carat: the integrity watchdog
          detected the corruption before the victim's store could be
          served from the corrupt tier *)
  sh_rebuilt : bool option;
      (** tier-corruption classes, kernel alive: the quarantined tier was
          rebuilt from the authoritative copy and re-promoted to the full
          fast path (tier level restored) *)
  sh_stale : int option;
      (** verified fast-path stale allows during the run (paranoid
          cross-check; must be 0 — a corrupt tier must never answer) *)
  san_reports : int;
      (** sanitizer reports recorded (always 0 with the sanitizer off) *)
  san_at_access : bool option;
      (** sanitize only: some sanitizer report names the faulting access
          address and carries an allocation attribution — the corruption
          was caught *at the access*, not by the end-of-run snapshot
          diff *)
  san_attribution : string option;
      (** the at-access report's allocation attribution, when present *)
  race_reports : int option;
      (** SMP cells under sanitize: happens-before detector reports *)
}

(** The headline invariant: the fault did not touch a single byte outside
    the policy's writable regions. *)
let contained o = o.escaped_bytes = 0

(* ------------------------------------------------------------------ *)

let phys_size = 8 * 1024 * 1024
let desc_size = 16
let ring_entries = 16
let work_size = 4096
let secret_size = 512

(* physical ranges behind a list of direct-map/stack virtual windows plus
   every module-area mapping — the writable set the diff is checked
   against *)
let allowed_phys kernel windows =
  let dm v = v - Kernel.Layout.direct_map_base in
  List.map (fun (v, l) -> (dm v, l)) windows
  @ List.filter_map
      (fun (m : Kernel.mapping) ->
        if Kernel.Layout.is_module_addr m.Kernel.map_virt then
          Some (m.Kernel.map_phys, m.Kernel.map_size)
        else None)
      kernel.Kernel.mappings

let covered allowed p =
  List.exists (fun (base, len) -> p >= base && p < base + len) allowed

(** Bytes in [diff ranges] that fall outside the allowed physical
    ranges. *)
let escaped kernel ~snap ~allowed =
  let diffs = Kernel.Memory.diff_ranges (Kernel.memory kernel) snap in
  List.fold_left
    (fun acc (base, len) ->
      let n = ref 0 in
      for p = base to base + len - 1 do
        if not (covered allowed p) then incr n
      done;
      acc + !n)
    0 diffs

(* ------------------------------------------------------------------ *)

type cell = {
  kernel : Kernel.t;
  vm : Vm.Interp.state;
  pm : Policy.Policy_module.t;
  work : int;
  secret : int;
  ring : int;
  canary : int;
  rx_ring : int;
      (** an RX descriptor ring the NAPI softirq path walks; deny for
          modules (no policy region covers it) — the [Rx_ring_corrupt]
          target *)
  table : int * int;  (** the live policy table, [(vaddr, bytes)] *)
  writable : (int * int) list;  (** direct-map/stack windows, virtual *)
}

let make_cell ?(engine = Vm.Engine.Interp) ?(site_cache = false)
    ?(sanitize = false) ~mode () : cell =
  let require_signature = mode <> Baseline in
  let kernel =
    Kernel.create ~phys_size ~require_signature Machine.Presets.r350
  in
  (* before any allocation, so redzones and shadow marks cover the whole
     heap the cell builds below *)
  if sanitize then Kernel.enable_sanitizer kernel;
  let vm = Vm.Engine.install ~kind:engine kernel in
  let on_deny =
    match mode with Baseline -> Policy.Policy_module.Audit | Carat m -> m
  in
  (* the policy module is installed in baseline cells too: its region
     table is a real in-kernel object the policy-corruption class
     targets; unguarded baselines simply never call the guard *)
  let pm = Policy.Policy_module.install ~on_deny ~site_cache kernel in
  (* carat cells record a small guard-event ring so denials come with a
     forensic tail; the ring never writes simulated bytes, so the
     containment diff below is unaffected *)
  if mode <> Baseline then
    Trace.start (Policy.Policy_module.enable_trace ~capacity:64 pm);
  let secret = Kernel.kmalloc ~tag:"secret" kernel ~size:secret_size in
  let ring =
    Kernel.kmalloc ~tag:"tx-ring" kernel ~size:(ring_entries * desc_size)
  in
  let canary = Kernel.kmalloc ~tag:"canary" kernel ~size:512 in
  let work = Kernel.kmalloc ~tag:"victim-work" kernel ~size:work_size in
  (* allocated after the originals so every pre-existing class keeps its
     exact addresses (and fault streams) *)
  let rx_ring =
    Kernel.kmalloc ~tag:"rx-ring" kernel ~size:(ring_entries * desc_size)
  in
  (* give the protected objects recognizable contents *)
  for i = 0 to (secret_size / 8) - 1 do
    Kernel.write kernel ~addr:(secret + (8 * i)) ~size:8 0x5EC2E7
  done;
  for i = 0 to 63 do
    Kernel.write kernel ~addr:(canary + (8 * i)) ~size:8 0xCA9A27
  done;
  (* RX descriptors carry plausible buffer pointers (into the canary):
     redirecting one is exactly the arbitrary-DMA-write setup *)
  for i = 0 to ring_entries - 1 do
    Kernel.write kernel ~addr:(rx_ring + (i * desc_size)) ~size:8
      (canary + (i * 16))
  done;
  let stack = Vm.Interp.stack_region vm in
  let writable = [ (work, work_size); (ring, ring_entries * desc_size); stack ] in
  let open Policy.Region in
  Policy.Policy_module.set_policy pm
    [
      v ~tag:"victim-work" ~base:work ~len:work_size ~prot:prot_rw ();
      v ~tag:"tx-ring" ~base:ring ~len:(ring_entries * desc_size)
        ~prot:prot_rw ();
      v ~tag:"vm-stack" ~base:(fst stack) ~len:(snd stack) ~prot:prot_rw ();
      v ~tag:"module-area" ~base:Kernel.Layout.module_base
        ~len:Kernel.Layout.module_area_size ~prot:prot_rw ();
      v ~tag:"kernel-read-only" ~base:Kernel.Layout.kernel_base
        ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:prot_read ();
      v ~tag:"user-deny" ~base:0x1000 ~len:Kernel.Layout.kernel_base ~prot:0 ();
    ];
  let table = Policy.Engine.table_region (Policy.Policy_module.engine pm) in
  { kernel; vm; pm; work; secret; ring; canary; rx_ring; table; writable }

(* the malicious store's destination for a given class, seeded *)
let payload_addr cell ~cls ~rng =
  match (cls : Inject.cls) with
  | Inject.Wild_store | Inject.Ir_tamper | Inject.Sig_truncation
  | Inject.Guard_deletion ->
    cell.secret + (8 * Machine.Rng.int rng (secret_size / 8))
  | Inject.Oob_ring_index ->
    (* descriptor index past the ring's end: lands after the ring *)
    let idx = ring_entries + Machine.Rng.int rng 8 in
    cell.ring + (idx * desc_size)
  | Inject.Policy_corruption ->
    let base, len = cell.table in
    base + (8 * Machine.Rng.int rng (len / 8))
  | Inject.Cross_cpu_race ->
    (* handled by its own two-CPU runner; never instantiated here *)
    cell.secret
  | Inject.Icache_corrupt | Inject.Rcu_instance_corrupt ->
    (* tier-corruption classes aim the victim at the secret too; the
       corruption rigs a derived tier to stale-allow that store *)
    cell.secret + (8 * Machine.Rng.int rng (secret_size / 8))
  | Inject.Rx_ring_corrupt ->
    (* a descriptor's buffer-pointer field: the softirq path's ring
       memory, which no policy region grants to modules *)
    cell.rx_ring + (Machine.Rng.int rng ring_entries * desc_size)

let compile_victim ?(opt = Passes.Pipeline.O_none) ~mode m =
  let pipeline =
    match mode with
    | Baseline -> Passes.Pipeline.baseline_sign ()
    | Carat _ -> Passes.Pipeline.kop ~opt ()
  in
  ignore (Passes.Pass.run_pipeline_checked pipeline m)

(* At-access evidence from the sanitizer: a recorded report whose address
   falls inside [lo, hi) and carries an allocation attribution. Returns
   (report count, at-access hit, attribution). *)
let san_fields kernel ~lo ~hi =
  if not (Kernel.sanitizer_enabled kernel) then (0, None, None)
  else
    let hit =
      List.find_opt
        (fun (r : Kernel.san_report) ->
          r.Kernel.sr_addr >= lo && r.Kernel.sr_addr < hi
          && r.Kernel.sr_attribution <> None)
        (Kernel.san_reports kernel)
    in
    ( Kernel.san_report_count kernel,
      Some (hit <> None),
      match hit with Some r -> r.Kernel.sr_attribution | None -> None )

(* ------------------------------------------------------------------ *)
(* What every runner shares *)

let snapshot cell =
  Kernel.Memory.snapshot ~len:(Kernel.phys_used cell.kernel)
    (Kernel.memory cell.kernel)

(* the loader's verdict, a refusal as text *)
let insmod cell m =
  Result.map_error Kernel.load_error_to_string (Kernel.insmod cell.kernel m)

(* call [sym] unless an earlier call panicked, recording its return
   value in [rc] or the panic in [panicked] *)
let call cell ~rc ~panicked sym =
  if not !panicked then
    match Kernel.call_symbol cell.kernel sym [||] with
    | r -> rc := Some r
    | exception Kernel.Panic _ -> panicked := true

(* short audit period so a corruption-to-detection window fits in a cell
   run; production would use the watchdog default *)
let selfheal_period = 5_000

(* Self-healing for the tier-corruption runners: paranoid verification
   and the watchdog, armed before the corruption lands so the
   authoritative snapshot predates the attack. Baseline cells stay
   unprotected — no guards, no watchdog. *)
let arm_watchdog cell ~mode =
  if mode = Baseline then None
  else begin
    Policy.Engine.set_verify (Policy.Policy_module.engine cell.pm) true;
    Some (Policy.Policy_module.enable_watchdog ~period:selfheal_period cell.pm)
  end

(* let one whole watchdog period elapse *)
let tick wd =
  ignore (Kernel.Watchdog.advance wd ~cycles:(Kernel.Watchdog.period wd + 1))

(* One watchdog period of idle time: the periodic audit is the detector,
   firing between the corruption and the victim's store. Returns whether
   it caught the corruption. *)
let idle_period cell wd =
  Option.iter tick wd;
  Option.map
    (fun ig -> Policy.Integrity.detections ig > 0)
    (Policy.Policy_module.integrity cell.pm)

(* Tick the watchdog through enough periods for a quarantined tier to
   finish its cooldown, rebuild, and re-promote; report whether the full
   fast path came back. *)
let heal_and_check ~wd ~ig ~panicked =
  match (wd, ig) with
  | Some wd, Some ig when not panicked ->
    for _ = 1 to 8 do
      tick wd
    done;
    Some (Policy.Integrity.healthy ig && Policy.Integrity.tier_level ig = 2)
  | _ -> None

(* The end of every run, once the fault has run: the forensic trace
   tail, the quarantine invariants (no re-entry through [entry_sym],
   then recovery with a repaired module), healing and the stale-allow
   count when the run armed a watchdog [wd], the containment diff of
   [snap] against the [writable] windows, and the sanitizer's evidence
   in the faulting window [at]. A runner overrides the [sh_detected]
   and [race_reports] it measures. *)
let epilogue cell ~opt ~cls ~mode ~seed ~rng ~load ~rc ~panicked ~entry_sym ~wd
    ~snap ~writable ~at:(lo, hi) =
  let first_fault_recorded =
    match Kernel.panic_state cell.kernel with
    | Some info ->
      (* the recorded reason must be the guard's diagnosis of this fault,
         not some secondary crash *)
      String.starts_with ~prefix:"CARAT KOP" info.Kernel.reason
    | None -> true
  in
  let quarantined = Kernel.quarantine_records cell.kernel <> [] in
  let denied = List.length (Policy.Policy_module.violations cell.pm) in
  (* snapshot the forensic tail now, before the re-entry and recovery
     probes below flood the ring with their own (benign) guard events *)
  let trace_tail =
    match Policy.Policy_module.trace cell.pm with
    | Some tr
      when (panicked || quarantined || denied > 0) && Trace.recorded tr > 0 ->
      List.map Trace.format_event (Trace.recent tr 4)
    | _ -> []
  in
  (* quarantine-specific invariants: no re-entry, then recovery *)
  let reenter_blocked, recovered =
    match (load, quarantined) with
    | Ok lm, true ->
      let counter_addr = List.assoc Inject.counter_global lm.Kernel.lm_globals in
      let before = Kernel.read cell.kernel ~addr:counter_addr ~size:8 in
      let rc2 = Kernel.call_symbol cell.kernel entry_sym [||] in
      let after = Kernel.read cell.kernel ~addr:counter_addr ~size:8 in
      let recovered =
        match Kernel.rmmod cell.kernel lm with
        | Error _ -> false
        | Ok () -> (
          let m' = Inject.build_repaired ~rng ~work:cell.work () in
          compile_victim ?opt ~mode m';
          match Kernel.insmod cell.kernel m' with
          | Error _ -> false
          | Ok _ ->
            let rc3 = Kernel.call_symbol cell.kernel Inject.entry [||] in
            rc3 >= 0 && Kernel.panic_state cell.kernel = None)
      in
      (Some (rc2 = Kernel.eio && before = after), Some recovered)
    | _ -> (None, None)
  in
  let sh_rebuilt =
    heal_and_check ~wd ~ig:(Policy.Policy_module.integrity cell.pm) ~panicked
  in
  let engine = Policy.Policy_module.engine cell.pm in
  let sh_stale = Option.map (fun _ -> Policy.Engine.stale_allows engine) wd in
  let escaped_bytes =
    escaped cell.kernel ~snap ~allowed:(allowed_phys cell.kernel writable)
  in
  let san_reports, san_at_access, san_attribution =
    san_fields cell.kernel ~lo ~hi
  in
  {
    cls;
    mode;
    seed;
    loaded = Result.is_ok load;
    load_error = (match load with Ok _ -> None | Error e -> Some e);
    rc;
    panicked;
    first_fault_recorded;
    quarantined;
    denied;
    escaped_bytes;
    reenter_blocked;
    recovered;
    trace_tail;
    sh_detected = None;
    sh_rebuilt;
    sh_stale;
    san_reports;
    san_at_access;
    san_attribution;
    race_reports = None;
  }

(* ------------------------------------------------------------------ *)

(** The cross-CPU race: CPU 0 runs the victim whose [victim_late] entry
    stores into the upper half of the work window; CPU 1 writes a policy
    shrink (revoking that half) through the SMP route mid-run. The
    memory snapshot is taken *after* the shrink, so the pre-shrink
    (legitimate) late stores don't count — only bytes the
    victim lands in the revoked window afterwards are escapes. Baseline
    always escapes; a guarded victim must be stopped by the exact walk
    even though its site inline cache was warm for that page. *)
let run_race ?engine ?opt ?(sanitize = false) ~(mode : mode) ~seed () : outcome =
  let cell = make_cell ?engine ~sanitize ~mode () in
  let rng = Machine.Rng.create seed in
  let half = work_size / 2 in
  let lo = cell.work and hi = cell.work + half in
  let open Policy.Region in
  let tail_policy =
    [
      v ~tag:"tx-ring" ~base:cell.ring ~len:(ring_entries * desc_size)
        ~prot:prot_rw ();
      v ~tag:"vm-stack"
        ~base:(fst (Vm.Interp.stack_region cell.vm))
        ~len:(snd (Vm.Interp.stack_region cell.vm))
        ~prot:prot_rw ();
      v ~tag:"module-area" ~base:Kernel.Layout.module_base
        ~len:Kernel.Layout.module_area_size ~prot:prot_rw ();
      v ~tag:"kernel-read-only" ~base:Kernel.Layout.kernel_base
        ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:prot_read ();
      v ~tag:"user-deny" ~base:0x1000 ~len:Kernel.Layout.kernel_base ~prot:0 ();
    ]
  in
  Policy.Policy_module.set_policy cell.pm
    ([
       v ~tag:"victim-work-lo" ~base:lo ~len:half ~prot:prot_rw ();
       v ~tag:"victim-work-hi" ~base:hi ~len:half ~prot:prot_rw ();
     ]
    @ tail_policy);
  let m = Inject.build_race_victim ~rng ~lo ~hi () in
  compile_victim ?opt ~mode m;
  let load = insmod cell m in
  (* a 2-CPU system over the cell's kernel; mutations now go through the
     SMP write route *)
  let smp =
    Smp.System.create ~seed ~params:Machine.Presets.r350 ~cpus:2 cell.kernel
      cell.pm
  in
  let det =
    if sanitize then Some (Smp.System.enable_race_detector smp) else None
  in
  let rc = ref None and panicked = ref false in
  let call = call cell ~rc ~panicked in
  if Result.is_ok load then begin
    (* phase 1 — warm: both entries legitimate, the late site's inline
       cache fills for the doomed page *)
    let a = ref 0 and b = ref 0 in
    ignore
      (Smp.System.run smp
         [|
           (fun () ->
             incr a;
             call Inject.race_early;
             call Inject.race_late;
             !a < 3);
           (fun () ->
             incr b;
             !b < 2);
         |]);
    (* phase 2 — CPU 1 writes the shrink under load *)
    let a = ref 0 and b = ref 0 in
    ignore
      (Smp.System.run smp
         [|
           (fun () ->
             incr a;
             call Inject.race_early;
             !a < 2);
           (fun () ->
             incr b;
             if !b = 1 then
               ignore
                 (Policy.Policy_module.apply cell.pm
                    (Policy.Policy_module.M_remove hi));
             !b < 2);
         |])
  end;
  let snap = snapshot cell in
  if Result.is_ok load then begin
    (* phase 3 — the race's tail: the same late store keeps firing *)
    let a = ref 0 and b = ref 0 in
    ignore
      (Smp.System.run smp
         [|
           (fun () ->
             incr a;
             call Inject.race_late;
             (not !panicked) && !a < 3);
           (fun () ->
             incr b;
             !b < 2);
         |])
  end;
  (* the post-shrink writable set leaves the revoked upper half out, and
     that half is the faulting window: a sanitizer deny report or a
     detector stale-window hit there is at-access evidence *)
  let o =
    epilogue cell ~opt ~cls:Inject.Cross_cpu_race ~mode ~seed ~rng ~load
      ~rc:!rc ~panicked:!panicked ~entry_sym:Inject.race_late ~wd:None ~snap
      ~writable:
        [
          (lo, half);
          (cell.ring, ring_entries * desc_size);
          Vm.Interp.stack_region cell.vm;
        ]
      ~at:(hi, hi + half)
  in
  { o with race_reports = Option.map Sanitizer.Race.report_count det }

(* ------------------------------------------------------------------ *)
(* tier-corruption runners: the self-healing enforcement campaign *)

(** The single-node tier-corruption class ([Icache_corrupt]): a wild
    write plants a stale-allow span covering the victim's payload page
    in its guard site's inline-cache slot, bypassing the epoch/commit
    choke point, and one watchdog period of idle time elapses before the
    victim fires the store. Containment means the corrupt slot never
    serves that allow: the audit quarantines the inline caches, the
    check takes the exact walk, the store is denied, and the caches are
    flushed and re-promoted afterwards. *)
let run_corruption ?engine ?opt ?(sanitize = false) ~(mode : mode) ~seed () :
    outcome =
  let cls = Inject.Icache_corrupt in
  let cell = make_cell ?engine ~site_cache:true ~sanitize ~mode () in
  let rng = Machine.Rng.create seed in
  let target = payload_addr cell ~cls ~rng in
  let m = Inject.build_victim ~payload:target ~rng ~work:cell.work () in
  compile_victim ?opt ~mode m;
  let snap = snapshot cell in
  let load = insmod cell m in
  let eng = Policy.Policy_module.engine cell.pm in
  let wd = arm_watchdog cell ~mode in
  (* the wild write proper, rigged so the victim's very next store at
     [target] would be answered allow straight from the corrupt slot *)
  let lo = target land lnot (Kernel.Memory.page_size - 1) in
  (match
     Inject.payload_guard_site m ~payload_addr:target
       ~guard_symbol:Passes.Guard_injection.guard_symbol_default
   with
  | Some site ->
    ignore
      (Policy.Engine.corrupt_site_cache eng
         (Policy.Engine.default_view eng)
         ~site ~lo ~hi:(lo + Kernel.Memory.page_size)
         ~prot:Policy.Region.prot_rw
         ~smash_canary:(Machine.Rng.flip rng 0.5))
  | None -> () (* unguarded baseline module: no sites to spray *));
  let sh_detected = idle_period cell wd in
  let rc = ref None and panicked = ref false in
  if Result.is_ok load then call cell ~rc ~panicked Inject.entry;
  let o =
    epilogue cell ~opt ~cls ~mode ~seed ~rng ~load ~rc:!rc ~panicked:!panicked
      ~entry_sym:Inject.entry ~wd ~snap ~writable:cell.writable
      ~at:(target, target + 8)
  in
  { o with sh_detected }

(** The SMP tier-corruption class ([Rcu_instance_corrupt]): CPU 1
    replaces the policy in place through the SMP route, and right after
    it the live table's kernel-read-only region has its permission bits
    flipped writable. The watchdog's digest audit must catch the
    divergence and rewrite the table from the authoritative copy (again
    through the SMP route), so CPU 0's guarded victim never lands its
    store at the secret. *)
let run_rcu_corrupt ?engine ?opt ?(sanitize = false) ~(mode : mode) ~seed () :
    outcome =
  let cell = make_cell ?engine ~sanitize ~mode () in
  let rng = Machine.Rng.create seed in
  let target = cell.secret + (8 * Machine.Rng.int rng (secret_size / 8)) in
  let m = Inject.build_victim ~payload:target ~rng ~work:cell.work () in
  compile_victim ?opt ~mode m;
  let snap = snapshot cell in
  let load = insmod cell m in
  let smp =
    Smp.System.create ~seed ~params:Machine.Presets.r350 ~cpus:2 cell.kernel
      cell.pm
  in
  let det =
    if sanitize then Some (Smp.System.enable_race_detector smp) else None
  in
  let eng = Policy.Policy_module.engine cell.pm in
  let wd = arm_watchdog cell ~mode in
  let rc = ref None and panicked = ref false in
  let call = call cell ~rc ~panicked in
  if Result.is_ok load then begin
    (* phase 1 — CPU 1's routine policy push through the SMP route, with
       the corruption landing on the freshly written table while CPU 0
       is still between bursts *)
    let a = ref 0 and b = ref 0 in
    ignore
      (Smp.System.run smp
         [|
           (fun () ->
             incr a;
             !a < 3);
           (fun () ->
             incr b;
             if !b = 1 then begin
               ignore
                 (Policy.Policy_module.replace_policy cell.pm
                    ~default_allow:(Policy.Engine.default_allow eng)
                    (Policy.Engine.regions eng));
               ignore
                 (Policy.Engine.corrupt_instance eng
                    ~base:Kernel.Layout.kernel_base ~prot:Policy.Region.prot_rw);
               (* the corruption is an unsynchronized (detached) interval
                  write over the live table: any guard scan of it before
                  the heal rewrites the table is a flagged race *)
               match det with
               | Some d ->
                 let base, len = Policy.Engine.table_region eng in
                 Sanitizer.Race.async_write d ~lo:base ~hi:(base + len)
                   ~site:"instance-corruption"
               | None -> ()
             end;
             !b < 2);
         |])
  end;
  (* phase 2 — the watchdog period expires before the victim's burst *)
  let sh_detected = idle_period cell wd in
  if Result.is_ok load then begin
    (* phase 3 — CPU 0 runs the victim; its payload store targets the
       secret the corrupt table would have allowed *)
    let a = ref 0 and b = ref 0 in
    ignore
      (Smp.System.run smp
         [|
           (fun () ->
             incr a;
             call Inject.entry;
             (not !panicked) && !a < 2);
           (fun () ->
             incr b;
             !b < 2);
         |])
  end;
  let o =
    epilogue cell ~opt ~cls:Inject.Rcu_instance_corrupt ~mode ~seed ~rng ~load
      ~rc:!rc ~panicked:!panicked ~entry_sym:Inject.entry ~wd ~snap
      ~writable:cell.writable ~at:(target, target + 8)
  in
  let race_reports = Option.map Sanitizer.Race.report_count det in
  { o with sh_detected; race_reports }

(** Run one fault under one configuration and check every invariant.
    [engine] selects the KIR runner (default interpreter); the outcome
    must not depend on it — the compiled engine is semantics- and
    cycle-identical. [opt] selects the victim pipeline's guard-
    optimization tier (default [O_none]); the containment matrix must
    not depend on it either — optimized guards check supersets of the
    original bytes, so every malicious access is still caught. *)
let run_one ?engine ?opt ?(sanitize = false) ~(cls : Inject.cls) ~(mode : mode)
    ~seed () : outcome =
  if cls = Inject.Cross_cpu_race then
    run_race ?engine ?opt ~sanitize ~mode ~seed ()
  else if cls = Inject.Rcu_instance_corrupt then
    run_rcu_corrupt ?engine ?opt ~sanitize ~mode ~seed ()
  else if cls = Inject.Icache_corrupt then
    run_corruption ?engine ?opt ~sanitize ~mode ~seed ()
  else
  let cell = make_cell ?engine ~sanitize ~mode () in
  let rng = Machine.Rng.create seed in
  let target = payload_addr cell ~cls ~rng in
  let payload = if cls = Inject.Ir_tamper then None else Some target in
  let m = Inject.build_victim ?payload ~rng ~work:cell.work () in
  compile_victim ?opt ~mode m;
  (* the fault proper: corrupt the pipeline after signing *)
  (match cls with
  | Inject.Ir_tamper -> Inject.mutate_ir_tamper m ~payload_addr:target
  | Inject.Guard_deletion ->
    Inject.mutate_guard_deletion m ~payload_addr:target
      ~guard_symbol:Passes.Guard_injection.guard_symbol_default
  | Inject.Sig_truncation -> Inject.mutate_sig_truncation m
  | Inject.Wild_store | Inject.Oob_ring_index | Inject.Policy_corruption
  | Inject.Cross_cpu_race | Inject.Icache_corrupt | Inject.Rcu_instance_corrupt
  | Inject.Rx_ring_corrupt -> ());
  let snap = snapshot cell in
  let load = insmod cell m in
  let rc = ref None and panicked = ref false in
  if Result.is_ok load then call cell ~rc ~panicked Inject.entry;
  epilogue cell ~opt ~cls ~mode ~seed ~rng ~load ~rc:!rc ~panicked:!panicked
    ~entry_sym:Inject.entry ~wd:None ~snap ~writable:cell.writable
    ~at:(target, target + 8)

(* ------------------------------------------------------------------ *)

(** Property harness for the QCheck satellite: a randomly generated
    guarded module run under a randomly writable policy. Returns the
    escaped byte count — the containment property says it is always 0
    for a carat-protected module. *)
let run_random ?(engine = Vm.Engine.Interp) ~seed () =
  let kernel = Kernel.create ~phys_size ~require_signature:true Machine.Presets.r350 in
  let vm = Vm.Engine.install ~kind:engine kernel in
  let pm =
    Policy.Policy_module.install ~on_deny:Policy.Policy_module.Quarantine kernel
  in
  let rng = Machine.Rng.create seed in
  let windows = Array.init 4 (fun _ -> Kernel.kmalloc kernel ~size:1024) in
  (* at least one window writable, the rest random *)
  let writable =
    Array.mapi (fun i _ -> i = 0 || Machine.Rng.flip rng 0.5) windows
  in
  let stack = Vm.Interp.stack_region vm in
  let open Policy.Region in
  Policy.Policy_module.set_policy pm
    (Array.to_list
       (Array.mapi
          (fun i w ->
            v
              ~tag:(Printf.sprintf "win-%d" i)
              ~base:w ~len:1024
              ~prot:(if writable.(i) then prot_rw else prot_read)
              ())
          windows)
    @ [
        v ~tag:"vm-stack" ~base:(fst stack) ~len:(snd stack) ~prot:prot_rw ();
        v ~tag:"module-area" ~base:Kernel.Layout.module_base
          ~len:Kernel.Layout.module_area_size ~prot:prot_rw ();
        v ~tag:"kernel-read-only" ~base:Kernel.Layout.kernel_base
          ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:prot_read ();
      ]);
  (* random module: a run of stores/loads over random windows, some via
     an alloca'd local *)
  let b = Kir.Builder.create "randmod" in
  ignore (Kir.Builder.start_func b "rand_run" ~params:[] ~ret:(Some Kir.Types.I64));
  let open Kir.Types in
  let local = Kir.Builder.alloca b 64 in
  Kir.Builder.store b I64 (Imm 7) local;
  let n_ops = 4 + Machine.Rng.int rng 12 in
  for _ = 1 to n_ops do
    let w = windows.(Machine.Rng.int rng 4) in
    let addr = w + (8 * Machine.Rng.int rng 128) in
    if Machine.Rng.flip rng 0.3 then ignore (Kir.Builder.load b I64 (Imm addr))
    else Kir.Builder.store b I64 (Imm (Machine.Rng.int rng 0xFFFF)) (Imm addr)
  done;
  let r = Kir.Builder.load b I64 local in
  Kir.Builder.ret b (Some r);
  let m = Kir.Builder.modul b in
  ignore (Passes.Pass.run_pipeline_checked (Passes.Pipeline.kop_default ()) m);
  let snap =
    Kernel.Memory.snapshot ~len:(Kernel.phys_used kernel) (Kernel.memory kernel)
  in
  (match Kernel.insmod kernel m with
  | Ok _ -> (
    match Kernel.call_symbol kernel "rand_run" [||] with
    | (_ : int) -> ()
    | exception Kernel.Panic _ -> ())
  | Error e -> failwith (Kernel.load_error_to_string e));
  let allowed_windows =
    List.filteri (fun i _ -> writable.(i)) (Array.to_list windows)
  in
  escaped kernel ~snap
    ~allowed:
      (allowed_phys kernel
         (List.map (fun w -> (w, 1024)) allowed_windows @ [ stack ]))
