(** The deterministic fault-injection campaign: [faults] seeded faults,
    spread round-robin over the fault classes, each run under the four
    configurations (baseline, carat × panic/quarantine/audit). Every run
    is a fresh {!Harness} cell, so faults are independent; everything is
    derived from [config.seed], so the rendered report is byte-for-byte
    reproducible.

    Per-fault seeds come from *per-class* PRNG streams split off the
    master: the k-th fault of a given class draws the k-th value of that
    class's stream, regardless of how many other classes exist or where
    they sit in the round-robin. Appending a new fault class therefore
    leaves every existing class's seed sequence untouched — campaign
    results for the old classes are stable across class additions. *)

type config = { faults : int; seed : int }

let default_config = { faults = 504; seed = 42 }

type cell_stats = {
  mutable injected : int;
  mutable contained : int;
  mutable alive : int;  (** kernel not panicked after the run *)
  mutable rejected_at_load : int;
  mutable quarantines : int;
  mutable first_fault_ok : int;
  mutable denials : int;
  mutable reenter_ok : int;
  mutable reenter_total : int;
  mutable recovered : int;
  mutable recover_total : int;
  mutable sh_detected : int;  (** watchdog detected the tier corruption *)
  mutable sh_detect_total : int;
  mutable sh_rebuilt : int;  (** corrupt tier healed back to full fast path *)
  mutable sh_rebuild_total : int;
  mutable sh_stale : int;  (** verified stale allows (must stay 0) *)
  mutable san_hits : int;
      (** sanitize runs where a report named the faulting access *)
  mutable san_total : int;
  mutable race_hits : int;  (** sanitize SMP runs the detector flagged *)
  mutable race_total : int;
}

let empty_stats () =
  {
    injected = 0;
    contained = 0;
    alive = 0;
    rejected_at_load = 0;
    quarantines = 0;
    first_fault_ok = 0;
    denials = 0;
    reenter_ok = 0;
    reenter_total = 0;
    recovered = 0;
    recover_total = 0;
    sh_detected = 0;
    sh_detect_total = 0;
    sh_rebuilt = 0;
    sh_rebuild_total = 0;
    sh_stale = 0;
    san_hits = 0;
    san_total = 0;
    race_hits = 0;
    race_total = 0;
  }

type report = {
  config : config;
  sanitized : bool;  (** cells ran with the sanitizer + race detector on *)
  classes : Inject.cls list;
  modes : Harness.mode list;
  cells : cell_stats array array;  (** indexed class × mode *)
  mutable diagnostics : (Inject.cls * Harness.mode * int * string list) list;
      (** sampled guard-trace tails from contained faults (class, mode,
          seed, events) — capped at {!max_diagnostics}, oldest first *)
}

let max_diagnostics = 5

let cell r ~cls ~mode =
  let ci =
    match List.mapi (fun i c -> (c, i)) r.classes |> List.assoc_opt cls with
    | Some i -> i
    | None -> invalid_arg "Campaign.cell: unknown class"
  in
  let mi =
    match List.mapi (fun i m -> (m, i)) r.modes |> List.assoc_opt mode with
    | Some i -> i
    | None -> invalid_arg "Campaign.cell: unknown mode"
  in
  r.cells.(ci).(mi)

let record st (o : Harness.outcome) =
  st.injected <- st.injected + 1;
  if Harness.contained o then st.contained <- st.contained + 1;
  if not o.Harness.panicked then st.alive <- st.alive + 1;
  if not o.Harness.loaded then st.rejected_at_load <- st.rejected_at_load + 1;
  if o.Harness.quarantined then st.quarantines <- st.quarantines + 1;
  if o.Harness.first_fault_recorded then
    st.first_fault_ok <- st.first_fault_ok + 1;
  st.denials <- st.denials + o.Harness.denied;
  (match o.Harness.reenter_blocked with
  | Some ok ->
    st.reenter_total <- st.reenter_total + 1;
    if ok then st.reenter_ok <- st.reenter_ok + 1
  | None -> ());
  (match o.Harness.recovered with
  | Some ok ->
    st.recover_total <- st.recover_total + 1;
    if ok then st.recovered <- st.recovered + 1
  | None -> ());
  (match o.Harness.sh_detected with
  | Some ok ->
    st.sh_detect_total <- st.sh_detect_total + 1;
    if ok then st.sh_detected <- st.sh_detected + 1
  | None -> ());
  (match o.Harness.sh_rebuilt with
  | Some ok ->
    st.sh_rebuild_total <- st.sh_rebuild_total + 1;
    if ok then st.sh_rebuilt <- st.sh_rebuilt + 1
  | None -> ());
  (match o.Harness.sh_stale with
  | Some n -> st.sh_stale <- st.sh_stale + n
  | None -> ());
  (match o.Harness.san_at_access with
  | Some ok ->
    st.san_total <- st.san_total + 1;
    if ok then st.san_hits <- st.san_hits + 1
  | None -> ());
  match o.Harness.race_reports with
  | Some n ->
    st.race_total <- st.race_total + 1;
    if n > 0 then st.race_hits <- st.race_hits + 1
  | None -> ()

(** Run the campaign. [on_outcome] (optional) observes every outcome,
    e.g. for progress reporting; [engine] selects the KIR runner for
    every cell (the containment matrix must not depend on it); [opt]
    the victim pipeline's guard-optimization tier (the matrix must not
    depend on that either — see {!Harness.run_one}). *)
let run ?on_outcome ?engine ?opt ?(sanitize = false) (config : config) : report =
  let classes = Inject.all_classes in
  let modes = Harness.all_modes in
  let r =
    {
      config;
      sanitized = sanitize;
      classes;
      modes;
      cells =
        Array.init (List.length classes) (fun _ ->
            Array.init (List.length modes) (fun _ -> empty_stats ()));
      diagnostics = [];
    }
  in
  let n_diags = ref 0 in
  let master = Machine.Rng.create config.seed in
  (* one independent stream per class, split off the master in class
     order: class k's seeds depend only on (config.seed, k), never on how
     many classes follow it in the list *)
  let streams =
    List.map
      (fun c ->
        (c, Machine.Rng.split master ~tag:(Hashtbl.hash (Inject.cls_to_string c))))
      classes
  in
  for i = 0 to config.faults - 1 do
    let cls = List.nth classes (i mod List.length classes) in
    let fault_seed = Machine.Rng.int (List.assoc cls streams) 0x3FFF_FFFF in
    List.iter
      (fun mode ->
        let o = Harness.run_one ?engine ?opt ~sanitize ~cls ~mode ~seed:fault_seed () in
        record (cell r ~cls ~mode) o;
        if o.Harness.trace_tail <> [] && !n_diags < max_diagnostics then begin
          incr n_diags;
          r.diagnostics <-
            r.diagnostics @ [ (cls, mode, fault_seed, o.Harness.trace_tail) ]
        end;
        match on_outcome with Some f -> f o | None -> ())
      modes
  done;
  r

(* ------------------------------------------------------------------ *)
(* aggregation and rendering *)

let totals r ~mode =
  let acc = empty_stats () in
  List.iter
    (fun cls ->
      let st = cell r ~cls ~mode in
      acc.injected <- acc.injected + st.injected;
      acc.contained <- acc.contained + st.contained;
      acc.alive <- acc.alive + st.alive;
      acc.rejected_at_load <- acc.rejected_at_load + st.rejected_at_load;
      acc.quarantines <- acc.quarantines + st.quarantines;
      acc.first_fault_ok <- acc.first_fault_ok + st.first_fault_ok;
      acc.denials <- acc.denials + st.denials;
      acc.reenter_ok <- acc.reenter_ok + st.reenter_ok;
      acc.reenter_total <- acc.reenter_total + st.reenter_total;
      acc.recovered <- acc.recovered + st.recovered;
      acc.recover_total <- acc.recover_total + st.recover_total;
      acc.sh_detected <- acc.sh_detected + st.sh_detected;
      acc.sh_detect_total <- acc.sh_detect_total + st.sh_detect_total;
      acc.sh_rebuilt <- acc.sh_rebuilt + st.sh_rebuilt;
      acc.sh_rebuild_total <- acc.sh_rebuild_total + st.sh_rebuild_total;
      acc.sh_stale <- acc.sh_stale + st.sh_stale;
      acc.san_hits <- acc.san_hits + st.san_hits;
      acc.san_total <- acc.san_total + st.san_total;
      acc.race_hits <- acc.race_hits + st.race_hits;
      acc.race_total <- acc.race_total + st.race_total)
    r.classes;
  acc

let rate num den = if den = 0 then 100.0 else 100.0 *. float num /. float den

(** The acceptance invariants of the containment matrix. Returns the
    failures (empty = campaign passes). *)
let check (r : report) : string list =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let panic_t = totals r ~mode:(Harness.Carat Policy.Policy_module.Panic) in
  let quar_t = totals r ~mode:(Harness.Carat Policy.Policy_module.Quarantine) in
  let base_t = totals r ~mode:Harness.Baseline in
  if panic_t.contained <> panic_t.injected then
    fail "carat/panic containment %d/%d (expected 100%%)" panic_t.contained
      panic_t.injected;
  if quar_t.contained <> quar_t.injected then
    fail "carat/quarantine containment %d/%d (expected 100%%)" quar_t.contained
      quar_t.injected;
  if quar_t.alive <> quar_t.injected then
    fail "kernel died under quarantine in %d/%d runs"
      (quar_t.injected - quar_t.alive) quar_t.injected;
  if panic_t.first_fault_ok <> panic_t.injected then
    fail "panic without first-fault record in %d runs"
      (panic_t.injected - panic_t.first_fault_ok);
  if quar_t.reenter_ok <> quar_t.reenter_total then
    fail "quarantined module re-entered in %d/%d cases"
      (quar_t.reenter_total - quar_t.reenter_ok) quar_t.reenter_total;
  if quar_t.recovered <> quar_t.recover_total then
    fail "recovery failed in %d/%d cases"
      (quar_t.recover_total - quar_t.recovered) quar_t.recover_total;
  (* self-healing invariants: every tier corruption under a carat mode
     is detected by the watchdog, heals back to the full fast path where
     the kernel stays alive, and never serves a verified stale allow *)
  List.iter
    (fun (name, t) ->
      if t.sh_detected <> t.sh_detect_total then
        fail "%s: tier corruption undetected in %d/%d runs" name
          (t.sh_detect_total - t.sh_detected)
          t.sh_detect_total;
      if t.sh_rebuilt <> t.sh_rebuild_total then
        fail "%s: corrupt tier not re-promoted in %d/%d runs" name
          (t.sh_rebuild_total - t.sh_rebuilt)
          t.sh_rebuild_total;
      if t.sh_stale <> 0 then
        fail "%s: %d stale allows served from corrupt tiers" name t.sh_stale)
    [
      ("carat/panic", panic_t);
      ("carat/quarantine", quar_t);
      ("carat/audit", totals r ~mode:(Harness.Carat Policy.Policy_module.Audit));
    ];
  if base_t.injected > 0 && base_t.contained >= quar_t.contained then
    fail "baseline containment (%d) not strictly below carat (%d)"
      base_t.contained quar_t.contained;
  (* sanitizer invariants: with the sanitizer on, every memory-corruption
     fault class is caught *at the faulting access* — a report naming the
     target address with allocation attribution — under carat/panic, and
     the happens-before detector flags every seeded cross-CPU race *)
  if r.sanitized then begin
    let panic = Harness.Carat Policy.Policy_module.Panic in
    List.iter
      (fun cls ->
        let st = cell r ~cls ~mode:panic in
        if st.injected > 0 && st.san_hits <> st.injected then
          fail "%s: only %d/%d runs attributed at the faulting access"
            (Inject.cls_to_string cls) st.san_hits st.injected)
      [
        Inject.Wild_store;
        Inject.Oob_ring_index;
        Inject.Policy_corruption;
        Inject.Icache_corrupt;
        Inject.Rcu_instance_corrupt;
        Inject.Rx_ring_corrupt;
      ];
    let race = cell r ~cls:Inject.Cross_cpu_race ~mode:panic in
    if race.injected > 0 && race.race_hits <> race.race_total then
      fail "cross_cpu_race: detector flagged only %d/%d runs" race.race_hits
        race.race_total
  end;
  List.rev !fails

let passes r = check r = []

let render (r : report) : string =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "Fault-injection campaign: %d faults x %d configurations (seed %d)\n\n"
    r.config.faults (List.length r.modes) r.config.seed;
  pf "containment (contained/injected; bytes outside writable policy regions)\n";
  pf "  %-18s" "class";
  List.iter (fun m -> pf " %16s" (Harness.mode_to_string m)) r.modes;
  pf "\n";
  List.iter
    (fun cls ->
      pf "  %-18s" (Inject.cls_to_string cls);
      List.iter
        (fun mode ->
          let st = cell r ~cls ~mode in
          pf " %16s" (Printf.sprintf "%d/%d" st.contained st.injected))
        r.modes;
      pf "\n")
    r.classes;
  pf "\n";
  pf "  %-18s" "total";
  List.iter
    (fun mode ->
      let t = totals r ~mode in
      pf " %16s"
        (Printf.sprintf "%d/%d (%.0f%%)" t.contained t.injected
           (rate t.contained t.injected)))
    r.modes;
  pf "\n\n";
  let quar_t = totals r ~mode:(Harness.Carat Policy.Policy_module.Quarantine) in
  let panic_t = totals r ~mode:(Harness.Carat Policy.Policy_module.Panic) in
  let audit_t = totals r ~mode:(Harness.Carat Policy.Policy_module.Audit) in
  let base_t = totals r ~mode:Harness.Baseline in
  pf "invariants\n";
  pf "  kernel alive after quarantine containment : %d/%d\n" quar_t.alive
    quar_t.injected;
  pf "  quarantined module re-entry rejected      : %d/%d\n" quar_t.reenter_ok
    quar_t.reenter_total;
  pf "  recovery (rmmod + repaired insmod + run)  : %d/%d\n" quar_t.recovered
    quar_t.recover_total;
  pf "  panic runs with first fault recorded      : %d/%d\n"
    panic_t.first_fault_ok panic_t.injected;
  pf "  tampered/unsigned loads rejected (carat)  : %d\n"
    (panic_t.rejected_at_load + quar_t.rejected_at_load
   + audit_t.rejected_at_load);
  pf "  guard denials recorded (audit)            : %d\n" audit_t.denials;
  let sh_t = empty_stats () in
  List.iter
    (fun t ->
      sh_t.sh_detected <- sh_t.sh_detected + t.sh_detected;
      sh_t.sh_detect_total <- sh_t.sh_detect_total + t.sh_detect_total;
      sh_t.sh_rebuilt <- sh_t.sh_rebuilt + t.sh_rebuilt;
      sh_t.sh_rebuild_total <- sh_t.sh_rebuild_total + t.sh_rebuild_total;
      sh_t.sh_stale <- sh_t.sh_stale + t.sh_stale)
    [ panic_t; quar_t; audit_t ];
  if sh_t.sh_detect_total > 0 then begin
    pf "  tier corruption detected by watchdog      : %d/%d\n" sh_t.sh_detected
      sh_t.sh_detect_total;
    pf "  corrupt tier rebuilt + re-promoted        : %d/%d\n" sh_t.sh_rebuilt
      sh_t.sh_rebuild_total;
    pf "  stale allows served from corrupt tiers    : %d\n" sh_t.sh_stale
  end;
  if r.sanitized then begin
    let san_t = empty_stats () in
    List.iter
      (fun t ->
        san_t.san_hits <- san_t.san_hits + t.san_hits;
        san_t.san_total <- san_t.san_total + t.san_total;
        san_t.race_hits <- san_t.race_hits + t.race_hits;
        san_t.race_total <- san_t.race_total + t.race_total)
      [ panic_t; quar_t; audit_t ];
    pf "  sanitizer reports at the faulting access  : %d/%d\n" san_t.san_hits
      san_t.san_total;
    pf "  cross-CPU races flagged by the detector   : %d/%d\n" san_t.race_hits
      san_t.race_total
  end;
  pf "  baseline containment                      : %d/%d (%.0f%%)\n"
    base_t.contained base_t.injected
    (rate base_t.contained base_t.injected);
  pf "\n";
  if r.diagnostics <> [] then begin
    pf "sample guard-trace tails (what the module touched before containment)\n";
    List.iter
      (fun (cls, mode, seed, tail) ->
        pf "  %s under %s (seed %d):\n" (Inject.cls_to_string cls)
          (Harness.mode_to_string mode) seed;
        List.iter (fun line -> pf "    %s\n" line) tail)
      r.diagnostics;
    pf "\n"
  end;
  (match check r with
  | [] -> pf "verdict: PASS (all containment invariants hold)\n"
  | fails ->
    pf "verdict: FAIL\n";
    List.iter (fun f -> pf "  - %s\n" f) fails);
  Buffer.contents buf
