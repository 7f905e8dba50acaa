(** The happens-before detector's fixture suite: clean workloads that
    must stay silent (proving the policy-write/domain/NAPI paths
    race-free under the detector's model) and seeded fixtures the
    detector must flag. [kop_lint race] and [bench san] both gate on
    {!all}/{!pass}; the clean fixtures double as regressions for the
    sync-edge wiring (a lost edge shows up as a spurious report, a lost
    check as a missed seeded race).

    The fixtures:

    - [clean-rcu-storm]: 2 CPUs of pktgen under a whole-policy rotate
      storm — in-place policy writes under load, zero reports expected
      (the name is kept so reports stay comparable);
    - [clean-napi-churn]: full-duplex RX/TX with policy churn — the NAPI
      path's guarded reads against the update storm, zero reports;
    - [retire-vs-rebuild]: a watchdog-driven integrity rebuild and a
      policy batch install landing in the same scheduling quantum while
      module guard traffic flows — the retirement-ordering regression,
      zero reports expected;
    - [seeded-stale-window]: the {!Fault.Harness.run_race} cross-CPU
      race (a store into a window a concurrent shrink revoked) — the
      detector must report it;
    - [corruption-vs-publication]: a detached writer corrupts the live
      table behind the protocol's back; the guard path's next table
      scans must surface [Unsynced] reports. *)

type verdict = {
  v_name : string;
  v_expect_races : bool;
  v_reports : int;
  v_accesses : int;  (** accesses the detector checked *)
  v_pass : bool;
  v_detail : string;
}

(* ------------------------------------------------------------------ *)
(* clean suites: policy writes under load must stay silent *)

let clean_rcu_storm () =
  let config = { Smp_testbed.default_config with cpus = 2; seed = 11 } in
  let t = Smp_testbed.create ~config () in
  let det = Smp.System.enable_race_detector (Smp_testbed.smp t) in
  let r = Smp_testbed.run_pktgen ~count:60 ~storm:7 t in
  let reports = Sanitizer.Race.report_count det in
  {
    v_name = "clean-rcu-storm";
    v_expect_races = false;
    v_reports = reports;
    v_accesses = Sanitizer.Race.accesses det;
    v_pass =
      reports = 0
      && r.Smp_testbed.publications > 0
      && r.Smp_testbed.retired > 0
      && r.Smp_testbed.stale_allows = 0;
    v_detail =
      Printf.sprintf "%d publications, %d retired, %d sent"
        r.Smp_testbed.publications r.Smp_testbed.retired
        r.Smp_testbed.total_sent;
  }

let clean_napi_churn () =
  let config =
    { Smp_testbed.default_config with cpus = 2; rx_queues = 2; seed = 13 }
  in
  let t = Smp_testbed.create ~config () in
  let det = Smp.System.enable_race_detector (Smp_testbed.smp t) in
  let r = Smp_testbed.run_traffic ~count:60 ~churn:9 t in
  let reports = Sanitizer.Race.report_count det in
  {
    v_name = "clean-napi-churn";
    v_expect_races = false;
    v_reports = reports;
    v_accesses = Sanitizer.Race.accesses det;
    v_pass =
      reports = 0
      && r.Smp_testbed.d_publications > 0
      && r.Smp_testbed.d_rx_frames > 0
      && r.Smp_testbed.d_stale_allows = 0;
    v_detail =
      Printf.sprintf "%d publications, %d rx frames, %d sent"
        r.Smp_testbed.d_publications r.Smp_testbed.d_rx_frames
        r.Smp_testbed.d_sent;
  }

(** The write-ordering regression: a corruption of the live table is
    detected by the watchdog, whose integrity repair rewrites the table
    through the SMP route, while the other CPU lands policy batch
    installs in the same quantum and module guard traffic keeps the
    table scans coming. The scheduler token orders every recorded scan
    before each policy write's interval write — the detector must stay
    silent, and every publication must be retired. *)
let retire_vs_rebuild () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Engine.install ~kind:Vm.Engine.Interp kernel);
  let pm =
    Policy.Policy_module.install ~site_cache:true
      ~on_deny:Policy.Policy_module.Audit kernel
  in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  let smp =
    Smp.System.create ~seed:7 ~params:Machine.Presets.r350 ~cpus:2 kernel pm
  in
  let det = Smp.System.enable_race_detector smp in
  let engine = Policy.Policy_module.engine pm in
  Policy.Engine.set_verify engine true;
  let wd = Policy.Policy_module.enable_watchdog ~period:5_000 pm in
  let ig =
    match Policy.Policy_module.integrity pm with
    | Some ig -> ig
    | None -> assert false
  in
  (* module guard traffic for the whole episode *)
  let rng = Machine.Rng.create 7 in
  let work = Kernel.kmalloc kernel ~size:256 in
  let m = Fault.Inject.build_victim ~rng ~work () in
  ignore (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_none m);
  (match Kernel.insmod kernel m with
  | Ok _ -> ()
  | Error e ->
    failwith ("retire_vs_rebuild insmod: " ^ Kernel.load_error_to_string e));
  (* open the user-half deny rule behind the audit's back *)
  let corrupted =
    Policy.Engine.corrupt_instance engine ~base:0 ~prot:Policy.Region.prot_rw
  in
  let install_rc = ref 0 in
  let batch i =
    List.init 3 (fun j ->
        Policy.Region.v
          ~tag:(Printf.sprintf "batch%d-%d" i j)
          ~base:(0x3000_0000 + (i * 0x100000) + (j * 0x10000))
          ~len:0x1000 ~prot:Policy.Region.prot_rw ())
  in
  let a = ref 0 and b = ref 0 in
  ignore
    (Smp.System.run smp
       [|
         (fun () ->
           incr a;
           (* tick the watchdog past its deadline: detection fires the
              integrity repair through the SMP mutation route *)
           ignore (Kernel.Watchdog.advance wd ~cycles:6_000 : int);
           ignore (Kernel.call_symbol kernel Fault.Inject.entry [||] : int);
           !a < 8);
         (fun () ->
           incr b;
           if !b <= 3 then begin
             let rc =
               Policy.Policy_module.apply pm
                 (Policy.Policy_module.M_install (batch !b))
             in
             if rc <> 0 then install_rc := rc
           end;
           ignore (Kernel.call_symbol kernel Fault.Inject.entry [||] : int);
           !b < 8);
       |]);
  let rs = Smp.Rcu.stats (Smp.System.rcu smp) in
  let reports = Sanitizer.Race.report_count det in
  {
    v_name = "retire-vs-rebuild";
    v_expect_races = false;
    v_reports = reports;
    v_accesses = Sanitizer.Race.accesses det;
    v_pass =
      corrupted
      && Policy.Integrity.detections ig >= 1
      && rs.Smp.Rcu.publications >= 1
      && rs.Smp.Rcu.retired = rs.Smp.Rcu.publications
      && !install_rc = 0
      && reports = 0;
    v_detail =
      Printf.sprintf
        "%d detections, %d published, %d retired, install rc %d"
        (Policy.Integrity.detections ig)
        rs.Smp.Rcu.publications rs.Smp.Rcu.retired !install_rc;
  }

(* ------------------------------------------------------------------ *)
(* seeded suites: the detector must flag these *)

let seeded_stale_window () =
  let o =
    Fault.Harness.run_race ~sanitize:true
      ~mode:(Fault.Harness.Carat Policy.Policy_module.Audit) ~seed:42 ()
  in
  let reports =
    match o.Fault.Harness.race_reports with Some n -> n | None -> 0
  in
  {
    v_name = "seeded-stale-window";
    v_expect_races = true;
    v_reports = reports;
    v_accesses = 0;
    v_pass = o.Fault.Harness.loaded && reports > 0;
    v_detail =
      Printf.sprintf "%d denied, %d race reports" o.Fault.Harness.denied
        reports;
  }

let corruption_vs_publication () =
  let config = { Smp_testbed.default_config with cpus = 2; seed = 23 } in
  let t = Smp_testbed.create ~config () in
  let det = Smp.System.enable_race_detector (Smp_testbed.smp t) in
  ignore (Smp_testbed.run_pktgen ~count:30 t);
  let eng = Smp_testbed.engine t in
  (* flip the user-half deny rule's prot in the *live* table — an
     escalation that changes no kernel-address decision, so the workload
     runs on undisturbed while the table bytes race the guard's scans *)
  let corrupted =
    Policy.Engine.corrupt_instance eng ~base:0 ~prot:Policy.Region.prot_rw
  in
  (let base, len = Policy.Engine.table_region eng in
   Sanitizer.Race.async_write det ~lo:base ~hi:(base + len)
     ~site:"instance-corruption");
  ignore (Smp_testbed.run_pktgen ~count:30 t);
  let reports = Sanitizer.Race.report_count det in
  let unsynced =
    List.exists
      (fun (r : Sanitizer.Race.report) -> r.Sanitizer.Race.r_kind = Sanitizer.Race.Unsynced)
      (Sanitizer.Race.reports det)
  in
  {
    v_name = "corruption-vs-publication";
    v_expect_races = true;
    v_reports = reports;
    v_accesses = Sanitizer.Race.accesses det;
    v_pass = corrupted && reports > 0 && unsynced;
    v_detail =
      Printf.sprintf "corrupted=%b, %d reports (unsynced=%b)" corrupted
        reports unsynced;
  }

(* ------------------------------------------------------------------ *)

let all () =
  [
    clean_rcu_storm ();
    clean_napi_churn ();
    retire_vs_rebuild ();
    seeded_stale_window ();
    corruption_vs_publication ();
  ]

let pass vs = List.for_all (fun v -> v.v_pass) vs

let render vs =
  let b = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %-6s  %4d report(s), %6d access(es)  %s\n"
           v.v_name
           (if v.v_pass then "ok" else "FAIL")
           v.v_reports v.v_accesses v.v_detail))
    vs;
  Buffer.add_string b
    (Printf.sprintf "race suites: %d/%d passed\n"
       (List.length (List.filter (fun v -> v.v_pass) vs))
       (List.length vs));
  Buffer.contents b
