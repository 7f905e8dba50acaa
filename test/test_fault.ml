(* Fault library: single-fault outcomes, campaign invariants, seeded
   determinism, and the QCheck containment property. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- single outcomes ---------- *)

let quarantine = Fault.Harness.Carat Policy.Policy_module.Quarantine
let panic = Fault.Harness.Carat Policy.Policy_module.Panic
let audit = Fault.Harness.Carat Policy.Policy_module.Audit

let test_wild_store_baseline () =
  let o =
    Fault.Harness.run_one ~cls:Fault.Inject.Wild_store ~mode:Fault.Harness.Baseline
      ~seed:11 ()
  in
  checkb "loaded" true o.Fault.Harness.loaded;
  checkb "escaped" true (o.Fault.Harness.escaped_bytes > 0);
  checkb "not contained" false (Fault.Harness.contained o);
  checkb "kernel survives unaware" false o.Fault.Harness.panicked

let test_wild_store_panic () =
  let o = Fault.Harness.run_one ~cls:Fault.Inject.Wild_store ~mode:panic ~seed:11 () in
  checkb "panicked" true o.Fault.Harness.panicked;
  checkb "first fault recorded" true o.Fault.Harness.first_fault_recorded;
  checki "nothing escaped" 0 o.Fault.Harness.escaped_bytes

let test_wild_store_quarantine () =
  let o =
    Fault.Harness.run_one ~cls:Fault.Inject.Wild_store ~mode:quarantine ~seed:11 ()
  in
  checkb "kernel alive" false o.Fault.Harness.panicked;
  checkb "quarantined" true o.Fault.Harness.quarantined;
  checkb "entry returned eio" true (o.Fault.Harness.rc = Some Kernel.eio);
  checki "nothing escaped" 0 o.Fault.Harness.escaped_bytes;
  checkb "re-entry blocked" true
    (o.Fault.Harness.reenter_blocked = Some true);
  checkb "recovered" true (o.Fault.Harness.recovered = Some true)

let test_wild_store_audit () =
  let o = Fault.Harness.run_one ~cls:Fault.Inject.Wild_store ~mode:audit ~seed:11 () in
  checkb "kernel alive" false o.Fault.Harness.panicked;
  checkb "denial recorded" true (o.Fault.Harness.denied > 0);
  checkb "store landed anyway" true (o.Fault.Harness.escaped_bytes > 0)

let test_tamper_rejected_at_load () =
  let o =
    Fault.Harness.run_one ~cls:Fault.Inject.Ir_tamper ~mode:quarantine ~seed:11 ()
  in
  checkb "rejected" false o.Fault.Harness.loaded;
  checkb "reports signature" true
    (match o.Fault.Harness.load_error with
    | Some e ->
      (* the loader's diagnosis, not a generic failure *)
      String.length e >= 9 && String.sub e 0 9 = "signature"
    | None -> false);
  checki "nothing escaped" 0 o.Fault.Harness.escaped_bytes;
  let b =
    Fault.Harness.run_one ~cls:Fault.Inject.Ir_tamper
      ~mode:Fault.Harness.Baseline ~seed:11 ()
  in
  checkb "baseline loads it" true b.Fault.Harness.loaded;
  checkb "baseline lets it land" true (b.Fault.Harness.escaped_bytes > 0)

(* ---------- tier-corruption outcomes (self-healing) ---------- *)

let corruption_classes =
  [ Fault.Inject.Icache_corrupt; Fault.Inject.Rcu_instance_corrupt ]

let test_corruption_quarantine_heals () =
  List.iter
    (fun cls ->
      let name = Fault.Inject.cls_to_string cls in
      let o = Fault.Harness.run_one ~cls ~mode:quarantine ~seed:11 () in
      checkb (name ^ " kernel alive") false o.Fault.Harness.panicked;
      checkb (name ^ " contained") true (Fault.Harness.contained o);
      checkb (name ^ " watchdog detected") true
        (o.Fault.Harness.sh_detected = Some true);
      checkb (name ^ " tier rebuilt") true
        (o.Fault.Harness.sh_rebuilt = Some true);
      checkb (name ^ " zero stale allows") true
        (o.Fault.Harness.sh_stale = Some 0);
      checkb (name ^ " re-entry blocked") true
        (o.Fault.Harness.reenter_blocked = Some true);
      checkb (name ^ " recovered") true
        (o.Fault.Harness.recovered = Some true))
    corruption_classes

let test_corruption_panic_contains () =
  List.iter
    (fun cls ->
      let name = Fault.Inject.cls_to_string cls in
      let o = Fault.Harness.run_one ~cls ~mode:panic ~seed:11 () in
      checkb (name ^ " contained") true (Fault.Harness.contained o);
      checkb (name ^ " detected") true
        (o.Fault.Harness.sh_detected = Some true);
      checkb (name ^ " no stale allow") true
        (o.Fault.Harness.sh_stale = Some 0))
    corruption_classes

let test_corruption_baseline_escapes () =
  (* without the integrity layer the same wild writes land: the payload
     store goes through the corrupt tier unchallenged *)
  List.iter
    (fun cls ->
      let name = Fault.Inject.cls_to_string cls in
      let o =
        Fault.Harness.run_one ~cls ~mode:Fault.Harness.Baseline ~seed:11 ()
      in
      checkb (name ^ " escaped") true (o.Fault.Harness.escaped_bytes > 0);
      checkb (name ^ " unnoticed") false o.Fault.Harness.panicked;
      checkb (name ^ " no self-heal data") true
        (o.Fault.Harness.sh_detected = None))
    corruption_classes

(* ---------- campaign ---------- *)

let small = lazy (Fault.Campaign.run { Fault.Campaign.faults = 24; seed = 7 })

let test_campaign_invariants () =
  match Fault.Campaign.check (Lazy.force small) with
  | [] -> ()
  | fails -> Alcotest.failf "campaign: %s" (String.concat "; " fails)

let test_campaign_matrix () =
  let r = Lazy.force small in
  let tot m = Fault.Campaign.totals r ~mode:m in
  let p = tot panic and q = tot quarantine in
  let a = tot audit and b = tot Fault.Harness.Baseline in
  checki "panic 100%" p.Fault.Campaign.injected p.Fault.Campaign.contained;
  checki "quarantine 100%" q.Fault.Campaign.injected q.Fault.Campaign.contained;
  checki "quarantine keeps kernel up" q.Fault.Campaign.injected
    q.Fault.Campaign.alive;
  checki "baseline contains nothing" 0 b.Fault.Campaign.contained;
  (* audit contains exactly the pipeline classes (load rejection): every
     runtime class's store goes through in audit mode *)
  let audit_pipeline =
    List.fold_left
      (fun acc cls ->
        if Fault.Inject.is_pipeline_fault cls then
          acc + (Fault.Campaign.cell r ~cls ~mode:audit).Fault.Campaign.injected
        else acc)
      0 Fault.Inject.all_classes
  in
  checki "audit contains pipeline classes" audit_pipeline
    a.Fault.Campaign.contained;
  checki "every re-entry rejected" q.Fault.Campaign.reenter_total
    q.Fault.Campaign.reenter_ok;
  checki "every recovery succeeded" q.Fault.Campaign.recover_total
    q.Fault.Campaign.recovered

let test_campaign_deterministic () =
  let cfg = { Fault.Campaign.faults = 12; seed = 99 } in
  let a = Fault.Campaign.render (Fault.Campaign.run cfg) in
  let b = Fault.Campaign.render (Fault.Campaign.run cfg) in
  Alcotest.(check string) "byte-for-byte reproducible" a b

let test_campaign_opt_parity () =
  (* the containment matrix must not depend on the victim pipeline's
     guard-optimization tier: optimized guards check supersets of the
     original bytes, so every fault is caught (or rejected at load)
     exactly as for the unoptimized compile. Denial *counts* may shrink
     (merged checks), so compare the verdict cells, not the render. *)
  let cfg = { Fault.Campaign.faults = 8; seed = 7 } in
  let a = Fault.Campaign.run cfg in
  let b = Fault.Campaign.run ~opt:Passes.Pipeline.O_aggressive cfg in
  let project r =
    List.concat_map
      (fun cls ->
        List.map
          (fun mode ->
            let c = Fault.Campaign.cell r ~cls ~mode in
            ( Fault.Inject.cls_to_string cls,
              Fault.Harness.mode_to_string mode,
              ( c.Fault.Campaign.injected,
                c.Fault.Campaign.contained,
                c.Fault.Campaign.alive,
                c.Fault.Campaign.rejected_at_load,
                c.Fault.Campaign.quarantines ) ))
          r.Fault.Campaign.modes)
      r.Fault.Campaign.classes
  in
  checkb "optimized campaign passes its own invariants" true
    (Fault.Campaign.passes b);
  List.iter2
    (fun (cls, mode, va) (_, _, vb) ->
      if va <> vb then
        Alcotest.failf "containment cell %s/%s differs across opt tiers" cls
          mode)
    (project a) (project b)

let test_campaign_seed_sensitivity () =
  (* different seeds give different victims (salted stores), yet the same
     verdict — the report text differs only if counts differ, so compare
     a raw outcome instead *)
  let o1 = Fault.Harness.run_one ~cls:Fault.Inject.Wild_store ~mode:panic ~seed:1 () in
  let o2 = Fault.Harness.run_one ~cls:Fault.Inject.Wild_store ~mode:panic ~seed:2 () in
  checkb "both contained" true
    (Fault.Harness.contained o1 && Fault.Harness.contained o2)

(* ---------- containment property ---------- *)

let prop_containment =
  QCheck.Test.make ~name:"guarded module never escapes writable regions"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed -> Fault.Harness.run_random ~seed () = 0)

let () =
  Alcotest.run "fault"
    [
      ( "outcomes",
        [
          Alcotest.test_case "wild store / baseline" `Quick
            test_wild_store_baseline;
          Alcotest.test_case "wild store / panic" `Quick test_wild_store_panic;
          Alcotest.test_case "wild store / quarantine" `Quick
            test_wild_store_quarantine;
          Alcotest.test_case "wild store / audit" `Quick test_wild_store_audit;
          Alcotest.test_case "tamper rejected at load" `Quick
            test_tamper_rejected_at_load;
        ] );
      ( "selfheal",
        [
          Alcotest.test_case "corruption quarantine heals" `Quick
            test_corruption_quarantine_heals;
          Alcotest.test_case "corruption panic contains" `Quick
            test_corruption_panic_contains;
          Alcotest.test_case "corruption baseline escapes" `Quick
            test_corruption_baseline_escapes;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "invariants" `Quick test_campaign_invariants;
          Alcotest.test_case "matrix" `Quick test_campaign_matrix;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "opt-tier parity" `Slow test_campaign_opt_parity;
          Alcotest.test_case "seed sensitivity" `Quick
            test_campaign_seed_sensitivity;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_containment ] );
    ]
