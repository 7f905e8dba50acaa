(* Engine equivalence: the per-site span inline cache must be
   decision-identical to the plain linear table it fronts, epoch bumps
   must kill stale cache entries, and the compiled KIR engine must be
   cycle- and outcome-identical to the interpreter. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- differential property: linear+IC vs linear ---------- *)

(* One kernel hosting the two engines under test; policies are swapped
   per trial with set_policy (kernel creation dwarfs everything else the
   property does). *)
let diff_cell =
  lazy
    (let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
     let lin = Policy.Engine.create ~capacity:64 k in
     let linic = Policy.Engine.create ~capacity:64 k in
     Policy.Engine.enable_site_cache linic;
     (lin, linic))

let page_size = Kernel.Memory.page_size

(* Non-overlapping regions walking up the user half, with deliberate
   edge shapes — zero gaps (adjacent regions), one-byte regions, exact
   pages, and multi-page spans that straddle page boundaries. *)
let gen_disjoint rng n =
  let cursor = ref 0x2000_0000 in
  List.init n (fun i ->
      let gap =
        if Machine.Rng.flip rng 0.3 then 0
        else 1 + Machine.Rng.int rng (2 * page_size)
      in
      let len =
        match Machine.Rng.int rng 4 with
        | 0 -> 1
        | 1 -> page_size
        | 2 -> 1 + Machine.Rng.int rng (3 * page_size)
        | _ -> 2 * page_size
      in
      let prot = Machine.Rng.int rng 4 in
      let base = !cursor + gap in
      cursor := base + len;
      Policy.Region.v ~tag:(Printf.sprintf "r%d" i) ~base ~len ~prot ())

let insert_at i x l =
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

(* Random policy: the disjoint walk above, then layered shapes whose
   first-match answer depends on list order:
   - a hole inside a region, with different protection, listed before it;
   - a duplicate base with a different length and protection, anywhere;
   - a region partially overlapping a later one, listed before it;
   plus a region ending exactly at [max_int] and, sometimes, one whose
   end wraps past it (it can contain no access that does not wrap). *)
let gen_policy rng =
  let n = 1 + Machine.Rng.int rng 40 in
  let rs = ref (gen_disjoint rng n) in
  for k = 1 to Machine.Rng.int rng 16 do
    let j = Machine.Rng.int rng (List.length !rs) in
    let (r : Policy.Region.t) = List.nth !rs j in
    let base = r.Policy.Region.base and len = r.Policy.Region.len in
    let other = (r.Policy.Region.prot + 1 + Machine.Rng.int rng 3) land 3 in
    let tag = Printf.sprintf "x%d" k in
    let before = Machine.Rng.int rng (j + 1) in
    match Machine.Rng.int rng 3 with
    | 0 ->
      let lo = base + Machine.Rng.int rng len in
      let hlen =
        1 + Machine.Rng.int rng (min (base + len - lo) (2 * page_size))
      in
      rs :=
        insert_at before (Policy.Region.v ~tag ~base:lo ~len:hlen ~prot:other ()) !rs
    | 1 ->
      let dlen = 1 + Machine.Rng.int rng (3 * page_size) in
      rs :=
        insert_at (Machine.Rng.int rng (List.length !rs + 1))
          (Policy.Region.v ~tag ~base ~len:dlen ~prot:other ())
          !rs
    | _ ->
      (* straddles the region's start or its end *)
      let reach = 1 + Machine.Rng.int rng (2 * page_size) in
      let pbase, plen =
        if Machine.Rng.flip rng 0.5 then
          (base - reach, reach + 1 + Machine.Rng.int rng len)
        else
          let lo = base + Machine.Rng.int rng len in
          (lo, base + len - lo + reach)
      in
      rs :=
        insert_at before
          (Policy.Region.v ~tag ~base:pbase ~len:plen ~prot:other ())
          !rs
  done;
  let top_len = 1 + Machine.Rng.int rng (2 * page_size) in
  let top =
    Policy.Region.v ~tag:"top" ~base:(max_int - top_len) ~len:top_len
      ~prot:(Machine.Rng.int rng 4) ()
  in
  let rs = insert_at (Machine.Rng.int rng (List.length !rs + 1)) top !rs in
  if Machine.Rng.flip rng 0.3 then
    rs
    @ [
        Policy.Region.v ~tag:"wraps" ~base:(max_int - page_size)
          ~len:(2 * page_size) ~prot:(Machine.Rng.int rng 4) ();
      ]
  else rs

(* An access stream driven through at most 4 guard sites, so a span one
   access fills answers the others:
   - point probes biased to region edges (the byte before/at the base,
     the last byte, the byte past the end, an interior byte), sizes 0 to
     two pages;
   - page-crossing accesses that stay inside one region;
   - walks: one site striding through a region and past its end, the way
     a driver walks a ring buffer, stepping into any hole or overlap
     listed before the region;
   - accesses ending at, or wrapping past, [max_int];
   - far-field probes. *)
let gen_accesses rng policy =
  let sites = Array.init 4 (fun _ -> Machine.Rng.int rng 2048) in
  let site () = sites.(Machine.Rng.int rng 4) in
  let flags () = 1 + Machine.Rng.int rng 3 in
  let sizes = [| 0; 1; 2; 4; 8; 16; 64; page_size; 2 * page_size |] in
  let size () = sizes.(Machine.Rng.int rng (Array.length sizes)) in
  let probe addr = (site (), addr, size (), flags ()) in
  let edges =
    List.concat_map
      (fun (r : Policy.Region.t) ->
        let base = r.Policy.Region.base and len = r.Policy.Region.len in
        List.map probe
          [
            base - 1; base; base + len - 1; base + len;
            base + Machine.Rng.int rng len;
          ])
      policy
  in
  let crossing =
    List.filter_map
      (fun (r : Policy.Region.t) ->
        let b = r.Policy.Region.base in
        let boundary = (b / page_size + 1) * page_size in
        if boundary + 4 <= Policy.Region.limit r && b <= boundary - 4 then
          Some (site (), boundary - 4, 8, flags ())
        else None)
      policy
  in
  let walks =
    List.concat_map
      (fun (r : Policy.Region.t) ->
        if Machine.Rng.flip rng 0.5 then []
        else
          let s = site () and f = flags () in
          let sz = 1 + Machine.Rng.int rng 16 in
          let stride =
            [| 8; 64; 1000; page_size / 2; page_size |].(Machine.Rng.int rng 5)
          in
          let steps = min 24 (2 + (r.Policy.Region.len / stride)) in
          List.init steps (fun k -> (s, r.Policy.Region.base + (k * stride), sz, f)))
      policy
  in
  let near_max =
    List.concat_map
      (fun k ->
        [
          (site (), max_int - k, k, flags ());
          (site (), max_int - k, k + 1, flags ());
          (site (), max_int - k + 1, k, flags ());
          (site (), max_int - k, 0, flags ());
        ])
      [ 1; 8; page_size ]
  in
  let far =
    List.init 8 (fun _ -> probe (0x1F00_0000 + Machine.Rng.int rng 0x600_0000))
  in
  edges @ crossing @ walks @ near_max @ far

let decision e ~addr ~size ~flags =
  match Policy.Engine.check e ~addr ~size ~flags with
  | Policy.Engine.Allowed _ -> true
  | Policy.Engine.Denied _ -> false

let prop_differential =
  QCheck.Test.make
    ~name:"linear+site-cache decides byte-for-byte like linear"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lin, linic = Lazy.force diff_cell in
      let rng = Machine.Rng.create seed in
      let policy = gen_policy rng in
      Policy.Engine.set_policy lin policy;
      Policy.Engine.set_policy linic policy;
      let accesses = gen_accesses rng policy in
      (* two passes through the inline cache: the first fills spans that
         later accesses reuse, the second runs hot — every answer must
         agree with the linear reference *)
      List.for_all
        (fun (site, addr, size, flags) ->
          decision lin ~addr ~size ~flags
          = Policy.Engine.check_fast linic ~site ~addr ~size ~flags)
        (accesses @ accesses))

(* Decision stats must be tier-invariant: the same access stream drives
   the same (checks, allowed, denied, entries_scanned) through the plain
   linear walk and the linear+inline-cache fast path — the fast tier may
   only differ in the separate hit/miss tier counters. *)
let prop_decision_stats_tier_invariant =
  QCheck.Test.make
    ~name:"decision stats (checks/allowed/denied/entries_scanned) are tier-invariant"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lin, linic = Lazy.force diff_cell in
      let rng = Machine.Rng.create seed in
      let policy = gen_policy rng in
      Policy.Engine.set_policy lin policy;
      Policy.Engine.set_policy linic policy;
      Policy.Engine.reset_stats lin;
      Policy.Engine.reset_stats linic;
      let accesses = gen_accesses rng policy in
      (* two rounds so the second pass runs hot through the inline cache *)
      for _round = 1 to 2 do
        List.iter
          (fun (site, addr, size, flags) ->
            ignore (Policy.Engine.check lin ~addr ~size ~flags);
            ignore (Policy.Engine.check_fast linic ~site ~addr ~size ~flags))
          accesses
      done;
      let st e =
        let s = Policy.Engine.stats e in
        ( s.Policy.Engine.checks,
          s.Policy.Engine.allowed,
          s.Policy.Engine.denied,
          s.Policy.Engine.entries_scanned )
      in
      st lin = st linic)

(* Regression: an inline-cache allow hit used to leave [last_deny] from a
   previous denial in place, so the next denial's diagnostic (or a panic
   report) could blame a stale region. *)
let test_last_deny_cleared_on_ic_hit () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let e = Policy.Engine.create ~capacity:64 k in
  Policy.Engine.enable_site_cache e;
  Policy.Engine.set_policy e
    [
      Policy.Region.v ~tag:"ro" ~base:0xA000 ~len:page_size
        ~prot:Policy.Region.prot_read ();
      Policy.Region.v ~tag:"rw" ~base:0xC000 ~len:page_size ~prot:Policy.Region.prot_rw ();
    ];
  (* a denied write to the read-only region records it as last_deny *)
  checkb "write to ro denied" false
    (Policy.Engine.check_fast e ~site:1 ~addr:0xA010 ~size:8
       ~flags:Policy.Region.prot_write);
  checkb "last_deny set" true (Policy.Engine.last_deny e <> None);
  (* fill site 2's slot, then hit it: the hot allow must clear last_deny *)
  checkb "fill allow" true
    (Policy.Engine.check_fast e ~site:2 ~addr:0xC010 ~size:8 ~flags:Policy.Region.prot_rw);
  checkb "last_deny cleared by slow-path allow" true
    (Policy.Engine.last_deny e = None);
  checkb "deny again" false
    (Policy.Engine.check_fast e ~site:1 ~addr:0xA010 ~size:8
       ~flags:Policy.Region.prot_write);
  let hits_before = (Policy.Engine.tier_stats e).Policy.Engine.ic_hits in
  checkb "ic-hit allow" true
    (Policy.Engine.check_fast e ~site:2 ~addr:0xC010 ~size:8 ~flags:Policy.Region.prot_rw);
  checki "the allow really was an ic hit" (hits_before + 1)
    (Policy.Engine.tier_stats e).Policy.Engine.ic_hits;
  checkb "last_deny cleared by the ic-hit allow" true
    (Policy.Engine.last_deny e = None)

let test_zero_length_region_rejected () =
  Alcotest.check_raises "len 0"
    (Invalid_argument "Region.v: length must be positive") (fun () ->
      ignore (Policy.Region.v ~base:0x1000 ~len:0 ~prot:3 ()));
  checkb "negative length rejected" true
    (match Policy.Region.v ~base:0x1000 ~len:(-8) ~prot:3 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- epoch invalidation under live reconfiguration ---------- *)

let setup_pm () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let pm =
    Policy.Policy_module.install ~site_cache:true
      ~on_deny:Policy.Policy_module.Audit k
  in
  (k, pm)

let rw = Policy.Region.prot_rw

let test_epoch_live_policy_push () =
  let k, pm = setup_pm () in
  let e = Policy.Policy_module.engine pm in
  Policy.Policy_module.set_policy pm
    [ Policy.Region.v ~tag:"win" ~base:0xA000 ~len:page_size ~prot:rw () ];
  (* prime the site cache: second check is the cached fast path *)
  checkb "allowed before push" true
    (Policy.Engine.check_fast e ~site:7 ~addr:0xA010 ~size:8 ~flags:3);
  checkb "allowed from cache" true
    (Policy.Engine.check_fast e ~site:7 ~addr:0xA010 ~size:8 ~flags:3);
  (* live policy push through the device node: remove the region *)
  let arg = Kernel.map_user k ~size:32 in
  Kernel.write k ~addr:arg ~size:8 0xA000;
  checki "remove ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_remove ~arg);
  checkb "no stale allow" false
    (Policy.Engine.check_fast e ~site:7 ~addr:0xA010 ~size:8 ~flags:3);
  (* push it back: the cached deny must not survive either *)
  Kernel.write k ~addr:arg ~size:8 0xA000;
  Kernel.write k ~addr:(arg + 8) ~size:8 page_size;
  Kernel.write k ~addr:(arg + 16) ~size:8 rw;
  checki "add ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_add ~arg);
  checkb "no stale deny" true
    (Policy.Engine.check_fast e ~site:7 ~addr:0xA010 ~size:8 ~flags:3);
  (* the same sequence through the real guard symbol (4-arg form carries
     the static site id); with on_deny = Audit the verdicts surface as
     violation records *)
  let violations () = List.length (Policy.Policy_module.violations pm) in
  ignore (Kernel.call_symbol k "carat_guard" [| 0xA010; 8; 3; 9 |]);
  checki "guard allows (cache primed)" 0 (violations ());
  Kernel.write k ~addr:arg ~size:8 0xA000;
  checki "remove again ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_remove ~arg);
  ignore (Kernel.call_symbol k "carat_guard" [| 0xA010; 8; 3; 9 |]);
  checki "guard denies after push" 1 (violations ())

let test_epoch_set_mode_ioctl () =
  let k, pm = setup_pm () in
  let e = Policy.Policy_module.engine pm in
  Policy.Policy_module.set_policy pm
    [ Policy.Region.v ~tag:"win" ~base:0xA000 ~len:page_size ~prot:rw () ];
  ignore (Policy.Engine.check_fast e ~site:3 ~addr:0xA000 ~size:8 ~flags:3);
  let before = Policy.Engine.epoch e in
  checki "set-mode ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_set_mode
       ~arg:(Policy.Policy_module.on_deny_to_int Policy.Policy_module.Quarantine));
  checkb "mode ioctl bumps the epoch" true (Policy.Engine.epoch e > before);
  checkb "decision survives the flip" true
    (Policy.Engine.check_fast e ~site:3 ~addr:0xA000 ~size:8 ~flags:3)

(* ---------- golden-run A/B: interpreter vs compiled engine ---------- *)

let golden_run kind =
  let config =
    {
      Testbed.default_config with
      Testbed.technique = Testbed.Carat;
      site_cache = true;
      engine = kind;
      stall_prob = 0.02;
      module_scale = 4;
      seed = 5;
    }
  in
  let tb = Testbed.create ~config () in
  let r =
    Testbed.run_pktgen tb
      { Net.Pktgen.default_config with Net.Pktgen.count = 120; size = 256; seed = 9 }
  in
  let st = Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module) in
  ( r.Net.Pktgen.sent,
    r.Net.Pktgen.cycles,
    r.Net.Pktgen.latencies,
    r.Net.Pktgen.busy_retries,
    st.Policy.Engine.checks,
    st.Policy.Engine.denied,
    Kernel.panic_state tb.Testbed.kernel = None )

let test_golden_equivalence () =
  let s_i, c_i, l_i, b_i, g_i, d_i, a_i = golden_run Vm.Engine.Interp in
  let s_c, c_c, l_c, b_c, g_c, d_c, a_c = golden_run Vm.Engine.Compiled in
  checki "packets sent" s_i s_c;
  checki "simulated cycles" c_i c_c;
  checki "busy retries" b_i b_c;
  checki "guard checks" g_i g_c;
  checki "guard denials" d_i d_c;
  checkb "alive parity" a_i a_c;
  checkb "per-packet latencies identical" true (l_i = l_c)

(* The trace layer sits below both engines, so a traced run must produce
   the identical event stream — same kinds, sites, addresses, and cycle
   stamps — whichever engine executes the module. *)
let traced_golden_run kind =
  let config =
    {
      Testbed.default_config with
      Testbed.technique = Testbed.Carat;
      site_cache = true;
      engine = kind;
      stall_prob = 0.02;
      module_scale = 4;
      seed = 5;
      trace = true;
      trace_capacity = 4096;
    }
  in
  let tb = Testbed.create ~config () in
  ignore
    (Testbed.run_pktgen tb
       { Net.Pktgen.default_config with Net.Pktgen.count = 40; size = 256; seed = 9 });
  match Policy.Policy_module.trace tb.Testbed.policy_module with
  | None -> Alcotest.fail "trace not attached"
  | Some tr -> List.map Trace.format_event (Trace.events tr)

let test_event_stream_engine_parity () =
  let interp = traced_golden_run Vm.Engine.Interp in
  let compiled = traced_golden_run Vm.Engine.Compiled in
  checkb "stream non-empty" true (interp <> []);
  checki "same event count" (List.length interp) (List.length compiled);
  Alcotest.(check (list string))
    "event streams identical (kind, site, addr, cycle stamps)" interp compiled

let test_fault_matrix_engine_parity () =
  (* the containment matrix — panic/quarantine/audit outcomes over every
     fault class — must not depend on the KIR engine *)
  let cfg = { Fault.Campaign.faults = 12; seed = 7 } in
  let interp = Fault.Campaign.run ~engine:Vm.Engine.Interp cfg in
  let compiled = Fault.Campaign.run ~engine:Vm.Engine.Compiled cfg in
  Alcotest.(check string)
    "rendered matrix byte-for-byte identical"
    (Fault.Campaign.render interp)
    (Fault.Campaign.render compiled);
  checkb "compiled campaign passes the invariants" true
    (Fault.Campaign.check compiled = [])

let () =
  Alcotest.run "engine"
    [
      ( "policy tiers",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_decision_stats_tier_invariant;
          Alcotest.test_case "ic hit clears last_deny" `Quick
            test_last_deny_cleared_on_ic_hit;
          Alcotest.test_case "zero-length region rejected" `Quick
            test_zero_length_region_rejected;
        ] );
      ( "epoch invalidation",
        [
          Alcotest.test_case "live policy push" `Quick
            test_epoch_live_policy_push;
          Alcotest.test_case "set-mode ioctl" `Quick test_epoch_set_mode_ioctl;
        ] );
      ( "engine A/B",
        [
          Alcotest.test_case "golden pktgen run" `Quick test_golden_equivalence;
          Alcotest.test_case "traced event streams identical" `Quick
            test_event_stream_engine_parity;
          Alcotest.test_case "fault matrix parity" `Quick
            test_fault_matrix_engine_parity;
        ] );
    ]
