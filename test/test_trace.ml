(* The carat_trace observability layer: ring semantics (overwrite-oldest
   with drop accounting, allocation-free record path), tier-invariant
   counters, the /dev/carat stats+trace ioctls, deny snapshots in
   panic/quarantine reports, and the zero-cost-off contract. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fresh () = Kernel.create ~require_signature:false Machine.Presets.r350

(* ---------- ring mechanics ---------- *)

let put tr i =
  Trace.on_lifecycle tr Trace.Mode_change ~info:i

let test_capacity_rounding () =
  let k = fresh () in
  checki "default" 512 (Trace.capacity (Trace.create k));
  checki "minimum 8" 8 (Trace.capacity (Trace.create ~capacity:2 k));
  checki "rounded to pow2" 128 (Trace.capacity (Trace.create ~capacity:100 k))

let test_ring_overwrites_oldest () =
  let k = fresh () in
  let tr = Trace.create ~capacity:8 k in
  Trace.start tr;
  for i = 0 to 19 do
    put tr i
  done;
  checki "all twenty recorded" 20 (Trace.recorded tr);
  checki "twelve dropped" 12 (Trace.dropped tr);
  let evs = Trace.events tr in
  checki "ring keeps capacity" 8 (List.length evs);
  (* oldest-first, and the survivors are exactly the newest eight *)
  checki "first surviving seq" 12 (List.hd evs).Trace.seq;
  checki "payload matches seq" 12 (List.hd evs).Trace.info;
  let last = List.nth evs 7 in
  checki "last seq" 19 last.Trace.seq;
  checki "last payload" 19 last.Trace.info

let test_reader_drains_and_accounts_drops () =
  let k = fresh () in
  let tr = Trace.create ~capacity:8 k in
  Trace.start tr;
  for i = 0 to 4 do
    put tr i
  done;
  (* drain the first two, then overflow the ring under the reader *)
  (match Trace.read_next tr with
  | Some e -> checki "first read is seq 0" 0 e.Trace.seq
  | None -> Alcotest.fail "empty");
  ignore (Trace.read_next tr);
  for i = 5 to 14 do
    put tr i
  done;
  (* cursor is at 2; the ring now holds 7..14, so 2..6 were lost *)
  (match Trace.read_next tr with
  | Some e -> checki "reader skips to the oldest survivor" 7 e.Trace.seq
  | None -> Alcotest.fail "empty after overflow");
  checki "skipped events charged as drops" 5 (Trace.dropped tr);
  let rec drain n =
    match Trace.read_next tr with Some _ -> drain (n + 1) | None -> n
  in
  checki "rest of the ring drains" 7 (drain 0);
  checkb "then the reader sees end-of-stream" true (Trace.read_next tr = None)

let test_recording_gate () =
  let k = fresh () in
  let tr = Trace.create ~capacity:8 k in
  (* not started: lifecycle events are dropped, not buffered *)
  put tr 1;
  checki "nothing recorded before start" 0 (Trace.recorded tr);
  Trace.start tr;
  put tr 2;
  Trace.stop tr;
  put tr 3;
  checki "only the started window recorded" 1 (Trace.recorded tr);
  (* guard counters tick regardless of the ring *)
  Trace.on_guard tr ~site:3 ~addr:0x1000 ~size:8 ~flags:1 ~allowed:true
    ~fast:false ~scanned:2 ~region_base:0x1000;
  let checks_, allows, denies, scanned, _, _ = Trace.totals tr in
  checki "counter checks" 1 checks_;
  checki "counter allows" 1 allows;
  checki "counter denies" 0 denies;
  checki "counter scanned" 2 scanned;
  checki "ring untouched by counters when stopped" 1 (Trace.recorded tr)

let test_record_path_does_not_allocate () =
  let k = fresh () in
  let tr = Trace.create ~capacity:64 k in
  Trace.start tr;
  (* warm the site slabs and the region table *)
  for i = 0 to 99 do
    Trace.on_guard tr ~site:(i land 7) ~addr:0x2000 ~size:8 ~flags:1
      ~allowed:(i land 1 = 0) ~fast:(i land 3 = 0) ~scanned:1
      ~region_base:0x2000
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    Trace.on_guard tr ~site:(i land 7) ~addr:0x2000 ~size:8 ~flags:1
      ~allowed:(i land 1 = 0) ~fast:(i land 3 = 0) ~scanned:1
      ~region_base:0x2000
  done;
  let words = Gc.minor_words () -. w0 in
  checkb "hot record path allocation-free" true (words <= 64.0)

let test_zero_cost_when_detached () =
  (* attached but not recording: guard events must not charge a single
     simulated cycle (the tracegate bench asserts the same end to end) *)
  let k = fresh () in
  let tr = Trace.create ~capacity:64 k in
  let machine = Kernel.machine k in
  let c0 = Machine.Model.cycles machine in
  for i = 0 to 99 do
    Trace.on_guard tr ~site:i ~addr:0x2000 ~size:8 ~flags:1 ~allowed:true
      ~fast:false ~scanned:1 ~region_base:0x2000
  done;
  checki "no simulated cycles while not recording" c0
    (Machine.Model.cycles machine);
  Trace.start tr;
  put tr 1;
  checkb "recording charges the simulation" true
    (Machine.Model.cycles machine > c0)

let test_tier_event_kinds_roundtrip () =
  (* the self-healing lifecycle kinds survive the packed ring encoding
     and render under their own names (not folded into panic) *)
  List.iter
    (fun (kind, code, name) ->
      checki name code (Trace.kind_to_int kind);
      checkb (name ^ " decodes") true (Trace.kind_of_int code = kind);
      checks (name ^ " renders") name (Trace.kind_to_string kind))
    [
      (Trace.Tier_degraded, 13, "tier-degraded");
      (Trace.Tier_rebuilt, 14, "tier-rebuilt");
    ];
  let k = fresh () in
  let tr = Trace.create ~capacity:8 k in
  Trace.start tr;
  Trace.on_lifecycle tr Trace.Tier_degraded ~info:1;
  Trace.on_lifecycle tr Trace.Tier_rebuilt ~info:1;
  match Trace.events tr with
  | [ a; b ] ->
    checkb "degraded event" true (a.Trace.kind = Trace.Tier_degraded);
    checkb "rebuilt event" true (b.Trace.kind = Trace.Tier_rebuilt);
    checki "tier code rides in info" 1 a.Trace.info
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

(* ---------- the /dev/carat observability ioctls ---------- *)

let ioctl_cell () =
  let k = fresh () in
  let pm =
    Policy.Policy_module.install ~site_cache:true
      ~on_deny:Policy.Policy_module.Audit k
  in
  Policy.Policy_module.set_policy pm
    [
      Policy.Region.v ~tag:"win" ~base:0xA000 ~len:4096
        ~prot:Policy.Region.prot_rw ();
    ];
  (k, pm)

let test_ioctl_stats_and_trace_read () =
  let k, pm = ioctl_cell () in
  checki "trace_start ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_trace_start
       ~arg:16);
  (match Policy.Policy_module.trace pm with
  | Some tr -> checki "capacity hint honoured" 16 (Trace.capacity tr)
  | None -> Alcotest.fail "trace not attached by ioctl");
  ignore (Policy.Policy_module.guard pm ~site:1 ~addr:0xA010 ~size:8 ~flags:1);
  ignore (Policy.Policy_module.guard pm ~site:1 ~addr:0xA010 ~size:8 ~flags:1);
  ignore (Policy.Policy_module.guard pm ~site:2 ~addr:0x40 ~size:8 ~flags:2);
  let arg = Kernel.map_user k ~size:64 in
  checki "get_stats ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_get_stats ~arg);
  let w i = Kernel.read k ~addr:(arg + (i * 8)) ~size:8 in
  checki "checks" 3 (w 0);
  checki "allowed" 2 (w 1);
  checki "denied" 1 (w 2);
  checki "ic hits + misses = checks" 3 (w 4 + w 5);
  checkb "events recorded" true (w 6 >= 3);
  checki "none dropped" 0 (w 7);
  checki "trace_stop ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_trace_stop
       ~arg:0);
  (* drain: every read returns one event, seq strictly increasing, and
     the guard events carry the probed addresses *)
  let seen_deny = ref false and last_seq = ref (-1) and n = ref 0 in
  let rec go () =
    let rc =
      Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_trace_read
        ~arg
    in
    if rc = 1 then begin
      incr n;
      checkb "seq increases" true (w 0 > !last_seq);
      last_seq := w 0;
      if Trace.kind_of_int (w 2) = Trace.Guard_deny then begin
        seen_deny := true;
        checki "deny addr" 0x40 (w 4);
        checki "deny site" 2 (w 3)
      end;
      go ()
    end
    else checki "end of stream is rc 0" 0 rc
  in
  go ();
  checkb "read at least the three guard events" true (!n >= 3);
  checkb "the deny came through the ioctl" true !seen_deny

(* ---------- deny snapshots in panic / quarantine reports ---------- *)

let test_panic_reason_carries_trace_tail () =
  let _k, pm = ioctl_cell () in
  Policy.Policy_module.set_on_deny pm Policy.Policy_module.Panic;
  Trace.start (Policy.Policy_module.enable_trace pm);
  ignore (Policy.Policy_module.guard pm ~site:1 ~addr:0xA010 ~size:8 ~flags:1);
  match Policy.Policy_module.guard pm ~site:9 ~addr:0x40 ~size:8 ~flags:2 with
  | _ -> Alcotest.fail "deny did not panic"
  | exception Kernel.Panic info ->
    checkb "reason keeps the CARAT KOP prefix" true
      (contains info.Kernel.reason "CARAT KOP");
    checkb "reason carries the trace tail" true
      (contains info.Kernel.reason "[trace:");
    checkb "tail names the denying site" true
      (contains info.Kernel.reason "site=9");
    checkb "diag attachment has the full events" true
      (info.Kernel.diag <> []
      && List.exists (fun l -> contains l "DENY") info.Kernel.diag)

let test_quarantine_outcome_carries_trace_tail () =
  (* through the fault harness: a wild store under quarantine must leave
     a forensic tail in the outcome and in the quarantine record *)
  let o =
    Fault.Harness.run_one ~cls:Fault.Inject.Wild_store
      ~mode:(Fault.Harness.Carat Policy.Policy_module.Quarantine) ~seed:11 ()
  in
  checkb "quarantined" true o.Fault.Harness.quarantined;
  checkb "outcome has the trace tail" true (o.Fault.Harness.trace_tail <> []);
  checkb "tail shows the deny" true
    (List.exists (fun l -> contains l "DENY") o.Fault.Harness.trace_tail)

(* ---------- rendering ---------- *)

let test_render_stats_shape () =
  let k, pm = ioctl_cell () in
  Trace.start (Policy.Policy_module.enable_trace pm);
  ignore (Policy.Policy_module.guard pm ~site:1 ~addr:0xA010 ~size:8 ~flags:1);
  ignore (Policy.Policy_module.guard pm ~site:2 ~addr:0x40 ~size:8 ~flags:2);
  ignore k;
  match Policy.Policy_module.trace pm with
  | None -> Alcotest.fail "no trace"
  | Some tr ->
    let s =
      Trace.render_stats
        ~region_tag:(fun b -> Policy.Policy_module.region_tag pm b)
        tr
    in
    checkb "header" true (contains s "carat_trace: guard statistics");
    checkb "per-site section" true (contains s "per-site:");
    checkb "per-region section" true (contains s "per-region:");
    checkb "tag resolved" true (contains s "win");
    let ev = Trace.render_events tr in
    checkb "events render one line per event" true
      (contains ev "DENY" && contains ev "allow");
    checks "tail string of an empty ring" "<no events>"
      (Trace.tail_string (Trace.create k) 4)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "capacity rounding" `Quick test_capacity_rounding;
          Alcotest.test_case "overwrites oldest" `Quick
            test_ring_overwrites_oldest;
          Alcotest.test_case "reader drains, drops accounted" `Quick
            test_reader_drains_and_accounts_drops;
          Alcotest.test_case "recording gate" `Quick test_recording_gate;
          Alcotest.test_case "record path allocation-free" `Quick
            test_record_path_does_not_allocate;
          Alcotest.test_case "zero simulated cost when off" `Quick
            test_zero_cost_when_detached;
          Alcotest.test_case "tier event kinds roundtrip" `Quick
            test_tier_event_kinds_roundtrip;
        ] );
      ( "ioctls",
        [
          Alcotest.test_case "get_stats + trace read" `Quick
            test_ioctl_stats_and_trace_read;
        ] );
      ( "deny snapshots",
        [
          Alcotest.test_case "panic reason + diag" `Quick
            test_panic_reason_carries_trace_tail;
          Alcotest.test_case "quarantine outcome tail" `Quick
            test_quarantine_outcome_carries_trace_tail;
        ] );
      ( "rendering",
        [ Alcotest.test_case "stats + events" `Quick test_render_stats_shape ] );
    ]
