(* One workload, end to end: the untraced measurement (set-up builds, the
   unguarded baseline twin, the measured pass, host-timing repetitions
   until the time is up) and, when asked, the traced pass that breaks
   the numbers down by layer. *)

open Carat_kop
module W = Workloads

type pass = {
  fp : int list;  (** Σ ticks over CPUs after each chunk, in chunk order *)
  sent : int;
  ops : int;
  delivered : int;
  attempted : int;
  failed : int;
  sim_s : float;
  lats : int array;
  ticks : int;
  delta : (string * int) list;  (** counter deltas over the chunks *)
  final : (string * int) list;  (** counter values at the end *)
  updates : int list;
  minor_words : float;
}

let run_pass ?host ?(deadline = infinity) ?(on_start = ignore) (i : W.inst) ~chunks =
  i.W.warmup ();
  on_start ();
  i.W.updates := [];
  let c0 = i.W.counters () in
  let mw0 = Gc.minor_words () in
  let t0 = W.sum_ticks i.W.machines in
  let rec go c acc =
    if c >= chunks || (c > 0 && Unix.gettimeofday () >= deadline) then List.rev acc
    else
      let ch = i.W.chunk host c in
      go (c + 1) ((ch, W.sum_ticks i.W.machines - t0) :: acc)
  in
  let res = go 0 [] in
  let mw = Gc.minor_words () -. mw0 in
  let final = i.W.counters () in
  let sum f = List.fold_left (fun a (ch, _) -> a + f ch) 0 res in
  {
    fp = List.map snd res;
    sent = sum (fun c -> c.W.sent);
    ops = sum (fun c -> c.W.ops);
    delivered = sum (fun c -> c.W.ops - c.W.sent);
    attempted = sum (fun c -> c.W.attempted);
    failed = sum (fun c -> c.W.failed);
    sim_s = List.fold_left (fun a (ch, _) -> a +. ch.W.sim_s) 0.0 res;
    lats = Array.concat (List.map (fun (ch, _) -> ch.W.lats) res);
    ticks = W.sum_ticks i.W.machines - t0;
    delta = List.map2 (fun (k, a) (_, b) -> (k, b - a)) c0 final;
    final;
    updates = List.rev !(i.W.updates);
    minor_words = mw;
  }

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> x = y && is_prefix a' b'
  | _ :: _, [] -> false

type result = {
  workload : string;
  failures : string list;  (** empty = every correctness check passed *)
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;  (** empty without the traced pass *)
  ledger : (string * float) list;  (** cycles per op by layer, traced *)
  spans : Json.t option;
}

let fi = float_of_int
let per a b = if b = 0 then 0.0 else fi a /. fi b
let cycles ticks = fi ticks /. fi Machine.Model.ticks_per_cycle

let percentile lats q =
  if Array.length lats = 0 then 0.0
  else Stats.Summary.percentile (Array.map fi lats) q

(* Mean of the middle half of the samples: as blind to the tails as the
   median, but it moves smoothly when a distribution has two modes on
   either side of its median, as duplex RX latency does (its median
   flips between ~1285 and ~1358 cycles from seed to seed). *)
let interquartile_mean lats =
  let a = Array.copy lats in
  Array.sort compare a;
  let n = Array.length a in
  let lo = n / 4 and hi = n - (n / 4) in
  let s = ref 0 in
  for i = lo to hi - 1 do
    s := !s + a.(i)
  done;
  if hi > lo then fi !s /. fi (hi - lo) else 0.0

let live_mb () =
  Gc.full_major ();
  fi ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Set-up steps, each the fastest of three, calibrated, in ms. *)
let setup_pieces (w : W.t) host =
  let runs = List.init 3 (fun _ -> Gc.compact (); w.W.pieces ()) in
  List.map
    (fun (name, _) ->
      let best = List.fold_left (fun a r -> Float.min a (List.assoc name r)) infinity runs in
      ("setup." ^ name ^ "_ms", best *. 1e3 *. Host.scale host))
    (List.hd runs)

let untraced_layers (p : pass) (host : Host.t) ~rep_chunks =
  let d k = List.assoc k p.delta in
  let n_upd = List.length p.updates in
  let pubs = d "rcu_pubs" in
  [
    ("machine.instr_per_op", per (d "instr") p.ops);
    ("machine.loads_per_op", per (d "loads") p.ops);
    ("machine.branches_per_op", per (d "branches") p.ops);
    ("machine.mmio_per_op", per (d "mmio") p.ops);
    ("machine.mispredict_ratio", per (d "bp_miss") (d "bp_ok" + d "bp_miss"));
    ("machine.l1_hit_ratio", per (d "l1_hit") (d "l1_hit" + d "l1_miss"));
    ("latency_p50_cycles", percentile p.lats 0.5);
    ("latency_p999_cycles", percentile p.lats 0.999);
    ("latency_samples", fi (Array.length p.lats));
    ("rx_pps", fi p.delivered /. p.sim_s);
    ( "policy_update_p50_cycles",
      if n_upd = 0 then 0.0 else Host.median (List.map cycles p.updates) );
    ("error_rate", per (p.failed + d "rx_dropped") p.attempted);
    ("policy.entries_scanned_per_check", per (d "scanned") (d "checks"));
    ("policy.ic_hit_ratio", per (d "ic_hit") (d "ic_hit" + d "ic_miss"));
    ("policy.domain.shadow_hit_ratio", per (d "dom_hit") (d "dom_hit" + d "dom_miss"));
    ("policy.denied", fi (d "denied"));
    ("policy.update.calls", fi n_upd);
    ("policy.update.cycles_per_call", cycles (List.fold_left ( + ) 0 p.updates) /. fi (max 1 n_upd));
    ("smp.publications", fi pubs);
    ("smp.retired", fi (d "rcu_retired"));
    ("smp.ipis_per_publication", per (d "ipis") pubs);
    ("smp.ipi_cycles_per_publication", per (d "ipi_cycles") pubs);
    ("smp.grace_quiescents_per_publication", per (d "grace") pubs);
    ("net.busy_retries_per_op", per (d "busy_retries") p.sent);
    ("net.deschedules_per_op", per (d "deschedules") p.sent);
    ("net.rx.polls_per_frame", per (d "rx_polls") p.delivered);
    ("net.rx.irqs_per_frame", per (d "rx_irqs") p.delivered);
    ("net.rx.budget_exhausted", fi (d "rx_exhausted"));
    ("net.rx.timer_kicks", fi (d "rx_kicks"));
    ("nic.rx_drop_ratio", per (d "rx_dropped") (p.delivered + d "rx_dropped"));
    ("kernel.heap_bytes_per_update", per (d "heap") n_upd);
    ("kernel.heap_mib_used", fi (List.assoc "heap" p.final) /. 1048576.0);
    ("host.ns_per_op", Host.ns_per_op host ~chunks:rep_chunks);
    ("host.raw_ns_per_op", Host.raw_ns_per_op host ~chunks:rep_chunks);
    ("host.cal_ns", fi host.Host.cal_min);
    ("host.minor_words_per_op", p.minor_words /. fi p.ops);
  ]

let trace_passes = 5

(* One traced pass: same seed, fresh testbed, paranoid verification on,
   spans recorded from the end of the warm-up. *)
let trace_pass (w : W.t) ~seed ~sizes ~(main : pass) ~thost =
  Gc.compact ();
  let i = w.W.create ~seed Testbed.Carat sizes in
  Policy.Engine.set_verify (Policy.Policy_module.engine i.W.pm) true;
  Option.iter (fun (dm, _) -> Policy.Domain.set_verify dm true) i.W.domain;
  let rec_ = ref None in
  let p =
    run_pass ~host:thost i ~chunks:sizes.W.trace_chunks ~on_start:(fun () ->
        rec_ := Some (Spans.start i.W.kernel i.W.machines))
  in
  Spans.stop ();
  let sp = Option.get !rec_ in
  W.check (is_prefix p.fp main.fp) "traced run is not bit-identical to the untraced run";
  W.check (List.assoc "stale" p.delta = 0) "%d stale allows in the verify-on run"
    (List.assoc "stale" p.delta);
  List.iter (fun e -> W.check false "spans: %s" e) sp.Spans.errors;
  W.check (sp.Spans.depth = 0) "spans left open";
  (i, p, sp)

(* The traced run: [passes] traced passes, each on a fresh testbed. The
   simulated numbers come from the first (all passes are checked
   bit-identical); each layer's host time is its fastest over the passes,
   because a single pass can land on a testbed whose heap layout runs
   the whole simulator at half speed. *)
let traced (w : W.t) ~seed ~sizes ~passes ~(main : pass) ~(host : Host.t) ~guard_cycles_per_op =
  let thost = Host.create () in
  let i, p, sp = trace_pass w ~seed ~sizes ~main ~thost in
  let self_ns = Array.copy sp.Spans.self_ns in
  for _ = 2 to passes do
    let _, _, sp' = trace_pass w ~seed ~sizes ~main ~thost in
    Array.iteri (fun l ns -> self_ns.(l) <- min self_ns.(l) ns) sp'.Spans.self_ns
  done;
  (* the ledger: per-layer self ticks plus whatever ran outside every
     span. The benchmark's own spans tile the TX client loop, so there
     the remainder must be exactly zero; on duplex the traffic driver's
     own loop is outside the hooks and the remainder is booked to tool *)
  let remainder = p.ticks - sp.Spans.top_ticks in
  if i.W.own_loop then W.check (remainder = 0) "ledger: %d ticks ran outside every span" remainder
  else W.check (remainder >= 0) "ledger: spans claim %d ticks more than ran" (-remainder);
  let self =
    Array.mapi
      (fun l t -> if l = Spans.tool then t + remainder else t)
      sp.Spans.self_ticks
  in
  let sum = Array.fold_left ( + ) 0 self in
  W.check (sum = p.ticks) "ledger: layers sum to %d ticks, the run took %d" sum p.ticks;
  Array.iteri (fun l t -> W.check (t >= 0) "ledger: negative self time in %s" Spans.layers.(l)) self;
  let charged, contrib = Spans.probe_overlap sp ~addr:(Kernel.Layout.kernel_base + 0x100000) in
  W.check (charged = contrib) "guard span books %d ticks, the kernel charged %d" contrib charged;
  let ops = p.ops in
  let s = Host.scale host in
  let ledger =
    Array.to_list (Array.mapi (fun l t -> (Spans.layers.(l) ^ ".cycles_per_op", cycles t /. fi ops)) self)
  in
  let layer l = Spans.(sp.calls.(l), sp.self_ticks.(l), self_ns.(l)) in
  let vm name l =
    let calls, ticks, ns = layer l in
    [
      (name ^ ".calls_per_op", per calls ops);
      (name ^ ".self_cycles_per_call", cycles ticks /. fi (max 1 calls));
      (name ^ ".self_host_ns_per_call", per ns calls *. s);
    ]
  in
  let g = Spans.guard in
  let gcalls = sp.Spans.calls.(g) in
  let guard_per_op = cycles sp.Spans.contrib_ticks.(g) /. fi ops in
  let layers =
    vm "vm.xmit" Spans.vm_xmit @ vm "vm.irq" Spans.vm_irq @ vm "vm.napi_poll" Spans.vm_napi_poll
    @ [
        ("policy.guard.calls_per_op", per gcalls ops);
        ("policy.guard.raw_cycles_per_call", cycles sp.Spans.raw_ticks.(g) /. fi (max 1 gcalls));
        ("policy.guard.visible_cycles_per_call", cycles sp.Spans.contrib_ticks.(g) /. fi (max 1 gcalls));
        ("policy.guard.host_ns_per_call", per self_ns.(g) gcalls *. s);
        ("vm.guard_args_cycles_per_op", guard_cycles_per_op -. guard_per_op);
        ("policy.stale_allows", fi (List.assoc "stale" p.delta));
        ( "host.trace_overhead",
          let chunks = sizes.W.trace_chunks in
          Host.raw_ns_per_op thost ~chunks /. Host.raw_ns_per_op host ~chunks );
        ("setup.static_guards", fi (Passes.Guard_injection.count_guards i.W.driver_kir));
      ]
  in
  (layers, ledger, Spans.to_json sp ~workload:w.W.name ~seed)

let run (w : W.t) ~seed ~seconds ~trace ~smoke =
  W.failures := [];
  let sizes = if smoke then w.W.smoke else w.W.sizes in
  let host = Host.create () in
  let carat () = w.W.create ~seed Testbed.Carat sizes in
  let deadline = Unix.gettimeofday () +. seconds in
  (* the unguarded twin on identical seeds; simulated cycles only *)
  let twin = Option.value w.W.guard_twin ~default:w.W.create in
  let base =
    Gc.compact ();
    run_pass (twin ~seed Testbed.Baseline sizes) ~chunks:sizes.W.chunks
  in
  let guarded_twin =
    Option.map
      (fun f -> Gc.compact (); run_pass (f ~seed Testbed.Carat sizes) ~chunks:sizes.W.chunks)
      w.W.guard_twin
  in
  (* set-up: several builds, the last one is measured *)
  let inst = ref None in
  for _ = 1 to if smoke then 2 else 10 do
    inst := None;
    inst := Some (Host.build host carat)
  done;
  let i = Option.get !inst in
  let main = run_pass ~host i ~chunks:sizes.W.chunks in
  let live = live_mb () in
  W.check (Analysis.Certify.validate i.W.driver_kir = Ok ()) "the compiled driver fails Certify.validate";
  W.check (Kernel.panic_state i.W.kernel = None) "the kernel panicked";
  inst := None;
  let d k = List.assoc k main.delta in
  List.iter
    (fun ((p : pass), what) -> W.check (p.failed = 0) "%d operations failed in the %s" p.failed what)
    ((main, "measured pass") :: (base, "baseline twin")
    :: Option.to_list (Option.map (fun p -> (p, "guarded twin")) guarded_twin));
  W.check (d "denied" = 0) "%d guard denials" (d "denied");
  W.check
    (List.assoc "rcu_pubs" main.final = List.assoc "rcu_retired" main.final
    && List.assoc "dom_pubs" main.final = List.assoc "dom_retired" main.final)
    "a policy generation was never retired";
  W.check (main.ops > 0 && main.sim_s > 0.0) "nothing was measured";
  (* host-timing repetitions, each on a fresh testbed (a fresh heap
     layout), until the time is up *)
  while Unix.gettimeofday () < deadline do
    let r = run_pass ~host ~deadline (Host.build host carat) ~chunks:sizes.W.rep_chunks in
    W.check (is_prefix r.fp main.fp) "a repetition is not bit-identical to the measured pass"
  done;
  let guarded = Option.value guarded_twin ~default:main in
  let guard_cycles_per_op = cycles (guarded.ticks - base.ticks) /. fi guarded.ops in
  let e2e =
    [
      ("tx_pps", fi main.sent /. main.sim_s);
      ("latency_iqm_cycles", interquartile_mean main.lats);
      ("latency_p99_cycles", percentile main.lats 0.99);
      ("guard_cycles_per_op", guard_cycles_per_op);
      ("setup_s", Host.setup_s host);
      ("host_live_mb", live);
    ]
  in
  let layers, ledger, spans =
    if not trace then ([], [], None)
    else
      let passes = if smoke then 1 else trace_passes in
      let l, ledger, spans = traced w ~seed ~sizes ~passes ~main ~host ~guard_cycles_per_op in
      (untraced_layers main host ~rep_chunks:sizes.W.rep_chunks @ l @ ledger @ setup_pieces w host, ledger, Some spans)
  in
  {
    workload = w.W.name;
    failures = List.rev !W.failures;
    attempted = main.attempted;
    failed = main.failed;
    e2e;
    layers;
    ledger;
    spans;
  }
