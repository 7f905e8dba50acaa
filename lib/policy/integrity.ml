(** Self-healing enforcement: integrity metadata over the derived guard
    tiers, the audit that checks them against the authoritative policy,
    and the degrade / rebuild / re-promote state machine.

    Threat model (MOAT/BULKHEAD's observation applied to ourselves): the
    enforcement machinery — per-site inline caches and the RCU-published
    policy instance — is itself kernel memory a wild write can corrupt
    into *stale allows*. Every legitimate mutation funnels through
    {!Engine.bump_epoch}, where a commit hook re-snapshots the
    authoritative copy held here (region list + default action +
    digest). Out-of-band corruption bypasses that choke point, so the
    live tiers diverge from the authoritative copy and the next audit
    catches the divergence. (A corruption immediately followed by a
    legitimate mutation before any audit re-blesses the live state; the
    watchdog period bounds that window, and it is the same TOCTOU any
    snapshot-based integrity monitor accepts.)

    Tier trust lattice, top down:

    + inline caches (epoch-validated per-site span slots, canaries,
      semantic cross-check)
    + exact walk (instance digest tied back to the authoritative copy)

    On a mismatch the corrupt tier is *quarantined*: the inline caches
    are switched off and flushed, so every check takes the exact walk,
    and a corrupt instance is rebuilt from the authoritative copy
    immediately — there is no lower tier to fall to (a fresh instance
    is published, so not a single check is served from the corrupt
    structure). Quarantined tiers are rebuilt and re-promoted after a
    cooldown, with bounded retries and exponential backoff; a tier that
    keeps failing re-audit is abandoned (left degraded) rather than
    flapping. Every transition emits [Tier_degraded]/[Tier_rebuilt]
    trace events and bumps the counters surfaced in /proc/carat. *)

type tier = Ic | Instance

let tier_code = function Ic -> 0 | Instance -> 2

let tier_to_string = function Ic -> "inline-cache" | Instance -> "instance"

type state = Active | Quarantined | Abandoned

let state_to_string = function
  | Active -> "active"
  | Quarantined -> "quarantined"
  | Abandoned -> "abandoned"

(** Per-tier health cell. *)
type cell = {
  c_tier : tier;
  mutable c_state : state;
  mutable c_retries : int;  (** consecutive failed rebuild attempts *)
  mutable c_cooldown : int;  (** audits to wait before the next attempt *)
  mutable c_detected : int;
  mutable c_degradations : int;
  mutable c_rebuilds : int;
}

let make_cell tier =
  {
    c_tier = tier;
    c_state = Active;
    c_retries = 0;
    c_cooldown = 0;
    c_detected = 0;
    c_degradations = 0;
    c_rebuilds = 0;
  }

type config = {
  cooldown_audits : int;
      (** clean audits a quarantined tier waits before re-promotion *)
  max_retries : int;  (** failed rebuilds before the tier is abandoned *)
}

let default_config = { cooldown_audits = 2; max_retries = 3 }

type t = {
  engine : Engine.t;
  config : config;
  (* the authoritative copy, refreshed on every legitimate mutation *)
  mutable auth_regions : Region.t list;
  mutable auth_default : bool;
  mutable auth_digest : int;
  mutable route : Region.t list -> bool -> unit;
      (** rebuild publisher: installs a fresh instance built from the
          authoritative copy. The policy module points this at its
          mutation router so SMP runs rebuild through the RCU publish
          path; the default publishes directly (single-CPU). *)
  ic : cell;
  inst : cell;
  (* counters (also surfaced via ioctl + /proc/carat) *)
  mutable audits : int;
  mutable detections : int;
  mutable audit_cost_cycles : int;
      (** simulated cycles charged by audits, summed — the bench's
          detection-latency denominator *)
}

(* Folded per-region so every field of every region contributes —
   [Hashtbl.hash] alone bounds its structural traversal and would let a
   flip deep in a long region list slip through undigested. *)
let digest_of rs default_allow =
  List.fold_left
    (fun acc (r : Region.t) ->
      Hashtbl.hash (acc, r.Region.base, r.Region.len, r.Region.prot))
    (Hashtbl.hash default_allow)
    rs

(* The commit hook: re-snapshot the authoritative copy from the live
   engine. Runs after every epoch bump, i.e. after every legitimate
   mutation (including our own rebuild publishes). *)
let refresh t =
  t.auth_regions <- Engine.regions t.engine;
  t.auth_default <- Engine.default_allow t.engine;
  t.auth_digest <- digest_of t.auth_regions t.auth_default

let create ?(config = default_config) engine =
  let t =
    {
      engine;
      config;
      auth_regions = [];
      auth_default = false;
      auth_digest = 0;
      route =
        (fun rs d ->
          let inst = Engine.build_instance engine rs in
          ignore (Engine.publish engine inst ~default_allow:d));
      ic = make_cell Ic;
      inst = make_cell Instance;
      audits = 0;
      detections = 0;
      audit_cost_cycles = 0;
    }
  in
  refresh t;
  Engine.set_on_mutate engine (Some (fun () -> refresh t));
  t

let set_route t f = t.route <- f
let engine t = t.engine

(* ------------------------------------------------------------------ *)
(* per-tier audits *)

let charge t n =
  let machine = Kernel.machine t.engine.Engine.kernel in
  Machine.Model.retire machine n

(* Digest of the live instance vs the authoritative copy. *)
let audit_instance t =
  let live =
    digest_of (Engine.regions t.engine) (Engine.default_allow t.engine)
  in
  charge t (2 * max 1 (List.length t.auth_regions));
  live <> t.auth_digest

(* Inline-cache slots across every view: canary, then semantic
   cross-check of the whole cached (span, prot, depth, rbase) fact. A
   fill caches the one span every access inside it derives, so the
   slot's first byte must re-derive exactly the slot from the
   authoritative copy; a forged bound, even one that keeps the right
   protection, does not. Only slots stamped with the current epoch can
   answer, so only they are audited. *)
let audit_ic t =
  let e = t.engine in
  let bad = ref 0 in
  List.iter
    (fun v ->
      match v.Engine.v_site_cache with
      | None -> ()
      | Some sc ->
        for i = 0 to Engine.site_cache_size - 1 do
          if sc.Engine.sc_epoch.(i) = Engine.epoch e then begin
            charge t 2;
            let canary_ok = sc.Engine.sc_canary.(i) = Engine.canary_value i in
            let sem_ok =
              match
                Engine.first_match_span t.auth_regions
                  ~default_allow:t.auth_default ~addr:sc.Engine.sc_lo.(i)
                  ~size:1
              with
              | None ->
                (* no fill caches a span its first byte cannot derive *)
                false
              | Some s ->
                sc.Engine.sc_lo.(i) = s.Engine.sp_lo
                && sc.Engine.sc_hi.(i) = s.Engine.sp_hi
                && sc.Engine.sc_prot.(i) = s.Engine.sp_prot
                && sc.Engine.sc_depth.(i) = s.Engine.sp_depth
                && sc.Engine.sc_rbase.(i) = s.Engine.sp_rbase
            in
            if not (canary_ok && sem_ok) then incr bad
          end
        done)
    (Engine.views e);
  !bad

(* ------------------------------------------------------------------ *)
(* degrade / rebuild / re-promote *)

let emit t kind tier = Engine.lifecycle t.engine kind ~info:(tier_code tier)

let apply_ic_switch t = Engine.set_ic_enabled t.engine (t.ic.c_state = Active)

let flush_all_ics t =
  List.iter Engine.flush_view_site_cache (Engine.views t.engine)

(* Publish a fresh instance built from the authoritative copy. Every
   rebuilt service change goes through here, so no check is ever served
   from a structure that was found corrupt. *)
let publish_auth t = t.route t.auth_regions t.auth_default

let degrade t (c : cell) =
  c.c_detected <- c.c_detected + 1;
  t.detections <- t.detections + 1;
  if c.c_state = Active then begin
    c.c_state <- Quarantined;
    c.c_retries <- 0;
    c.c_cooldown <- t.config.cooldown_audits;
    c.c_degradations <- c.c_degradations + 1;
    emit t Trace.Tier_degraded c.c_tier;
    match c.c_tier with
    | Ic ->
      apply_ic_switch t;
      flush_all_ics t
    | Instance ->
      (* no lower tier: rebuild from the authoritative copy on the spot *)
      publish_auth t
  end

(* A quarantined tier's audit tick: count the cooldown down, then attempt
   the rebuild; verify with a fresh audit of that tier; back off
   exponentially on failure, abandon after max_retries. *)
let attempt_repromote t (c : cell) ~(reaudit : unit -> bool) ~(rebuild : unit -> unit) =
  if c.c_state = Quarantined then begin
    c.c_cooldown <- c.c_cooldown - 1;
    if c.c_cooldown <= 0 then begin
      rebuild ();
      if reaudit () then begin
        c.c_state <- Active;
        c.c_retries <- 0;
        c.c_rebuilds <- c.c_rebuilds + 1;
        apply_ic_switch t;
        emit t Trace.Tier_rebuilt c.c_tier
      end
      else begin
        c.c_retries <- c.c_retries + 1;
        if c.c_retries >= t.config.max_retries then begin
          c.c_state <- Abandoned;
          apply_ic_switch t
        end
        else
          c.c_cooldown <-
            t.config.cooldown_audits * (1 lsl min c.c_retries 4)
      end
    end
  end

(** One audit cycle: check every tier against the authoritative copy,
    quarantine fresh corruption, tick quarantined tiers toward rebuild.
    Returns the number of corrupt tiers detected this cycle. The
    watchdog drives this periodically; the audit ioctl and
    [policy_manager audit] call it directly. *)
let audit t =
  t.audits <- t.audits + 1;
  let machine = Kernel.machine t.engine.Engine.kernel in
  let before = Machine.Model.cycles machine in
  charge t 20 (* audit entry: walk set-up, counter loads *);
  let found = ref 0 in
  (* instance first: it is the baseline the derived tiers are compared
     against, so heal it before judging them. Degrading republishes from
     the authoritative copy on the spot; the quarantine still rides the
     cooldown before the tier is trusted as fully healthy again *)
  (match t.inst.c_state with
  | Active ->
    if audit_instance t then begin
      incr found;
      degrade t t.inst
    end
  | Quarantined ->
    attempt_repromote t t.inst
      ~reaudit:(fun () -> not (audit_instance t))
      ~rebuild:(fun () -> publish_auth t)
  | Abandoned -> ());
  (* inline caches *)
  (match t.ic.c_state with
  | Active ->
    if Engine.ic_enabled t.engine && audit_ic t > 0 then begin
      incr found;
      degrade t t.ic
    end
  | Quarantined ->
    attempt_repromote t t.ic
      ~reaudit:(fun () -> audit_ic t = 0)
      ~rebuild:(fun () -> flush_all_ics t)
  | Abandoned -> ());
  t.audit_cost_cycles <-
    t.audit_cost_cycles + (Machine.Model.cycles machine - before);
  !found

(* ------------------------------------------------------------------ *)
(* observability *)

(** Effective tier level the engine is serving from: 2 = inline caches
    serving, 1 = caches quarantined (every check takes the exact walk).
    The numbering is part of the ioctl 19 and /proc/carat/selfheal
    layout. *)
let tier_level t = if Engine.ic_enabled t.engine then 2 else 1

let healthy t = t.ic.c_state = Active && t.inst.c_state = Active

let cells t = [ t.ic; t.inst ]
let audits t = t.audits
let detections t = t.detections
let audit_cost_cycles t = t.audit_cost_cycles
let degradations t =
  List.fold_left (fun a c -> a + c.c_degradations) 0 (cells t)
let rebuilds t = List.fold_left (fun a c -> a + c.c_rebuilds) 0 (cells t)
let abandoned t =
  List.length (List.filter (fun c -> c.c_state = Abandoned) (cells t))

let render t =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "carat_selfheal: audits %d detections %d degradations %d rebuilds %d \
     abandoned %d tier_level %d audit_cycles %d\n"
    (audits t) (detections t) (degradations t) (rebuilds t) (abandoned t)
    (tier_level t) (audit_cost_cycles t);
  List.iter
    (fun c ->
      Printf.bprintf b
        "  %-12s %-11s detected %d degradations %d rebuilds %d retries %d\n"
        (tier_to_string c.c_tier)
        (state_to_string c.c_state)
        c.c_detected c.c_degradations c.c_rebuilds c.c_retries)
    (cells t);
  Buffer.contents b
