(** The policy engine: the paper's linear region table plus the
    permission-check logic and counters. One engine backs one policy
    module instance.

    Check semantics (§3.1): walk the table for the first region
    containing the accessed byte range; if found, the access is allowed
    iff the region's protection flags include every requested flag; if no
    region matches, the default action applies. The paper's evaluated
    configuration is the 64-entry linear table with default deny. The
    alternatives §3.1/§4.2 speculate about are built by {!Ablation},
    which charges its checks through this engine's {!walk}.

    One optional fast tier sits in front of the exact walk: per-guard-site
    inline caches ({!enable_site_cache}), §3.1's last-hit cache made
    per-site. Each is a direct-mapped array keyed by the static site id
    the guard-injection pass assigns; each slot remembers the
    first-match span [\[lo, hi)] its site last resolved — the widest
    byte range around the filling access on which the first-match answer
    cannot change (see {!first_match_span}) — with that answer's
    protection. A hit validates the epoch and that the access lies
    inside the span, so the cached fact is site-independent truth and
    slot aliasing between sites is harmless; a site streaming through
    one region hits on every page of it.

    The tier is invalidated by a single {!epoch} counter bumped on every
    policy mutation (and, via the policy module, on every policy or mode
    ioctl), keeping live policy pushes and enforcement-mode flips exact.
    It answers only when the answer provably equals the exact walk's;
    anything else (an access outside the cached span, unknown site, flag
    mismatch) falls back to the exact table walk, so decisions are
    byte-for-byte identical to the plain walk.

    SMP: all hot-path counters, the inline cache, the trace sink and the
    denial diagnostic live in a {!view} — one per simulated CPU. A
    single-CPU engine has exactly one view (the default), and every
    accessor below reads it, so single-CPU behaviour and simulated cost
    are unchanged. The scheduler switches {!set_current_view} when it
    switches CPUs; {!merged_stats}/{!merged_tier} aggregate ftrace-style.
    Every policy write, on any number of CPUs, edits the one live
    table in place and bumps the epoch. *)

(** Both constructors mean the linear table; nothing reads the value.
    The type stays only because kopbench's configs name it
    ([Shadow] for prod64-r415). *)
type kind = Linear | Shadow

(** Decision statistics. Tier-invariant: a fast-tier (inline-cache) hit
    credits the same [entries_scanned] the exact walk would have
    recorded, so these counters depend only on the checks performed,
    never on which tier answered them (pinned by test_engine). *)
type stats = {
  mutable checks : int;
  mutable allowed : int;
  mutable denied : int;
  mutable entries_scanned : int;
}

(** Tier statistics: how often the site inline cache answered. These are
    the counters that legitimately differ between tiers, kept apart from
    the decision stats above. A "miss" is any fast-path entry that had to
    defer to the exact walk (cold/stale slot, an access outside the
    cached span, or a cached fact that could not prove an allow). *)
type tier_stats = { mutable ic_hits : int; mutable ic_misses : int }

type verdict =
  | Allowed of Region.t option
      (** matching region, or [None] under default-allow *)
  | Denied of Region.t option
      (** region that matched but lacked permissions, or [None] when
          nothing matched under default-deny *)

(* Per-guard-site inline caches: parallel int arrays (no per-entry boxing)
   indexed by [site land (site_cache_size - 1)]. A slot is an (epoch, lo,
   hi, prot) tuple — four words, [slot_bytes] in the simulated array —
   and [sc_prot] holds the protection every access inside [\[lo, hi)]
   resolves to. The backing array lives in simulated kernel memory so
   hits charge one hot probe, like every other policy structure. Its
   allocation stays at 16 KB: a larger one shifts every later kmalloc,
   and on the R415's 2-way L1 the conflict misses that causes take back
   most of what the spans save. The benchmarked drivers' site ids stay
   below 160, so their sites do not share slots. *)
let site_cache_size = 512
let slot_bytes = 32

type site_cache = {
  sc_vaddr : int;
  sc_epoch : int array;
  sc_lo : int array;  (** span start, inclusive *)
  sc_hi : int array;  (** span end, exclusive; [lo = hi] = empty slot *)
  sc_prot : int array;
  sc_canary : int array;
      (** per-slot canary words, written on every fill with a value
          derived from the slot index; a wild write spraying the cache
          arrays clobbers them, and the integrity watchdog checks them *)
  sc_pcs : int array;  (** stable branch-site ids per slot *)
  sc_depth : int array;
      (** entries the exact walk would scan for any access in the span —
          cached so an inline-cache hit can credit the tier-invariant
          scan depth *)
  sc_rbase : int array;
      (** base of the span's first-match region (-1 = none), for
          per-region trace attribution on a hit *)
}

(** Per-CPU execution view: everything the guard hot path reads or writes
    besides the shared policy table itself. The default view is CPU
    0's (and the only one in single-CPU runs). *)
type view = {
  v_id : int;  (** CPU id, 0-based; the default view is 0 *)
  v_stats : stats;
  v_tier : tier_stats;
  mutable v_trace : Trace.t option;
      (** per-CPU observability sink; [None] (the default) makes every
          trace touch-point a single cheap match, keeping the traced-off
          path bit-identical to the pre-trace simulation *)
  mutable v_site_cache : site_cache option;
  mutable v_last_deny : Region.t option;
      (** diagnostics for this view's most recent {!check_fast} denial *)
  mutable v_stale : int;
      (** paranoid-mode mismatches: fast-path allows that a fresh exact
          reference walk would deny (must stay 0; see {!set_verify}) *)
}

type t = {
  kernel : Kernel.t;
  mutable ic_on : bool;
      (** inline-cache master switch. [true] normally; the integrity
          layer clears it to quarantine the inline caches, forcing every
          sited check down to the exact walk. *)
  mutable on_mutate : (unit -> unit) option;
      (** commit hook run after every epoch bump — i.e. after every
          legitimate policy/mode mutation. The integrity layer registers
          a snapshot refresh here, so out-of-band corruption (which
          bypasses this choke point) diverges from the authoritative
          copy and is caught at the next audit. *)
  table : Linear_table.t;  (** the live policy, edited in place *)
  mutable default_allow : bool;
  mutable epoch : int;
      (** bumped on every policy mutation; fast tiers validate against it *)
  default_view : view;
  mutable views : view list;  (** all views, default first *)
  mutable cur : view;
  mutable verify : bool;
      (** host-side paranoia: cross-check every inline-cache allow
          against a fresh exact reference walk (no simulated cost) *)
}

let make_view id =
  {
    v_id = id;
    v_stats = { checks = 0; allowed = 0; denied = 0; entries_scanned = 0 };
    v_tier = { ic_hits = 0; ic_misses = 0 };
    v_trace = None;
    v_site_cache = None;
    v_last_deny = None;
    v_stale = 0;
  }

let create ?(capacity = Linear_table.default_capacity) ?(default_allow = false)
    kernel =
  let dv = make_view 0 in
  {
    kernel;
    ic_on = true;
    on_mutate = None;
    table = Linear_table.create kernel ~capacity;
    default_allow;
    epoch = 0;
    default_view = dv;
    views = [ dv ];
    cur = dv;
    verify = false;
  }

(** Invalidate every fast tier in O(1). Policy mutations call this
    internally; the policy module also bumps it on mode ioctls. Runs the
    integrity commit hook (when registered) so the authoritative snapshot
    tracks every legitimate mutation. *)
let bump_epoch t =
  t.epoch <- t.epoch + 1;
  match t.on_mutate with None -> () | Some f -> f ()

let epoch t = t.epoch
let set_on_mutate t f = t.on_mutate <- f

(* --- integrity/degradation control surface ------------------------- *)

let ic_enabled t = t.ic_on
let set_ic_enabled t b = t.ic_on <- b

(* ------------------------------------------------------------------ *)
(* views *)

let default_view t = t.default_view
let current_view t = t.cur
let views t = t.views
let view_id v = v.v_id
let view_stats v = v.v_stats
let view_tier v = v.v_tier
let view_trace v = v.v_trace
let view_set_trace v tr = v.v_trace <- tr
let view_last_deny v = v.v_last_deny
let view_stale_allows v = v.v_stale

let canary_value i = Hashtbl.hash ("ic-canary", i)

let alloc_site_cache kernel =
  {
    sc_vaddr = Kernel.kmalloc kernel ~size:(site_cache_size * slot_bytes);
    sc_epoch = Array.make site_cache_size (-1);
    sc_lo = Array.make site_cache_size 0;
    sc_hi = Array.make site_cache_size 0;
    sc_prot = Array.make site_cache_size 0;
    sc_canary = Array.init site_cache_size canary_value;
    sc_pcs = Array.init site_cache_size (fun i -> Hashtbl.hash ("site-ic", i));
    sc_depth = Array.make site_cache_size 0;
    sc_rbase = Array.make site_cache_size (-1);
  }

(** Register a fresh per-CPU view (with its own inline cache when
    [site_cache] is set). Views are append-only for the engine's
    lifetime; the scheduler owns which one is current. *)
let new_view ?(site_cache = false) t =
  let v = make_view (List.length t.views) in
  if site_cache then v.v_site_cache <- Some (alloc_site_cache t.kernel);
  t.views <- t.views @ [ v ];
  v

(** Make [v]'s counters/cache/trace the ones the hot path uses. Called by
    the SMP scheduler on every context switch; single-CPU runs never
    leave the default view. *)
let set_current_view t v = t.cur <- v

(** Drop a view's inline-cache contents: every slot is retagged
    invalid. The integrity layer flushes every view when it quarantines
    or rebuilds the inline caches. *)
let flush_view_site_cache v =
  match v.v_site_cache with
  | None -> ()
  | Some sc ->
    Array.fill sc.sc_epoch 0 site_cache_size (-1);
    Array.fill sc.sc_lo 0 site_cache_size 0;
    Array.fill sc.sc_hi 0 site_cache_size 0

(** Attach/detach the observability sink (default view's — i.e. the only
    one in single-CPU runs). Detached (the default) costs nothing —
    simulated cycles stay bit-identical to a build without the trace
    layer (the bench [tracegate] target pins this). *)
let set_trace t tr = t.default_view.v_trace <- tr

let trace t = t.cur.v_trace

let lifecycle t kind ~info =
  match t.cur.v_trace with
  | None -> ()
  | Some tr -> Trace.on_lifecycle tr kind ~info

let add_region t r =
  match Linear_table.add t.table r with
  | Ok () ->
    bump_epoch t;
    lifecycle t Trace.Policy_add ~info:r.Region.base;
    Ok ()
  | Error _ as e -> e

let remove_region t ~base =
  let removed = Linear_table.remove t.table ~base in
  if removed then begin
    bump_epoch t;
    lifecycle t Trace.Policy_remove ~info:base
  end;
  removed

let clear t =
  Linear_table.clear t.table;
  bump_epoch t;
  lifecycle t Trace.Policy_clear ~info:0

let set_default_allow t b =
  t.default_allow <- b;
  bump_epoch t;
  lifecycle t Trace.Policy_default ~info:(if b then 1 else 0)

let count t = Linear_table.count t.table
let capacity t = t.table.Linear_table.capacity
let regions t = Linear_table.regions t.table
let default_allow t = t.default_allow
let stats t = t.default_view.v_stats
let tier_stats t = t.default_view.v_tier
let table_region t = Linear_table.table_region t.table

(** Sum of the decision stats across every view (ftrace-style merge on
    read; the per-view records stay live). *)
let merged_stats t : stats =
  let m = { checks = 0; allowed = 0; denied = 0; entries_scanned = 0 } in
  List.iter
    (fun v ->
      m.checks <- m.checks + v.v_stats.checks;
      m.allowed <- m.allowed + v.v_stats.allowed;
      m.denied <- m.denied + v.v_stats.denied;
      m.entries_scanned <- m.entries_scanned + v.v_stats.entries_scanned)
    t.views;
  m

let merged_tier t : tier_stats =
  let m = { ic_hits = 0; ic_misses = 0 } in
  List.iter
    (fun v ->
      m.ic_hits <- m.ic_hits + v.v_tier.ic_hits;
      m.ic_misses <- m.ic_misses + v.v_tier.ic_misses)
    t.views;
  m

let reset_stats t =
  List.iter
    (fun v ->
      v.v_stats.checks <- 0;
      v.v_stats.allowed <- 0;
      v.v_stats.denied <- 0;
      v.v_stats.entries_scanned <- 0;
      v.v_tier.ic_hits <- 0;
      v.v_tier.ic_misses <- 0;
      v.v_stale <- 0)
    t.views

(** Append [rs] in order. Callers check capacity first, and the linear
    table refuses a region for no other reason, so a refusal is a broken
    invariant: raised, never left as a half-applied batch. *)
let add_regions t rs =
  List.iter
    (fun r ->
      match add_region t r with
      | Ok () -> ()
      | Error e -> invalid_arg ("Engine.add_regions: " ^ e))
    rs

(** Load a whole policy (clearing the current one); raises when [rs] is
    over capacity. *)
let set_policy t rs =
  clear t;
  add_regions t rs

(* ------------------------------------------------------------------ *)
(* checks *)

(* paranoid mode's cross-check of a fast-tier allow against the policy
   as currently written *)
let reference_allows t ~addr ~size ~flags =
  Region.first_match_allows (Linear_table.regions t.table)
    ~default_allow:t.default_allow ~addr ~size ~flags

(** Enable/disable paranoid cross-checking of inline-cache allows (a
    host-side comparison — zero simulated cycles, so cycle goldens are
    unaffected). Mismatches count in {!stale_allows}. *)
let set_verify t b = t.verify <- b

let stale_allows t = List.fold_left (fun a v -> a + v.v_stale) 0 t.views

(* Decision-event emission; a single match when no sink is attached. *)
let emit_guard t ~site ~addr ~size ~flags ~allowed ~fast ~scanned ~region_base
    =
  match t.cur.v_trace with
  | None -> ()
  | Some tr ->
    Trace.on_guard tr ~site ~addr ~size ~flags ~allowed ~fast ~scanned
      ~region_base

(* branch-site ids for the permission branch, one per protection value,
   precomputed so the hot path allocates no strings *)
let perm_pc =
  Array.init 4 (fun p -> Hashtbl.hash ("perm", Region.prot_to_string p))

(** One exact check's simulated cost and decision stats: the guard-body
    prologue, [lookup s] (the structure's own probes), and the permission
    branch when a region matches; the check counts as allowed or denied
    in [st] under [default_allow]. The engine walks its linear table
    through this, and {!Ablation} walks the §3.1 alternatives through it,
    so both share one cost model. *)
let walk machine st ~default_allow lookup s ~addr ~size ~flags =
  (* prologue: argument marshalling, flag mask, bounds set-up *)
  Machine.Model.retire machine 4;
  let out = lookup s ~addr ~size in
  st.checks <- st.checks + 1;
  st.entries_scanned <- st.entries_scanned + out.Structure.scanned;
  let ok =
    match out.Structure.matched with
    | Some r ->
      Machine.Model.retire machine 2;
      let ok = Region.permits r ~flags in
      Machine.Model.branch machine ~pc:perm_pc.(r.Region.prot land 3) ~taken:ok;
      ok
    | None -> default_allow
  in
  if ok then st.allowed <- st.allowed + 1 else st.denied <- st.denied + 1;
  out

(** The permissions check at the heart of [carat_guard]: {!walk} over the
    live table, plus observability. [site] is the static guard-site id
    for trace attribution (-1 = not a guard site). *)
let check_sited t ~site ~addr ~size ~flags : verdict =
  let out =
    walk (Kernel.machine t.kernel) t.cur.v_stats ~default_allow:t.default_allow
      Linear_table.lookup t.table ~addr ~size ~flags
  in
  let m = out.Structure.matched in
  let ok =
    match m with Some r -> Region.permits r ~flags | None -> t.default_allow
  in
  emit_guard t ~site ~addr ~size ~flags ~allowed:ok ~fast:false
    ~scanned:out.Structure.scanned
    ~region_base:(match m with Some r -> r.Region.base | None -> -1);
  if ok then begin
    (* paranoid cross-check (host-side, free when off): an allow must
       agree with the first-match walk over the table's region list *)
    if t.verify && not (reference_allows t ~addr ~size ~flags) then
      t.cur.v_stale <- t.cur.v_stale + 1;
    Allowed m
  end
  else Denied m

let check t ~addr ~size ~flags : verdict = check_sited t ~site:(-1) ~addr ~size ~flags

(* ------------------------------------------------------------------ *)
(* site-indexed inline-cache fast path *)

(** Allocate the inline-cache arrays for the default view (idempotent).
    Off by default so the paper's evaluated configuration — and its
    simulated-cycle figures — are untouched unless a run opts in. *)
let enable_site_cache t =
  match t.default_view.v_site_cache with
  | Some _ -> ()
  | None -> t.default_view.v_site_cache <- Some (alloc_site_cache t.kernel)

let site_cache_enabled t = t.default_view.v_site_cache <> None

(** Region that matched but lacked permission on the current view's most
    recent [check_fast] denial ([None] = nothing matched under
    default-deny). *)
let last_deny t = t.cur.v_last_deny

(** A first-match span: every access inside [\[sp_lo, sp_hi)] resolves to
    protection [sp_prot], and the exact linear-order walk scans
    [sp_depth] entries to find it (the match's 1-based position, or the
    region count when nothing matches). [sp_rbase] is the matched
    region's base, or -1 when nothing matches and the default applies,
    encoded as protection bits; flags = 0 never uses the cache (see
    [check_fast]), which keeps the "no region matched" deny-on-default
    exact. *)
type span = {
  sp_lo : int;
  sp_hi : int;
  sp_prot : int;
  sp_depth : int;
  sp_rbase : int;
}

(** The widest span around the access [\[addr, addr + size)] on which
    first-match over [regions] cannot change: the matched region (or,
    when nothing matches, the gap between regions), clipped away from
    every region listed before it. Each earlier region lies wholly below
    or wholly above the access, so it lies wholly outside the clipped
    span and can contain no access inside it, while the matched region
    contains all of them. Every access inside the span derives this same
    span. [None] when the access is empty, ends past [max_int], or is
    partially overlapped by a region listed before its match: first
    match then depends on the exact byte range. *)
let first_match_span regions ~default_allow ~addr ~size =
  let e = addr + size in
  (* [addr < e] rules out empty, negative and wrapping sizes *)
  if addr < 0 || not (addr < e) then None
  else
    let rec go idx lo hi = function
      | [] ->
        Some
          {
            sp_lo = lo;
            sp_hi = hi;
            sp_prot = (if default_allow then Region.prot_rw else 0);
            sp_depth = idx;
            sp_rbase = -1;
          }
      | (r : Region.t) :: rest ->
        let rlim = Region.limit r in
        (* a limit that wrapped past [max_int] is negative: such a region
           contains no access, so it may sit below the span unclipped *)
        if rlim <= addr then go (idx + 1) (Int.max lo rlim) hi rest
        else if e <= r.Region.base then go (idx + 1) lo (Int.min hi r.Region.base) rest
        else if r.Region.base <= addr && e <= rlim then
          Some
            {
              sp_lo = Int.max lo r.Region.base;
              sp_hi = Int.min hi rlim;
              sp_prot = r.Region.prot;
              sp_depth = idx + 1;
              sp_rbase = r.Region.base;
            }
        else None
    in
    go 0 0 max_int regions

(* Exact walk on behalf of [check_fast]: full cost, full diagnostics. *)
let check_slow t ~site ~addr ~size ~flags =
  match check_sited t ~site ~addr ~size ~flags with
  | Allowed _ ->
    t.cur.v_last_deny <- None;
    true
  | Denied m ->
    t.cur.v_last_deny <- m;
    false

let fill_site sc t ~i ~addr ~size =
  match
    first_match_span (Linear_table.regions t.table)
      ~default_allow:t.default_allow ~addr ~size
  with
  | None -> () (* partially overlapped, empty or wrapping: re-walks *)
  | Some s ->
    sc.sc_epoch.(i) <- t.epoch;
    sc.sc_lo.(i) <- s.sp_lo;
    sc.sc_hi.(i) <- s.sp_hi;
    sc.sc_prot.(i) <- s.sp_prot;
    sc.sc_depth.(i) <- s.sp_depth;
    sc.sc_rbase.(i) <- s.sp_rbase;
    sc.sc_canary.(i) <- canary_value i;
    let machine = Kernel.machine t.kernel in
    (* classification arithmetic + the tag store; the walk itself was
       already charged by the exact lookup, like a TLB miss's page walk *)
    Machine.Model.retire machine (2 * Int.max 1 (Linear_table.count t.table));
    Machine.Model.store machine (sc.sc_vaddr + (i * slot_bytes)) 8

(** Boolean fast-path check: allocation-free on an inline-cache hit, and
    decision-identical to {!check} always (misses and mismatches defer to
    it). [site] is the static guard-site id (-1 = unknown site, e.g. a
    legacy 3-argument guard call: always the exact walk). On denial the
    matching-region diagnostic is available from {!last_deny}. *)
let check_fast t ~site ~addr ~size ~flags : bool =
  let cv = t.cur in
  match cv.v_site_cache with
  | Some sc when t.ic_on && site >= 0 && addr >= 0 && flags <> 0 ->
    let machine = Kernel.machine t.kernel in
    (* same prologue the exact path charges *)
    Machine.Model.retire machine 4;
    let i = site land (site_cache_size - 1) in
    (* one probe of the site's slot (hot after first use) + validation *)
    Machine.Model.load machine (sc.sc_vaddr + (i * slot_bytes)) 8;
    Machine.Model.retire machine 2;
    (* the span bounds check; [addr < e] also refuses an empty access and
       one whose end wraps past [max_int] *)
    let e = addr + size in
    let hit =
      sc.sc_epoch.(i) = t.epoch && sc.sc_lo.(i) <= addr && addr < e
      && e <= sc.sc_hi.(i)
    in
    Machine.Model.branch machine ~pc:sc.sc_pcs.(i) ~taken:hit;
    if hit then
      if flags land sc.sc_prot.(i) = flags then begin
        cv.v_stats.checks <- cv.v_stats.checks + 1;
        cv.v_stats.allowed <- cv.v_stats.allowed + 1;
        (* credit the scan depth the exact walk would have recorded, so
           decision stats do not depend on which tier answered *)
        cv.v_stats.entries_scanned <-
          cv.v_stats.entries_scanned + sc.sc_depth.(i);
        (* an allow supersedes any earlier denial diagnostic, exactly as
           the exact walk's Allowed branch does *)
        cv.v_last_deny <- None;
        cv.v_tier.ic_hits <- cv.v_tier.ic_hits + 1;
        if t.verify && not (reference_allows t ~addr ~size ~flags) then
          cv.v_stale <- cv.v_stale + 1;
        (match cv.v_trace with
        | None -> ()
        | Some tr ->
          Trace.on_fast_hit tr ~site;
          Trace.on_guard tr ~site ~addr ~size ~flags ~allowed:true ~fast:true
            ~scanned:sc.sc_depth.(i) ~region_base:sc.sc_rbase.(i));
        true
      end
      else begin
        (* cached fact says deny (or an exotic flag combination): take the
           exact walk for the authoritative verdict and diagnostics *)
        cv.v_tier.ic_misses <- cv.v_tier.ic_misses + 1;
        (match cv.v_trace with
        | None -> ()
        | Some tr -> Trace.on_fast_miss tr ~site);
        check_slow t ~site ~addr ~size ~flags
      end
    else begin
      cv.v_tier.ic_misses <- cv.v_tier.ic_misses + 1;
      (match cv.v_trace with
      | None -> ()
      | Some tr -> Trace.on_fast_miss tr ~site);
      let ok = check_slow t ~site ~addr ~size ~flags in
      fill_site sc t ~i ~addr ~size;
      ok
    end
  | _ -> check_slow t ~site ~addr ~size ~flags

(* ------------------------------------------------------------------ *)
(* corruption injection (fault campaigns)

   These model a wild write from an ungoverned path (DMA, an unguarded
   module, a kernel bug) landing in a fast tier's metadata: they mutate
   the decode-side state the hot path actually consults, bypass the
   epoch/commit choke point, and charge no simulated cost — the damage
   is the environment's, not the victim module's, so the containment
   memory diff stays clean. *)

let site_slot site = site land (site_cache_size - 1)

(** Plant a stale-allow fact in [view]'s inline cache for [site]: the
    slot claims the current epoch, the span [\[lo, hi)] and [prot] — so
    the very next sited check inside the span is answered from the
    corrupt slot without any walk. [smash_canary] additionally clobbers
    the slot canary (the blunt corruption the cheap canary check catches;
    a consistent forgery leaves it intact and only the semantic audit
    catches it). Returns [false] when the view has no inline cache. *)
let corrupt_site_cache t view ~site ~lo ~hi ~prot ~smash_canary =
  match view.v_site_cache with
  | None -> false
  | Some sc ->
    let i = site_slot site in
    sc.sc_epoch.(i) <- t.epoch;
    sc.sc_lo.(i) <- lo;
    sc.sc_hi.(i) <- hi;
    sc.sc_prot.(i) <- prot;
    sc.sc_depth.(i) <- 1;
    sc.sc_rbase.(i) <- -1;
    if smash_canary then sc.sc_canary.(i) <- sc.sc_canary.(i) lxor 0xBAD;
    true

(** Corrupt the live policy table itself: flip the protection bits of
    the region based at [base] in the table's decode mirror, making the
    authoritative-looking walk lie. Returns [false] when no such region
    exists. *)
let corrupt_instance t ~base ~prot = Linear_table.corrupt_entry t.table ~base ~prot
