(** Guard/lifecycle observability: an ftrace-style ring buffer of events
    plus tier-invariant per-site and per-region counters.

    The ring is fixed-capacity, overwrite-oldest (a drop counter records
    how many events the reader lost), and allocation-free on the record
    path: events are stored as parallel int arrays, and the backing slot
    storage is accounted against a simulated kernel allocation so every
    recorded event charges one tag store to the machine model — tracing
    costs cycles *when it is on*, like the real thing.

    Zero-cost-off contract: a detached or stopped trace performs no
    machine charges and no simulated memory traffic; counters alone are
    host-side bookkeeping, exactly like {!Policy.Engine.stats}. The bench
    [tracegate] target pins this — with tracing off, fig3/fig7-shaped
    simulated cycle counts are bit-identical to the pre-trace goldens.

    Decision events are emitted by the policy engine below the execution
    engines, so the interp and compiled engines produce identical event
    streams for the same run (pinned by a golden test). *)

type kind =
  | Guard_allow  (** exact-walk allow *)
  | Guard_allow_fast  (** inline-cache hit allow *)
  | Guard_deny
  | Policy_add
  | Policy_remove
  | Policy_clear
  | Policy_default
  | Mode_change
  | Module_load
  | Module_quarantine
  | Panic
  | Tier_degraded
      (** integrity watchdog quarantined a corrupt fast tier ([info] =
          tier code: 0 = inline cache, 2 = instance) *)
  | Tier_rebuilt
      (** a quarantined tier was rebuilt from the authoritative table and
          re-promoted ([info] = tier code, as above) *)
  | Rx_irq
      (** RX interrupt taken: the handler masked its queue and scheduled
          the poll loop ([info] = queue) *)
  | Rx_poll
      (** one NAPI poll pass completed ([info] = queue, [size] = frames
          consumed, [flags] = 1 if the budget was exhausted) *)

let kind_to_int = function
  | Guard_allow -> 0
  | Guard_allow_fast -> 1
  | Guard_deny -> 2
  | Policy_add -> 3
  | Policy_remove -> 4
  | Policy_clear -> 5
  | Policy_default -> 6
  | Mode_change -> 7
  | Module_load -> 8
  | Module_quarantine -> 9
  | Panic -> 10
  (* 11 and 12 are unassigned: wire codes of removed kinds are not reused *)
  | Tier_degraded -> 13
  | Tier_rebuilt -> 14
  | Rx_irq -> 15
  | Rx_poll -> 16

let kind_of_int = function
  | 0 -> Guard_allow
  | 1 -> Guard_allow_fast
  | 2 -> Guard_deny
  | 3 -> Policy_add
  | 4 -> Policy_remove
  | 5 -> Policy_clear
  | 6 -> Policy_default
  | 7 -> Mode_change
  | 8 -> Module_load
  | 9 -> Module_quarantine
  | 13 -> Tier_degraded
  | 14 -> Tier_rebuilt
  | 15 -> Rx_irq
  | 16 -> Rx_poll
  | _ -> Panic

let kind_to_string = function
  | Guard_allow -> "allow"
  | Guard_allow_fast -> "allow-fast"
  | Guard_deny -> "DENY"
  | Policy_add -> "policy-add"
  | Policy_remove -> "policy-remove"
  | Policy_clear -> "policy-clear"
  | Policy_default -> "policy-default"
  | Mode_change -> "mode-change"
  | Module_load -> "module-load"
  | Module_quarantine -> "module-quarantine"
  | Panic -> "panic"
  | Tier_degraded -> "tier-degraded"
  | Tier_rebuilt -> "tier-rebuilt"
  | Rx_irq -> "rx-irq"
  | Rx_poll -> "rx-poll"

(** A decoded event (read-path only; the ring itself stores raw ints).
    [info] is the matched region's base for guard events (-1 when no
    region matched), and a small event-specific payload otherwise (mode
    code, region base, ...). *)
type event = {
  seq : int;  (** monotonic, 0-based, never wraps *)
  cycles : int;  (** simulated cycle stamp at record time *)
  kind : kind;
  site : int;  (** static guard-site id; -1 = not a guard site *)
  addr : int;
  size : int;
  flags : int;
  info : int;
}

(* one ring slot's size in the simulated backing store: the event's
   eight words, padded *)
let slot_bytes = 64

(* per-site counter slab: site [s] lives at index [s + 1], slot 0 holds
   the unknown site (-1). Grown on demand, capped — sites are the
   compiler's sequential ids, so the cap is never hit in practice. *)
let max_site_slots = 1 lsl 16

type site_counters = {
  mutable s_cap : int;
  mutable s_checks : int array;
  mutable s_allows : int array;
  mutable s_denies : int array;
  mutable s_scanned : int array;
  mutable s_fast_hits : int array;
  mutable s_fast_misses : int array;
}

type t = {
  kernel : Kernel.t;
  capacity : int;  (** ring slots; power of two *)
  vaddr : int;  (** simulated backing store, for cost accounting *)
  e_cycles : int array;
  e_kind : int array;
  e_site : int array;
  e_addr : int array;
  e_size : int array;
  e_flags : int array;
  e_info : int array;
  mutable total : int;  (** events ever recorded; next event's seq *)
  mutable cursor : int;  (** reader position (seq) for {!read_next} *)
  mutable dropped : int;  (** events overwritten before being read *)
  mutable recording : bool;
  sites : site_counters;
  region_allows : (int, int ref) Hashtbl.t;  (** keyed by region base *)
  region_denies : (int, int ref) Hashtbl.t;
}

let default_capacity = 512

let create ?(capacity = default_capacity) kernel =
  let capacity = max 8 capacity in
  (* round up to a power of two, like the site cache *)
  let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
  let capacity = pow2 8 in
  {
    kernel;
    capacity;
    vaddr = Kernel.kmalloc kernel ~size:(capacity * slot_bytes);
    e_cycles = Array.make capacity 0;
    e_kind = Array.make capacity 0;
    e_site = Array.make capacity (-1);
    e_addr = Array.make capacity 0;
    e_size = Array.make capacity 0;
    e_flags = Array.make capacity 0;
    e_info = Array.make capacity (-1);
    total = 0;
    cursor = 0;
    dropped = 0;
    recording = false;
    sites =
      {
        s_cap = 0;
        s_checks = [||];
        s_allows = [||];
        s_denies = [||];
        s_scanned = [||];
        s_fast_hits = [||];
        s_fast_misses = [||];
      };
    region_allows = Hashtbl.create 16;
    region_denies = Hashtbl.create 16;
  }

let capacity t = t.capacity
let recording t = t.recording
let recorded t = t.total
(* Events the reader has lost (ftrace's "overrun"): the ring keeps only
    the newest [capacity] events, so anything older than
    [total - capacity] that the cursor never consumed is gone —
    [t.dropped] accumulates what {!read_next} had to skip, and the second
    term counts losses the reader has not yet observed. *)
let dropped t = t.dropped + max 0 (t.total - t.capacity - t.cursor)

let start t = t.recording <- true
let stop t = t.recording <- false

(* --- counters ------------------------------------------------------ *)

let grow_sites sc want =
  let cap = max 64 (min max_site_slots want) in
  let rec pow2 n = if n >= cap then n else pow2 (n * 2) in
  let cap = pow2 64 in
  let g a = Array.append a (Array.make (cap - Array.length a) 0) in
  sc.s_checks <- g sc.s_checks;
  sc.s_allows <- g sc.s_allows;
  sc.s_denies <- g sc.s_denies;
  sc.s_scanned <- g sc.s_scanned;
  sc.s_fast_hits <- g sc.s_fast_hits;
  sc.s_fast_misses <- g sc.s_fast_misses;
  sc.s_cap <- cap

(* slot for a site id: 0 = unknown/-1; very large ids alias into slot 0
   rather than growing without bound *)
let site_slot t site =
  let i = if site < 0 || site + 1 >= max_site_slots then 0 else site + 1 in
  if i >= t.sites.s_cap then grow_sites t.sites (i + 1);
  i

let bump tbl key =
  match Hashtbl.find tbl key with
  | r -> incr r
  | exception Not_found -> Hashtbl.add tbl key (ref 1)

(* --- the record path ----------------------------------------------- *)

(* Raw ring append. Only called while [recording]; charges one slot tag
   store + bookkeeping retires, the visible cost of tracing. *)
let append t ~kind ~site ~addr ~size ~flags ~info =
  let machine = Kernel.machine t.kernel in
  let i = t.total land (t.capacity - 1) in
  t.e_cycles.(i) <- Machine.Model.cycles machine;
  t.e_kind.(i) <- kind_to_int kind;
  t.e_site.(i) <- site;
  t.e_addr.(i) <- addr;
  t.e_size.(i) <- size;
  t.e_flags.(i) <- flags;
  t.e_info.(i) <- info;
  t.total <- t.total + 1;
  (* slot store + head-index update, ftrace's reserve/commit pair *)
  Machine.Model.retire machine 2;
  Machine.Model.store machine (t.vaddr + (i * slot_bytes)) 8

(** Decision event from the policy engine. Tier-invariant by
    construction: the engine passes the same [scanned]/[region_base] on
    an inline-cache hit as the exact walk would have produced, so the
    per-site and per-region counters do not depend on which tier
    answered. [fast] only selects the event kind (a tier diagnostic). *)
let on_guard t ~site ~addr ~size ~flags ~allowed ~fast ~scanned ~region_base =
  let i = site_slot t site in
  let sc = t.sites in
  sc.s_checks.(i) <- sc.s_checks.(i) + 1;
  sc.s_scanned.(i) <- sc.s_scanned.(i) + scanned;
  if allowed then sc.s_allows.(i) <- sc.s_allows.(i) + 1
  else sc.s_denies.(i) <- sc.s_denies.(i) + 1;
  if region_base >= 0 then
    bump (if allowed then t.region_allows else t.region_denies) region_base;
  if t.recording then
    append t
      ~kind:
        (if not allowed then Guard_deny
         else if fast then Guard_allow_fast
         else Guard_allow)
      ~site ~addr ~size ~flags ~info:region_base

(** Fast-tier (inline-cache) hit/miss accounting — tier stats, kept
    apart from the decision counters above. *)
let on_fast_hit t ~site =
  let i = site_slot t site in
  t.sites.s_fast_hits.(i) <- t.sites.s_fast_hits.(i) + 1

let on_fast_miss t ~site =
  let i = site_slot t site in
  t.sites.s_fast_misses.(i) <- t.sites.s_fast_misses.(i) + 1

(** Lifecycle event (policy mutation, mode change, module load/
    quarantine, panic, RX irq/poll). [size]/[flags] carry small
    event-specific payloads (e.g. frames consumed by an RX poll pass). *)
let on_lifecycle ?(size = 0) ?(flags = 0) t kind ~info =
  if t.recording then append t ~kind ~site:(-1) ~addr:0 ~size ~flags ~info

(* --- the read path -------------------------------------------------- *)

let event_at t seq =
  let i = seq land (t.capacity - 1) in
  {
    seq;
    cycles = t.e_cycles.(i);
    kind = kind_of_int t.e_kind.(i);
    site = t.e_site.(i);
    addr = t.e_addr.(i);
    size = t.e_size.(i);
    flags = t.e_flags.(i);
    info = t.e_info.(i);
  }

(** Consume the oldest unread event (ftrace-style reader): skips over
    anything already overwritten, charging the skipped count to the drop
    counter. *)
let read_next t =
  let oldest = max 0 (t.total - t.capacity) in
  if t.cursor < oldest then begin
    t.dropped <- t.dropped + (oldest - t.cursor);
    t.cursor <- oldest
  end;
  if t.cursor >= t.total then None
  else begin
    let e = event_at t t.cursor in
    t.cursor <- t.cursor + 1;
    Some e
  end

(** The newest [n] events, oldest first, without consuming them. *)
let recent t n =
  let lo = max (max 0 (t.total - t.capacity)) (t.total - n) in
  List.init (t.total - lo) (fun k -> event_at t (lo + k))

(** All buffered events, oldest first, without consuming them. *)
let events t = recent t t.capacity

let reset t =
  t.total <- 0;
  t.cursor <- 0;
  t.dropped <- 0;
  let sc = t.sites in
  Array.fill sc.s_checks 0 sc.s_cap 0;
  Array.fill sc.s_allows 0 sc.s_cap 0;
  Array.fill sc.s_denies 0 sc.s_cap 0;
  Array.fill sc.s_scanned 0 sc.s_cap 0;
  Array.fill sc.s_fast_hits 0 sc.s_cap 0;
  Array.fill sc.s_fast_misses 0 sc.s_cap 0;
  Hashtbl.reset t.region_allows;
  Hashtbl.reset t.region_denies

(* --- rendering ------------------------------------------------------ *)

let format_event e =
  match e.kind with
  | Guard_allow | Guard_allow_fast | Guard_deny ->
    Printf.sprintf "[%d @%d] %-10s site=%d addr=0x%x size=%d flags=%d%s"
      e.seq e.cycles (kind_to_string e.kind) e.site e.addr e.size e.flags
      (if e.info >= 0 then Printf.sprintf " region=0x%x" e.info else " region=-")
  | _ ->
    Printf.sprintf "[%d @%d] %-10s info=%d" e.seq e.cycles
      (kind_to_string e.kind) e.info

(** Compact one-line tail of the newest [n] events, for deny snapshots
    in panic reasons and quarantine/campaign reports. *)
let tail_string t n =
  let es = recent t n in
  if es = [] then "<no events>"
  else
    String.concat " | "
      (List.map
         (fun e ->
           match e.kind with
           | Guard_allow | Guard_allow_fast | Guard_deny ->
             Printf.sprintf "#%d %s site=%d 0x%x+%d" e.seq
               (kind_to_string e.kind) e.site e.addr e.size
           | k -> Printf.sprintf "#%d %s" e.seq (kind_to_string k))
         es)

type site_row = {
  row_site : int;
  row_checks : int;
  row_allows : int;
  row_denies : int;
  row_scanned : int;
  row_fast_hits : int;
  row_fast_misses : int;
}

(** Non-zero per-site rows, site order ((-1) first if present). *)
let site_rows t =
  let sc = t.sites in
  let acc = ref [] in
  for i = sc.s_cap - 1 downto 0 do
    if
      sc.s_checks.(i) <> 0 || sc.s_fast_hits.(i) <> 0
      || sc.s_fast_misses.(i) <> 0
    then
      acc :=
        {
          row_site = i - 1;
          row_checks = sc.s_checks.(i);
          row_allows = sc.s_allows.(i);
          row_denies = sc.s_denies.(i);
          row_scanned = sc.s_scanned.(i);
          row_fast_hits = sc.s_fast_hits.(i);
          row_fast_misses = sc.s_fast_misses.(i);
        }
        :: !acc
  done;
  !acc

(** Per-region (base, allows, denies), sorted by base. *)
let region_rows t =
  let bases = Hashtbl.create 16 in
  Hashtbl.iter (fun b _ -> Hashtbl.replace bases b ()) t.region_allows;
  Hashtbl.iter (fun b _ -> Hashtbl.replace bases b ()) t.region_denies;
  let get tbl b = match Hashtbl.find_opt tbl b with Some r -> !r | None -> 0 in
  Hashtbl.fold (fun b () acc -> (b, get t.region_allows b, get t.region_denies b) :: acc) bases []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let totals t =
  let sc = t.sites in
  let sum a = Array.fold_left ( + ) 0 a in
  ( sum sc.s_checks,
    sum sc.s_allows,
    sum sc.s_denies,
    sum sc.s_scanned,
    sum sc.s_fast_hits,
    sum sc.s_fast_misses )

(** The /proc/carat/stats rendering. [region_tag] maps a region base to
    a display tag (the policy knows; the trace stores only bases). *)
let render_stats ?(region_tag = fun _ -> None) t =
  let b = Buffer.create 1024 in
  let checks, allows, denies, scanned, hits, misses = totals t in
  Buffer.add_string b "carat_trace: guard statistics\n";
  Printf.bprintf b "checks %d allows %d denies %d entries_scanned %d\n" checks
    allows denies scanned;
  Printf.bprintf b "fast_hits %d fast_misses %d\n" hits misses;
  Printf.bprintf b "trace recording=%b recorded=%d dropped=%d capacity=%d\n"
    t.recording t.total (dropped t) t.capacity;
  let rows = site_rows t in
  if rows <> [] then begin
    Buffer.add_string b "per-site:\n";
    Printf.bprintf b "  %6s %8s %8s %8s %10s %8s %8s\n" "site" "checks"
      "allows" "denies" "scanned" "fhits" "fmiss";
    List.iter
      (fun r ->
        Printf.bprintf b "  %6d %8d %8d %8d %10d %8d %8d\n" r.row_site
          r.row_checks r.row_allows r.row_denies r.row_scanned r.row_fast_hits
          r.row_fast_misses)
      rows
  end;
  let rrows = region_rows t in
  if rrows <> [] then begin
    Buffer.add_string b "per-region:\n";
    Printf.bprintf b "  %18s %8s %8s  %s\n" "base" "allows" "denies" "tag";
    List.iter
      (fun (base, a, d) ->
        Printf.bprintf b "  0x%016x %8d %8d  %s\n" base a d
          (match region_tag base with Some tag -> tag | None -> "-"))
      rrows
  end;
  Buffer.contents b

(* --- merged per-CPU rings (SMP) ------------------------------------- *)

(** Merged-on-read views over per-CPU rings, ftrace-style: each CPU
    records into its own ring with no cross-CPU coordination, and the
    reader aggregates. Drop accounting must *sum* — each ring's own
    overrun counter is authoritative for its CPU, so the merge can never
    lose (or double-count) an overwrite the way a shared mutable counter
    updated from several contexts could. *)

let merged_recorded ts = List.fold_left (fun a t -> a + t.total) 0 ts

let merged_dropped ts = List.fold_left (fun a t -> a + dropped t) 0 ts

(** All buffered events across the rings as [(cpu, event)], ordered by
    simulated cycle stamp (ties broken by cpu then seq) — the merged
    timeline a multi-ring ftrace reader presents. *)
let merged_events ts =
  let all =
    List.concat (List.mapi (fun cpu t -> List.map (fun e -> (cpu, e)) (events t)) ts)
  in
  List.stable_sort
    (fun (c1, e1) (c2, e2) ->
      let by = compare e1.cycles e2.cycles in
      if by <> 0 then by
      else
        let bc = compare c1 c2 in
        if bc <> 0 then bc else compare e1.seq e2.seq)
    all

(** The /proc/carat/trace rendering: the buffered events, oldest
    first. *)
let render_events t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "carat_trace: %d recorded, %d dropped, capacity %d\n"
    t.total (dropped t) t.capacity;
  List.iter (fun e -> Buffer.add_string b (format_event e); Buffer.add_char b '\n')
    (events t);
  Buffer.contents b
