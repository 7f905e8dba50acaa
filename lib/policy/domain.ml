(** Multi-tenant policy domains — the MOAT/BULKHEAD-scale extension of
    the paper's single 64-entry table: every loaded module gets its own
    policy domain (table instance + epoch + stats), so hundreds of
    modules with thousands of regions total no longer share one table or
    one invalidation epoch.

    Two-tier check path:

    + a *sharded global shadow page table* in front: direct-mapped slots
      keyed by (domain, page), each remembering the page's uniform
      protection under that domain's policy. A hit costs one probe and
      answers without touching the domain's table; a slot is valid only
      for the domain epoch it was filled in, so any domain mutation
      invalidates exactly that domain's facts in O(1).
    + per-domain exact structures behind it: a domain starts on the
      paper's evaluated 64-entry linear table, and is promoted wholesale
      to the {!Interval_tree} (the only O(log n) structure with
      first-match semantics) the first time an install pushes it past the
      fast path. Promotion is a build-and-swap publish, never an in-place
      conversion.

    The write side mutates the live structure in place. A batch that
    leaves the domain on its tier is validated whole (the target count
    against the tier's capacity) and then appended with one insert per
    region — an 8-region update to a 1,000-region domain costs 8
    inserts, and every existing node keeps its kernel address. Only the
    linear -> interval promotion and {!remove_region} build a successor
    and swap it in; the retired structure's kernel memory goes back to
    the heap, as does a destroyed domain's.

    Atomicity: readers see the pre-batch policy or all of it. The whole
    install runs inside one ioctl, which the simulated scheduler never
    splits, so no guard can run between two of its inserts; the domain
    epoch bump that closes the batch then plays the role Linux gives a
    seqcount on its [rbtree_latch] trees, invalidating every shadow slot
    filled against the old policy. A refused batch (ENOSPC) is refused
    before its first insert, so it leaves the structure, the epoch and
    kernel memory untouched. *)

(* sharded global shadow front: [shard_count] independent direct-mapped
   shard arrays of [shard_slots] slots each. Sharding keeps slot
   contention between domains bounded: a hot domain can evict at most
   one shard's worth of another domain's facts. *)
let shard_count = 16
let shard_slots = 256
let slot_bytes = 16

type slot = {
  mutable sl_dom : int;  (** owning domain id; -1 = invalid *)
  mutable sl_page : int;
  mutable sl_epoch : int;  (** domain epoch at fill time *)
  mutable sl_prot : int;  (** the page's uniform protection bits *)
  mutable sl_depth : int;  (** exact-walk scan depth, tier-invariant *)
}

(* a domain's live structure, typed by tier so a retired one can hand
   its kernel memory back *)
type tier = Linear of Linear_table.t | Interval of Interval_tree.t

type dom = {
  d_id : int;
  d_name : string;
  mutable d_tier : tier;  (** live generation *)
  mutable d_default_allow : bool;
  mutable d_epoch : int;  (** bumped on every mutation; shadow validates *)
  mutable d_regions : Region.t list;
      (** authoritative insertion-order mirror of the live generation;
          the reference for paranoid verification and successor builds *)
  d_stats : Engine.stats;
  mutable d_sh_hits : int;
  mutable d_sh_misses : int;
}

type t = {
  kernel : Kernel.t;
  fast_capacity : int;  (** linear-tier limit; past it, interval tree *)
  big_capacity : int;  (** interval-tier limit (hard ENOSPC ceiling) *)
  mutable doms : dom list;  (** newest last; ids are never reused *)
  by_id : (int, dom) Hashtbl.t;
      (** O(1) id index over [doms] — the guard hot path resolves its
          domain here, so tenant count must not show up in lookup cost *)
  mutable next_id : int;
  shard_vaddrs : int array;  (** simulated tag array per shard *)
  shards : slot array array;
  mutable creates : int;
  mutable destroys : int;
  mutable publications : int;
  mutable retired : int;
  mutable promotions : int;  (** linear -> interval tier upgrades *)
  mutable verify : bool;
  mutable stale : int;
}

let default_big_capacity = 1 lsl 14

let create ?(fast_capacity = Linear_table.default_capacity)
    ?(big_capacity = default_big_capacity) kernel =
  {
    kernel;
    fast_capacity;
    big_capacity;
    doms = [];
    by_id = Hashtbl.create 64;
    next_id = 1;
    shard_vaddrs =
      Array.init shard_count (fun _ ->
          Kernel.kmalloc kernel ~size:(shard_slots * slot_bytes));
    shards =
      Array.init shard_count (fun _ ->
          Array.init shard_slots (fun _ ->
              {
                sl_dom = -1;
                sl_page = -1;
                sl_epoch = -1;
                sl_prot = 0;
                sl_depth = 0;
              }));
    creates = 0;
    destroys = 0;
    publications = 0;
    retired = 0;
    promotions = 0;
    verify = false;
    stale = 0;
  }

let find t id = Hashtbl.find_opt t.by_id id
let domains t = t.doms
let count t = List.length t.doms
let dom_id d = d.d_id
let dom_name d = d.d_name
let dom_epoch d = d.d_epoch
let dom_regions d = d.d_regions
let dom_default_allow d = d.d_default_allow
let dom_stats d = d.d_stats
let dom_shadow_hits d = d.d_sh_hits
let dom_shadow_misses d = d.d_sh_misses
let dom_structure d =
  match d.d_tier with Linear _ -> "linear" | Interval _ -> "interval"
let publications t = t.publications
let retired t = t.retired
let promotions t = t.promotions
let set_verify t b = t.verify <- b
let stale_allows t = t.stale

let make_tier t ~itree =
  if itree then Interval (Interval_tree.create t.kernel ~capacity:t.big_capacity)
  else Linear (Linear_table.create t.kernel ~capacity:t.fast_capacity)

let lookup tier ~addr ~size =
  match tier with
  | Linear l -> Linear_table.lookup l ~addr ~size
  | Interval it -> Interval_tree.lookup it ~addr ~size

(* Append one region to [tier]. Every caller has already checked the
   whole batch against the tier's capacity, and neither tier refuses a
   well-formed region for any other reason (both represent overlaps and
   duplicate bases), so an error here is a broken invariant — raised,
   never turned into a half-applied batch. *)
let add_exn tier r =
  let added =
    match tier with
    | Linear l -> Linear_table.add l r
    | Interval it -> Interval_tree.add it r
  in
  match added with
  | Ok () -> ()
  | Error e -> invalid_arg ("Domain: insert after validation: " ^ e)

(* Hand a retired structure's kernel memory back. Retirement is
   immediate (see [publish]), so no reader can still be walking it. *)
let release t = function
  | Linear l -> (
    match Kernel.kfree t.kernel ~addr:(fst (Linear_table.table_region l)) with
    | Ok () -> ()
    | Error e ->
      invalid_arg ("Domain.release: " ^ Kernel.free_error_to_string e))
  | Interval it -> Interval_tree.clear it

let create_domain ?name ?(default_allow = false) t =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.creates <- t.creates + 1;
  let d =
    {
      d_id = id;
      d_name = (match name with Some n -> n | None -> Printf.sprintf "dom%d" id);
      d_tier = make_tier t ~itree:false;
      d_default_allow = default_allow;
      d_epoch = 0;
      d_regions = [];
      d_stats = { Engine.checks = 0; allowed = 0; denied = 0; entries_scanned = 0 };
      d_sh_hits = 0;
      d_sh_misses = 0;
    }
  in
  t.doms <- t.doms @ [ d ];
  Hashtbl.replace t.by_id id d;
  d

(** Tear a domain down and free its structure. Its id is never reused,
    so shadow slots still tagged with it can never validate against a
    future domain — stale facts die by construction, not by a flush
    walk. *)
let destroy_domain t id =
  match find t id with
  | None -> false
  | Some d ->
    t.doms <- List.filter (fun d -> d.d_id <> id) t.doms;
    Hashtbl.remove t.by_id id;
    release t d.d_tier;
    t.destroys <- t.destroys + 1;
    t.retired <- t.retired + 1;
    true

(* ------------------------------------------------------------------ *)
(* mutation: validate, then insert in place or build-and-swap *)

(* Close a mutation: point the domain at [tier] (the live one after an
   in-place batch, a successor after a swap) and bump the epoch, as the
   engine's own writes do. The generation it replaces is retired
   immediately: domain mutations are driven from ioctl context, where
   the simulated interleaving never suspends a reader mid-walk. *)
let publish t (d : dom) tier ~regions =
  (match (d.d_tier, tier) with
  | Linear _, Interval _ ->
    t.promotions <- t.promotions + 1;
    Kernel.Klog.printk (Kernel.log t.kernel)
      "CARAT KOP domain %d (%s): promoted to interval tier (%d regions)"
      d.d_id d.d_name (List.length regions)
  | _ -> ());
  d.d_tier <- tier;
  d.d_regions <- regions;
  d.d_epoch <- d.d_epoch + 1;
  t.publications <- t.publications + 1;
  t.retired <- t.retired + 1;
  Machine.Model.store (Kernel.machine t.kernel) t.shard_vaddrs.(0) 8

(* Build a fresh structure holding [rs] (already known to fit), publish
   it, and free the structure it replaces. *)
let swap t (d : dom) ~itree rs =
  let old = d.d_tier in
  let tier = make_tier t ~itree in
  List.iter (add_exn tier) rs;
  publish t d tier ~regions:rs;
  release t old

(** Install [rs] into domain [id] as ONE atomic batch: readers observe
    the pre-batch policy or all of it, never a prefix. A batch that
    would overflow the interval tier's ceiling is refused with -ENOSPC
    before anything is written. *)
let install_regions t ~domain rs : int =
  match find t domain with
  | None -> Kernel.einval
  | Some d ->
    let target = d.d_regions @ rs in
    let n = List.length target in
    if n > t.big_capacity then Kernel.enospc
    else begin
      (match d.d_tier with
      | Linear _ when n > t.fast_capacity -> swap t d ~itree:true target
      | tier ->
        List.iter (add_exn tier) rs;
        publish t d tier ~regions:target);
      0
    end

let add_region t ~domain r = install_regions t ~domain [ r ]

(** Remove the first region based at [base] — the canonical
    duplicate-base semantics — by swapping in a successor built without
    it. *)
let remove_region t ~domain ~base : int =
  match find t domain with
  | None -> Kernel.einval
  | Some d ->
    if not (List.exists (fun (r : Region.t) -> r.Region.base = base) d.d_regions)
    then -1
    else begin
      let rec drop_first = function
        | [] -> []
        | (r : Region.t) :: rest ->
          if r.Region.base = base then rest else r :: drop_first rest
      in
      swap t d
        ~itree:(match d.d_tier with Interval _ -> true | Linear _ -> false)
        (drop_first d.d_regions);
      0
    end

let set_default_allow t ~domain b : int =
  match find t domain with
  | None -> Kernel.einval
  | Some d ->
    d.d_default_allow <- b;
    d.d_epoch <- d.d_epoch + 1;
    0

(* ------------------------------------------------------------------ *)
(* checks *)

(* host-side reference: exact first-match over the authoritative mirror *)
let reference_allows (d : dom) ~addr ~size ~flags =
  let rec go = function
    | [] -> d.d_default_allow
    | (r : Region.t) :: rest ->
      if Region.contains r ~addr ~size then Region.permits r ~flags
      else go rest
  in
  go d.d_regions

(** First-match classification of [page] against [regions], in list
    order: the protection every in-page byte range resolves to, and the
    depth the exact walk records for it — the first region fully
    containing the page (its 1-based position; a region disjoint from
    the page can never match an in-page range, so the first full
    container is the first match), or, when no region intersects the
    page, the default action and the full region count. [None] when a
    region partially overlaps the page: first match then depends on the
    exact byte range. *)
let classify_page regions ~default_allow page =
  let lo = page lsl Kernel.Memory.page_bits in
  (* the page's last byte: [lo + page_size] wraps past [max_int] on the
     top page, which no region can then contain *)
  let last = lo + (Kernel.Memory.page_size - 1) in
  let rec go idx first_full = function
    | [] -> (
      match first_full with
      | Some (r, at) -> Some (r.Region.prot, at + 1)
      | None -> Some ((if default_allow then Region.prot_rw else 0), idx))
    | (r : Region.t) :: rest ->
      let rlim = Region.limit r in
      if r.Region.base <= last && lo < rlim then
        if r.Region.base <= lo && last < rlim then
          go (idx + 1)
            (match first_full with Some _ -> first_full | None -> Some (r, idx))
            rest
        else None
      else go (idx + 1) first_full rest
  in
  go 0 None regions

(* slot placement: multiplicative hash of (domain, page), high bits pick
   the shard, low bits the slot within it *)
let slot_of ~domain ~page =
  let h = (domain * 0x9E3779B1) lxor (page * 0x85EBCA6B) in
  let h = h lxor (h lsr 15) in
  ((h lsr 16) land (shard_count - 1), h land (shard_slots - 1))

(* exact walk + slot refill on behalf of [check] *)
let check_slow t (d : dom) sl ~page ~single_page ~addr ~size ~flags =
  let machine = Kernel.machine t.kernel in
  let out = lookup d.d_tier ~addr ~size in
  d.d_stats.Engine.checks <- d.d_stats.Engine.checks + 1;
  d.d_stats.Engine.entries_scanned <-
    d.d_stats.Engine.entries_scanned + out.Structure.scanned;
  let allowed =
    match out.Structure.matched with
    | Some r ->
      Machine.Model.retire machine 2;
      Region.permits r ~flags
    | None -> d.d_default_allow
  in
  if allowed then d.d_stats.Engine.allowed <- d.d_stats.Engine.allowed + 1
  else d.d_stats.Engine.denied <- d.d_stats.Engine.denied + 1;
  if allowed && t.verify && not (reference_allows d ~addr ~size ~flags) then
    t.stale <- t.stale + 1;
  (* refill: cacheable only when the access stays on one page and the
     page's protection is uniform under this domain *)
  if single_page then begin
    match classify_page d.d_regions ~default_allow:d.d_default_allow page with
    | None -> ()
    | Some (prot, depth) ->
      sl.sl_dom <- d.d_id;
      sl.sl_page <- page;
      sl.sl_epoch <- d.d_epoch;
      sl.sl_prot <- prot;
      sl.sl_depth <- depth;
      Machine.Model.retire machine 2
  end;
  allowed

(** The multi-domain guard check: sharded-shadow probe, then the
    domain's exact structure. Decision-identical to the first-match walk
    over the domain's policy (pinned by the paranoid verifier). Unknown
    domains deny. *)
let check t ~domain ~addr ~size ~flags : bool =
  match find t domain with
  | None -> false
  | Some d ->
    let machine = Kernel.machine t.kernel in
    (* prologue: domain resolution + argument marshalling *)
    Machine.Model.retire machine 4;
    let page = addr lsr Kernel.Memory.page_bits in
    let single_page =
      size > 0 && (addr + size - 1) lsr Kernel.Memory.page_bits = page
    in
    let shard, idx = slot_of ~domain ~page in
    let sl = t.shards.(shard).(idx) in
    (* one probe of the slot's tag word + validation *)
    Machine.Model.load machine (t.shard_vaddrs.(shard) + (idx * slot_bytes)) 8;
    Machine.Model.retire machine 2;
    let hit =
      sl.sl_dom = domain && sl.sl_page = page && sl.sl_epoch = d.d_epoch
      && single_page && flags <> 0
    in
    Machine.Model.branch machine
      ~pc:(Hashtbl.hash ("dom-shadow", shard, idx))
      ~taken:hit;
    if hit && flags land sl.sl_prot = flags then begin
      d.d_sh_hits <- d.d_sh_hits + 1;
      d.d_stats.Engine.checks <- d.d_stats.Engine.checks + 1;
      d.d_stats.Engine.allowed <- d.d_stats.Engine.allowed + 1;
      d.d_stats.Engine.entries_scanned <-
        d.d_stats.Engine.entries_scanned + sl.sl_depth;
      if t.verify && not (reference_allows d ~addr ~size ~flags) then
        t.stale <- t.stale + 1;
      true
    end
    else begin
      d.d_sh_misses <- d.d_sh_misses + 1;
      check_slow t d sl ~page ~single_page ~addr ~size ~flags
    end

(* ------------------------------------------------------------------ *)
(* observability *)

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "domains: %d live (%d created, %d destroyed), %d publications, %d \
        retired, %d tier promotions\n"
       (count t) t.creates t.destroys t.publications t.retired t.promotions);
  Buffer.add_string b
    (Printf.sprintf "shadow: %d shards x %d slots\n" shard_count shard_slots);
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf
           "dom %d (%s): structure=%s regions=%d epoch=%d default=%s \
            checks=%d allowed=%d denied=%d sh_hits=%d sh_misses=%d\n"
           d.d_id d.d_name (dom_structure d)
           (List.length d.d_regions)
           d.d_epoch
           (if d.d_default_allow then "allow" else "deny")
           d.d_stats.Engine.checks d.d_stats.Engine.allowed
           d.d_stats.Engine.denied d.d_sh_hits d.d_sh_misses))
    t.doms;
  Buffer.contents b
