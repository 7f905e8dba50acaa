(** Page-granular permission shadow — the "guard TLB" (tentpole of the
    guard fast path). A direct-mapped array maps page number -> the
    verdict-relevant fact for that page, derived from the exact region
    table it wraps (a {!Linear_table}):

    - [Uniform r]: every region in the table either fully contains or is
      disjoint from the page, and [r] is the first (table-order) region
      fully containing it. For *any* byte range inside the page the exact
      first-match walk returns [r], so the shadow can answer in O(1).
    - [No_region]: no region intersects the page at all; the exact walk
      returns no match for any in-page range and the engine's default
      action applies.
    - [Straddle]: some region partially overlaps the page. First-match
      semantics then depend on the exact byte range, so the shadow always
      defers to the wrapped structure. This is the correctness escape
      hatch for ranges/pages that cross region boundaries.

    Accesses that cross a page boundary, or carry a non-canonical
    (negative) address, also defer to the exact structure.

    Entries are tagged with the page number plus a generation stamp that
    every mutation bumps, so a policy push invalidates the whole shadow in
    O(1) without touching the array. Tags live in simulated kernel memory
    and each hit probes one of them through {!Kernel.read}, so the
    mechanistic cost of a shadow hit (one hot load, two ALU ops, one
    highly predictable branch) is charged exactly like the paper's other
    structures charge theirs. *)

let page_bits = 12
let page_size = 1 lsl page_bits

(* direct-mapped entry count; must be a power of two *)
let shadow_entries = 256

type entry = Invalid | Uniform of Region.t | No_region | Straddle

type t = {
  kernel : Kernel.t;
  inner : Linear_table.t;  (** the exact structure; holds policy truth *)
  base_vaddr : int;  (** simulated tag array, 8 bytes per entry *)
  tags : int array;  (** page number cached in each slot, -1 = empty *)
  gens : int array;  (** generation the slot was filled under *)
  state : entry array;
  depths : int array;
      (** per-slot tier-invariant scan depth: the entries the exact
          linear-order walk examines before answering for this page (the
          match's 1-based table position, or the region count when no
          region intersects), so shadow hits report the same
          [Structure.outcome.scanned] the wrapped walk would *)
  mutable gen : int;  (** bumped on every add/remove/clear *)
  sums : int array;
      (** per-slot integrity checksums over (tag, gen, state, depth),
          refreshed on every refill — host-side metadata the integrity
          watchdog audits; a wild write that smashes a slot without
          recomputing its checksum is caught by {!Integrity} *)
  branch_pcs : int array;  (** per-slot stable branch-site ids *)
  mutable hits : int;
  mutable misses : int;
  mutable fallbacks : int;  (** straddle / cross-page exact walks *)
}

let name = "shadow+linear"

let create kernel ~capacity =
  let inner = Linear_table.create kernel ~capacity in
  {
    kernel;
    inner;
    base_vaddr = Kernel.kmalloc kernel ~size:(shadow_entries * 8);
    tags = Array.make shadow_entries (-1);
    gens = Array.make shadow_entries 0;
    state = Array.make shadow_entries Invalid;
    depths = Array.make shadow_entries 0;
    gen = 0;
    sums = Array.make shadow_entries 0;
    branch_pcs = Array.init shadow_entries (fun i -> Hashtbl.hash ("shadow", i));
    hits = 0;
    misses = 0;
    fallbacks = 0;
  }

let invalidate t = t.gen <- t.gen + 1

let add t r =
  match Linear_table.add t.inner r with
  | Ok () ->
    invalidate t;
    Ok ()
  | Error _ as e -> e

let remove t ~base =
  let removed = Linear_table.remove t.inner ~base in
  if removed then invalidate t;
  removed

let clear t =
  Linear_table.clear t.inner;
  invalidate t

let count t = Linear_table.count t.inner
let regions t = Linear_table.regions t.inner

(** First-match classification of [page] against [regions], in list
    order. A region [fully contains] the page when
    [r.base <= lo && hi <= limit r]; it [partially overlaps] when it
    intersects the page without containing it. Any partial overlap forces
    [Straddle]. Also returns the depth the exact walk would record for an
    in-page range: the first full container's 1-based position (a
    disjoint region can never match an in-page range, so the first full
    container *is* the first match), or the full region count when
    nothing intersects. The shadow classifies against its own table; the
    integrity audit and the domain shadow pass their own region lists. *)
let classify_page regions page : entry * int =
  let lo = page lsl page_bits in
  (* the page's last byte: [lo + page_size] wraps past [max_int] on the
     top page, which no region can then contain *)
  let last = lo + (page_size - 1) in
  let rec go idx first_full = function
    | [] -> (
      match first_full with
      | Some (r, at) -> (Uniform r, at + 1)
      | None -> (No_region, idx))
    | (r : Region.t) :: rest ->
      let rlim = Region.limit r in
      if r.Region.base <= last && lo < rlim then
        if r.Region.base <= lo && last < rlim then
          go (idx + 1)
            (match first_full with Some _ -> first_full | None -> Some (r, idx))
            rest
        else (Straddle, 0)
      else go (idx + 1) first_full rest
  in
  go 0 None regions

(* Stable encoding of a slot entry for checksumming and audit
   comparison. *)
let entry_code = function
  | Invalid -> (0, 0, 0, 0)
  | Uniform (r : Region.t) -> (1, r.Region.base, r.Region.len, r.Region.prot)
  | No_region -> (2, 0, 0, 0)
  | Straddle -> (3, 0, 0, 0)

let slot_sum t i =
  Hashtbl.hash (t.tags.(i), t.gens.(i), entry_code t.state.(i), t.depths.(i))

let exact t ~addr ~size =
  t.fallbacks <- t.fallbacks + 1;
  Linear_table.lookup t.inner ~addr ~size

let lookup t ~addr ~size : Structure.outcome =
  let machine = Kernel.machine t.kernel in
  if addr < 0 then exact t ~addr ~size
  else begin
    let page = addr lsr page_bits in
    if (addr + size - 1) lsr page_bits <> page then
      (* crosses a page boundary: permissions may differ across the line *)
      exact t ~addr ~size
    else begin
      let i = page land (shadow_entries - 1) in
      (* one probe of the shadow tag (hot after warm-up) + tag compare *)
      ignore (Kernel.read t.kernel ~addr:(t.base_vaddr + (i * 8)) ~size:8);
      Machine.Model.retire machine 2;
      let valid = t.tags.(i) = page && t.gens.(i) = t.gen in
      Machine.Model.branch machine ~pc:t.branch_pcs.(i) ~taken:valid;
      match if valid then t.state.(i) else Invalid with
      | Uniform r ->
        t.hits <- t.hits + 1;
        (* report the wrapped walk's scan depth, not the single shadow
           probe, so decision stats are tier-invariant; the probe count
           lives in the hits/misses tier counters instead *)
        { Structure.matched = Some r; scanned = t.depths.(i) }
      | No_region ->
        t.hits <- t.hits + 1;
        { Structure.matched = None; scanned = t.depths.(i) }
      | Straddle ->
        (* cached fact: this page needs the exact walk every time *)
        exact t ~addr ~size
      | Invalid ->
        (* shadow miss: exact walk, then refill this slot *)
        t.misses <- t.misses + 1;
        let out = Linear_table.lookup t.inner ~addr ~size in
        let cls, depth = classify_page (Linear_table.regions t.inner) page in
        t.tags.(i) <- page;
        t.gens.(i) <- t.gen;
        t.state.(i) <- cls;
        t.depths.(i) <- depth;
        t.sums.(i) <- slot_sum t i;
        (* the refill's visible cost: classification arithmetic plus the
           tag store (the walk itself was just charged by the inner
           lookup, exactly like a hardware TLB miss pays the page walk) *)
        Machine.Model.retire machine (2 * max 1 (Linear_table.count t.inner));
        Kernel.write t.kernel ~addr:(t.base_vaddr + (i * 8)) ~size:8 page;
        out
    end
  end

let table_region t = Linear_table.table_region t.inner

(** Diagnostics for the guardpath bench. *)
let stats t = (t.hits, t.misses, t.fallbacks)

type Structure.repr += Shadow of t

let repr t = Shadow t

(** The exact structure the shadow wraps — policy truth, and the table
    the instance-corruption fault class targets. *)
let inner t = t.inner

(** A slot is live iff it carries a page tag stamped with the current
    generation — only live slots can answer a lookup, so only they are
    audited. *)
let slot_live t i = t.tags.(i) >= 0 && t.gens.(i) = t.gen

(** Fault injection: smash the slot covering [page] into a bogus
    [Uniform region] fact stamped valid for the current generation — the
    effect of a wild write landing in the shadow array. With
    [fix_checksum] the attacker also recomputes the slot checksum,
    defeating the cheap integrity check and leaving only the semantic
    cross-check against the authoritative table to catch it. *)
let corrupt_slot t ~page ~region ~fix_checksum =
  let i = page land (shadow_entries - 1) in
  t.tags.(i) <- page;
  t.gens.(i) <- t.gen;
  t.state.(i) <- Uniform region;
  t.depths.(i) <- 1;
  if fix_checksum then t.sums.(i) <- slot_sum t i
