(** Set-associative cache with LRU replacement.

    One instance per level; {!Hierarchy} in {!Model} composes L1/L2/L3.
    Tracks hits/misses for diagnostics. Addresses are simulated kernel
    virtual addresses; we index physically-tagged behaviour by the address
    itself, which is faithful enough for a direct-mapped kernel.

    Sets are allocated on demand. Every set starts out aliasing one shared
    cold set (all tags invalid, all stamps 0) that nothing ever writes; the
    first miss into a set gives it a private copy. A core therefore pays
    host memory only for the sets a run fills, and every access, victim
    and {!perturb} draw is exactly what a dense [sets * assoc] layout
    gives. *)

type t = {
  name : string;
  line_bits : int;
  sets : int;
  assoc : int;
  lines : int array array;
      (** one array per set: tags at [\[0, assoc)] (-1 = invalid), LRU
          stamps at [\[assoc, 2 * assoc)] (higher = more recent); a set
          never filled is [cold] *)
  cold : int array;        (** the shared never-filled set; never written *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

(* At least 2 bytes: with 1-byte lines [tag_of] would be the identity, so
   address -1 would carry the invalid tag (see [access]). *)
let line_bits_of line_size =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  if line_size < 2 || line_size land (line_size - 1) <> 0 then
    invalid_arg "Cache.create: line size must be a power of two, at least 2"
  else go 0 line_size

(* largest power of two <= n. Sets are indexed by address bits, so a set
   count that is not a power of two is rounded down: the R415's 6 MiB
   16-way L3 of 64 B lines has 6,144 sets and is modelled with 4,096,
   which hold 4 MiB. *)
let floor_pow2 n =
  let rec go p = if p * 2 > n then p else go (p * 2) in
  if n < 1 then invalid_arg "Cache.create: bad geometry" else go 1

let create ~name ~size_bytes ~assoc ~line_size =
  let lines = size_bytes / line_size in
  let sets = floor_pow2 (max 1 (lines / assoc)) in
  let line_bits = line_bits_of line_size in
  let cold = Array.append (Array.make assoc (-1)) (Array.make assoc 0) in
  {
    name;
    line_bits;
    sets;
    assoc;
    lines = Array.make sets cold;
    cold;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let set_index t addr = (addr lsr t.line_bits) land (t.sets - 1)
let tag_of t addr = addr lsr t.line_bits

(* Way scans as top-level functions with explicit arguments: a local
   [let rec] would capture its environment and allocate a closure per
   probe, and the probe sits on the guard fast path, which must not
   allocate. Integer-returning (-1 = miss), no option/ref intermediates. *)
let rec find_way s assoc tag w =
  if w = assoc then -1
  else if s.(w) = tag then w
  else find_way s assoc tag (w + 1)

(* the least recent way; ties (never-filled ways, stamp 0) go to the lowest *)
let rec worst_way s assoc w best =
  if w = assoc then best
  else
    worst_way s assoc (w + 1)
      (if s.(assoc + w) < s.(assoc + best) then w else best)

(** Probe and update; true = hit. On miss the line is filled (inclusive
    hierarchy: the caller fills lower levels too). *)
let access t addr =
  t.clock <- t.clock + 1;
  let set = set_index t addr in
  let tag = tag_of t addr in
  let s = t.lines.(set) in
  let w = find_way s t.assoc tag 0 in
  if w >= 0 then begin
    (* never the cold set: its tags are all -1, and [tag_of] shifts right
       by at least one bit, so no address has tag -1 *)
    t.hits <- t.hits + 1;
    s.(t.assoc + w) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let s =
      if s != t.cold then s
      else begin
        let fresh = Array.copy s in
        t.lines.(set) <- fresh;
        fresh
      end
    in
    (* evict LRU way *)
    let victim = worst_way s t.assoc 1 0 in
    s.(victim) <- tag;
    s.(t.assoc + victim) <- t.clock;
    false
  end

(** Number of cache lines an access [addr, addr+size) touches. *)
let lines_touched t addr size =
  if size <= 0 then 0
  else begin
    let first = addr lsr t.line_bits in
    let last = (addr + size - 1) lsr t.line_bits in
    last - first + 1
  end

let flush t = Array.fill t.lines 0 t.sets t.cold

(** Invalidate a random fraction of lines — models cache pollution from
    interrupts and other cores between trials. Draws range over all
    [sets * assoc] ways, filled or not, so the generator advances the
    same whichever sets a run has filled; a draw into a cold set has
    nothing to invalidate. An invalidated way keeps its LRU stamp. *)
let perturb t rng ~fraction =
  let n = t.sets * t.assoc in
  let k = int_of_float (float_of_int n *. fraction) in
  for _ = 1 to k do
    let i = Rng.int rng n in
    let s = t.lines.(i / t.assoc) in
    if s != t.cold then s.(i mod t.assoc) <- -1
  done

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
