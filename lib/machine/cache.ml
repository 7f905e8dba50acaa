(** Set-associative cache with LRU replacement.

    One instance per level; {!Hierarchy} in {!Model} composes L1/L2/L3.
    Tracks hits/misses for diagnostics. Addresses are simulated kernel
    virtual addresses; we index physically-tagged behaviour by the address
    itself, which is faithful enough for a direct-mapped kernel.

    Sets hold only the ways they have filled. Every set starts out as one
    shared empty set that holds no way; a miss into a set whose held ways
    are all filled grows it, doubling the ways it holds (1, 2, 4, ... up
    to the associativity), and fills the first new way. A core therefore
    pays host memory only for the lines a run fills, and every access,
    victim and {!perturb} draw is exactly what a dense [sets * assoc]
    layout gives:

    - a dense set fills its ways lowest index first (a never-filled way
      has stamp 0, below every filled one, and ties go to the lowest
      way), so its filled ways are always a prefix, and an invalidated
      way keeps its stamp and so stays in it;
    - a way past the held ones is a never-filled way of the dense set
      (tag -1, stamp 0): no access hits it, and a miss picks the first
      one exactly when every held way is filled, which is when the set
      grows.

    Sets are reached through a directory of leaves of 64 sets each.
    Every directory entry starts out as one shared leaf of empty sets,
    which is never written: the first fill into a set gives its leaf a
    private copy, and {!flush} puts every entry back to the shared leaf.
    A fresh R350 L3 (16,384 sets) is then a 256-entry directory rather
    than 16,384 set pointers. *)

type t = {
  name : string;
  line_bits : int;
  sets : int;
  assoc : int;
  lines : int array array array;
      (** the directory: set [s] is [lines.(s / 64).(s mod 64)], an
          array holding its first [cap] ways: tags at [\[0, cap)] (-1 =
          invalid), LRU stamps at [\[cap, 2 * cap)] (higher = more
          recent; 0 = never filled); a set never filled is the shared
          empty array, and a leaf never filled is [empty_leaf] *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let leaf_bits = 6
let leaf_sets = 1 lsl leaf_bits
let leaf_mask = leaf_sets - 1

(* The leaf every untouched directory entry aliases. Nothing may write
   it: a fill goes through [own_leaf] first. *)
let empty_leaf : int array array = Array.make leaf_sets [||]

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
  let sets = floor_pow2 (Int.max 1 (lines / assoc)) in
  let line_bits = line_bits_of line_size in
  {
    name;
    line_bits;
    sets;
    assoc;
    lines = Array.make ((sets + leaf_mask) lsr leaf_bits) empty_leaf;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let set_index t addr = (addr lsr t.line_bits) land (t.sets - 1)
let tag_of t addr = addr lsr t.line_bits

(* Way scans as top-level functions with explicit arguments: a local
   [let rec] would capture its environment and allocate a closure per
   probe, and the probe sits on the guard fast path, which must not
   allocate. Integer-returning (-1 = miss), no option/ref intermediates.
   The set is typed [int array]: left to inference it is ['a array], and
   every tag and stamp compare becomes a call into the runtime's
   polymorphic comparison instead of one machine instruction. *)
let rec find_way (s : int array) cap (tag : int) w =
  if w = cap then -1
  else if s.(w) = tag then w
  else find_way s cap tag (w + 1)

(* the least recent held way; ties (never-filled ways, stamp 0) go to
   the lowest *)
let rec worst_way (s : int array) cap w best =
  if w = cap then best
  else
    worst_way s cap (w + 1) (if s.(cap + w) < s.(cap + best) then w else best)

(* [s] with room for [cap'] ways: its [cap] held ways keep their tags
   and stamps, and the new ones are never filled *)
let grow (s : int array) cap cap' =
  let s' = Array.make (2 * cap') (-1) in
  Array.blit s 0 s' 0 cap;
  Array.blit s cap s' cap' cap;
  Array.fill s' (cap' + cap) (cap' - cap) 0;
  s'

(* Set [set]: two loads, unchecked because [set_index] masks every set
   number below [t.sets]. *)
let set_of t set =
  Array.unsafe_get (Array.unsafe_get t.lines (set lsr leaf_bits)) (set land leaf_mask)

(* The leaf holding [set], made private first if it is still
   [empty_leaf]. *)
let own_leaf t set =
  let l = set lsr leaf_bits in
  let leaf = Array.unsafe_get t.lines l in
  if leaf != empty_leaf then leaf
  else begin
    let leaf = Array.make leaf_sets [||] in
    Array.unsafe_set t.lines l leaf;
    leaf
  end

(** Probe and update; true = hit. On miss the line is filled (inclusive
    hierarchy: the caller fills lower levels too). *)
let access t addr =
  t.clock <- t.clock + 1;
  let set = set_index t addr in
  let tag = tag_of t addr in
  let s = set_of t set in
  let cap = Array.length s / 2 in
  let w = find_way s cap tag 0 in
  if w >= 0 then begin
    (* [tag_of] shifts right by at least one bit, so no address has the
       invalid tag -1 *)
    t.hits <- t.hits + 1;
    s.(cap + w) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* filled ways are a prefix: the last held way is filled iff all are *)
    if cap < t.assoc && (cap = 0 || s.((2 * cap) - 1) <> 0) then begin
      let cap' = if cap = 0 then 1 else Int.min (2 * cap) t.assoc in
      let s = grow s cap cap' in
      Array.unsafe_set (own_leaf t set) (set land leaf_mask) s;
      s.(cap) <- tag;
      s.(cap' + cap) <- t.clock
    end
    else begin
      (* evict LRU way *)
      let victim = worst_way s cap 1 0 in
      s.(victim) <- tag;
      s.(cap + victim) <- t.clock
    end;
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

let flush t = Array.fill t.lines 0 (Array.length t.lines) empty_leaf

(** Invalidate a random fraction of lines — models cache pollution from
    interrupts and other cores between trials. Draws range over all
    [sets * assoc] ways, held or not, so the generator advances the same
    whichever ways a run has filled; a draw past a set's held ways has
    nothing to invalidate. An invalidated way keeps its LRU stamp. *)
let perturb t rng ~fraction =
  let n = t.sets * t.assoc in
  let k = int_of_float (float_of_int n *. fraction) in
  for _ = 1 to k do
    let i = Rng.int rng n in
    let s = set_of t (i / t.assoc) in
    let w = i mod t.assoc in
    if w < Array.length s / 2 then s.(w) <- -1
  done

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
