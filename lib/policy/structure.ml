(** Common interface for policy region structures.

    Every implementation stores its entries in *simulated kernel memory*
    and performs its probes through {!Kernel.read}/{!Kernel.write}, so the
    cost of a policy lookup is mechanistic: the linear table is
    prefetch-friendly and branch-predictable, binary search has data-
    dependent branches, the splay tree chases pointers, the Bloom filter
    scatters probes. This is how the repo reproduces the paper's §3.1/§4.2
    discussion of structure trade-offs rather than asserting it. *)

type outcome = {
  matched : Region.t option;  (** first region containing the range *)
  scanned : int;  (** entries (or nodes/probes) examined *)
}

(** Typed escape hatch from the packed {!instance}: implementations that
    expose integrity-auditable internals (the linear table's entry
    mirror) extend this variant with their own constructor; everything
    else answers {!Opaque}. The integrity layer uses it to reach tier
    metadata without widening the lookup API. *)
type repr = ..

type repr += Opaque

(** Canonical capacity-exhaustion error. Every structure returns exactly
    this string from [add] when it is full, so callers (the ioctl layer,
    the RCU publish path) can map it to a typed [-ENOSPC] instead of a
    blanket [-1] — see {!is_capacity_error}. *)
let capacity_error capacity =
  Printf.sprintf "policy table full (%d regions)" capacity

let capacity_error_marker = "policy table full"

(* substring search, because intermediaries (Engine.build_instance) wrap
   the structure's message in their own context prefix *)
let is_capacity_error msg =
  let m = capacity_error_marker in
  let lm = String.length m and ln = String.length msg in
  let rec at i = i + lm <= ln && (String.sub msg i lm = m || at (i + 1)) in
  at 0

module type S = sig
  type t

  val name : string
  val create : Kernel.t -> capacity:int -> t

  val add : t -> Region.t -> (unit, string) result
  (** Append/insert a rule. Implementations that cannot represent
      overlapping regions (sorted table, splay tree — the trade-off the
      paper calls out) return [Error] on overlap. *)

  val remove : t -> base:int -> bool
  val clear : t -> unit
  val count : t -> int
  val regions : t -> Region.t list

  val lookup : t -> addr:int -> size:int -> outcome
  (** Find the first/best region containing [addr, addr+size), charging
      machine cost for every probe. *)

  val table_region : t -> (int * int) option
  (** [(vaddr, bytes)] of the structure's contiguous in-kernel table, if
      it keeps one — the policy data an attacker would corrupt. Node-based
      structures (trees) scatter per-insert allocations and return
      [None]. *)

  val repr : t -> repr
  (** The structure's typed self-description (see {!type:repr});
      {!Opaque} when it exposes no auditable internals. *)
end

type instance = I : (module S with type t = 'a) * 'a -> instance

let name (I ((module M), _)) = M.name
let add (I ((module M), t)) r = M.add t r
let remove (I ((module M), t)) ~base = M.remove t ~base
let clear (I ((module M), t)) = M.clear t
let count (I ((module M), t)) = M.count t
let regions (I ((module M), t)) = M.regions t
let lookup (I ((module M), t)) ~addr ~size = M.lookup t ~addr ~size
let table_region (I ((module M), t)) = M.table_region t
let repr (I ((module M), t)) = M.repr t
