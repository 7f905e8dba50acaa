(** AMQ (Bloom-filter) front-end over a linear table — the paper's §3.1
    suggestion: "probabilistic structures, like any of a variety of
    AMQ-filters, may very well improve average performance, as we expect
    modules to be compliant with policies for nearly every access,
    significantly reducing the number of policy table lookups needed".

    The filter caches page-granular allow decisions: a key is
    (page, flags). A filter hit short-circuits the table walk; a miss
    falls through to the exact linear scan, and a read-write result
    inserts the page only when first match gives every access inside the
    page that same answer: the first region that touches the page must
    contain all of it. What remains is the well-known caveat — a hash
    collision can admit an access the table would deny — inherent to the
    approach the paper floats; [fp_possible] exposes the risk and the
    ablation benchmark measures the speed side of the trade. The policy
    is fixed once built, so the filter is never reset. *)

type t = {
  kernel : Kernel.t;
  inner : Linear_table.t;
  bits_vaddr : int;
  bits_size : int;  (** bytes *)
  k : int;  (** probes per query *)
  mutable bits : Bytes.t;  (** mirror of kernel memory *)
  mutable inserted : int;
}

let filter_bytes = 4096
let probes = 3

let create kernel ~capacity =
  {
    kernel;
    inner = Linear_table.create kernel ~capacity;
    bits_vaddr = Kernel.kmalloc kernel ~size:filter_bytes;
    bits_size = filter_bytes;
    k = probes;
    bits = Bytes.make filter_bytes '\000';
    inserted = 0;
  }

let page_of addr = addr lsr 12

let hash_i t i ~page ~flags =
  let h = Hashtbl.hash (page, flags, i * 0x9e3779b9) in
  h mod (t.bits_size * 8)

let bit_get t idx = Char.code (Bytes.get t.bits (idx lsr 3)) land (1 lsl (idx land 7)) <> 0

let bit_set t idx =
  let b = Char.code (Bytes.get t.bits (idx lsr 3)) in
  Bytes.set t.bits (idx lsr 3) (Char.chr (b lor (1 lsl (idx land 7))))

(** Probe the filter for (page, flags), charging one scattered load per
    hash; true = all bits set (possibly-allowed). *)
let filter_query t ~page ~flags =
  let machine = Kernel.machine t.kernel in
  let all = ref true in
  for i = 0 to t.k - 1 do
    let idx = hash_i t i ~page ~flags in
    ignore (Kernel.read t.kernel ~addr:(t.bits_vaddr + (idx lsr 3)) ~size:1);
    Machine.Model.retire machine 3;
    if not (bit_get t idx) then all := false
  done;
  Machine.Model.branch machine
    ~pc:(Hashtbl.hash ("bloom", t.bits_vaddr))
    ~taken:!all;
  !all

let filter_insert t ~page ~flags =
  for i = 0 to t.k - 1 do
    let idx = hash_i t i ~page ~flags in
    Kernel.write t.kernel ~addr:(t.bits_vaddr + (idx lsr 3)) ~size:1
      (Char.code (Bytes.get t.bits (idx lsr 3)) lor (1 lsl (idx land 7)));
    bit_set t idx
  done;
  t.inserted <- t.inserted + 1

let add t r = Linear_table.add t.inner r

(* Does first match answer read-write for every access inside [page]?
   Exactly when the first region touching the page contains all of it:
   every earlier region then misses the page entirely. (The top page of
   the address space, whose end is not representable, never qualifies.) *)
let page_all_rw t page =
  let base = page lsl 12 in
  base <= max_int - 4096
  &&
  let whole = Region.v ~base ~len:4096 ~prot:0 () in
  match List.find_opt (Region.overlaps whole) (Linear_table.regions t.inner) with
  | Some r ->
    Region.contains r ~addr:base ~size:4096
    && Region.permits r ~flags:Region.prot_rw
  | None -> false

(** Estimated false-positive probability at the current load. *)
let fp_possible t =
  let m = float_of_int (t.bits_size * 8) in
  let n = float_of_int (t.inserted * t.k) in
  let frac = 1.0 -. exp (-.n /. m) in
  frac ** float_of_int t.k

let lookup t ~addr ~size : Structure.outcome =
  let page = page_of addr in
  (* single-page fast path only: accesses spanning pages take the slow
     path, as a real implementation would *)
  if page = page_of (addr + size - 1) && filter_query t ~page ~flags:0 then
    {
      Structure.matched =
        Some (Region.v ~tag:"bloom-fastpath" ~base:(page lsl 12) ~len:4096
                ~prot:Region.prot_rw ());
      scanned = t.k;
    }
  else begin
    let out = Linear_table.lookup t.inner ~addr ~size in
    (* cache fully-permissive pages only: a page every access of which
       is readable-and-writable per the table can be admitted on any
       future flags *)
    if page = page_of (addr + size - 1) && page_all_rw t page then
      filter_insert t ~page ~flags:0;
    out
  end
