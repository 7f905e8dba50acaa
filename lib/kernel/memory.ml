(** Simulated physical memory: DRAM behind the direct map, with
    little-endian integer accessors.

    The host stores it in 512-byte [Bytes] chunks reached through a
    two-level directory: [leaves] holds one leaf per 256 chunks (128 KiB
    of DRAM), and a leaf holds its chunks. Every leaf starts out as one
    shared leaf whose every slot aliases one shared chunk of zeros;
    neither is ever written. The first store into a chunk gives it, and
    its leaf if that is still the shared one, a private copy. So a 64 MiB
    kernel costs the host a 512-word directory plus the chunks the
    simulation writes and the leaves they fall in, and creating one
    zeroes nothing. The chunk is a host constant only: the simulated OS
    page ({!page_size}) stays 4 KiB. The representation is invisible to
    the simulation: every function reads and writes exactly the bytes
    the flat-array model did, and charges no cycles (costs are the
    caller's, in {!Machine.Model}). *)

let page_bits = 12
let page_size = 1 lsl page_bits

(* The host chunk and leaf. A chunk smaller than the page pays off
   because a run's stores are sparse within a page: a TX buffer page
   holds two 128-byte frames, 2 KiB apart. *)
let chunk_bits = 9
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let leaf_bits = 8
let leaf_chunks = 1 lsl leaf_bits
let leaf_mask = leaf_chunks - 1

type t = {
  leaves : Bytes.t array array;
  size : int;  (** bytes addressable; bounds every access, not [leaves] *)
  mutable resident : int;  (** chunks materialised so far *)
}

exception Bad_phys_access of { addr : int; size : int }

(* The chunk every untouched slot aliases, and the leaf every untouched
   directory entry aliases (all of its slots [zero_chunk]). Nothing may
   write either: every store goes through [own] first. *)
let zero_chunk = Bytes.make chunk_size '\000'
let zero_leaf = Array.make leaf_chunks zero_chunk

let create ~size =
  let chunks = (size + chunk_mask) lsr chunk_bits in
  { leaves = Array.make ((chunks + leaf_mask) lsr leaf_bits) zero_leaf; size; resident = 0 }

(** Host memory held by materialised chunks, in bytes. *)
let resident_bytes t = t.resident * chunk_size

(* [addr > t.size - size], not [addr + size > t.size]: the sum wraps
   negative for an access ending past [max_int], and would pass *)
let[@inline] check t addr size =
  if addr < 0 || size < 0 || addr > t.size - size then
    raise (Bad_phys_access { addr; size })

(* The chunk holding [addr]: two loads, unchecked because every caller
   has already bounds-checked [addr] against [t.size]. *)
let[@inline] chunk t addr =
  Array.unsafe_get
    (Array.unsafe_get t.leaves (addr lsr (chunk_bits + leaf_bits)))
    ((addr lsr chunk_bits) land leaf_mask)

(* Give the chunk holding [addr], which still aliases [zero_chunk], a
   private copy, and its leaf first if that still aliases [zero_leaf]. *)
let materialise t addr =
  let l = addr lsr (chunk_bits + leaf_bits) in
  let leaf = Array.unsafe_get t.leaves l in
  let leaf =
    if leaf != zero_leaf then leaf
    else begin
      let leaf = Array.make leaf_chunks zero_chunk in
      Array.unsafe_set t.leaves l leaf;
      leaf
    end
  in
  let c = Bytes.make chunk_size '\000' in
  Array.unsafe_set leaf ((addr lsr chunk_bits) land leaf_mask) c;
  t.resident <- t.resident + 1;
  c

(* The chunk holding [addr], private to [t]: what a store writes into. *)
let[@inline] own t addr =
  let c = chunk t addr in
  if c != zero_chunk then c else materialise t addr

let get_byte t addr = Char.code (Bytes.unsafe_get (chunk t addr) (addr land chunk_mask))

let set_byte t addr v =
  Bytes.unsafe_set (own t addr) (addr land chunk_mask) (Char.unsafe_chr (v land 0xff))

let read_u8 t addr =
  check t addr 1;
  get_byte t addr

let write_u8 t addr v =
  check t addr 1;
  set_byte t addr v

(** Little-endian load of [size] ∈ {1,2,4,8} bytes. 8-byte loads are
    truncated to OCaml's 63-bit int range (top bit lost — documented
    simulator restriction). *)
let read t addr ~size =
  check t addr size;
  let off = addr land chunk_mask in
  match size with
  | 1 -> get_byte t addr
  | 2 when off + 2 <= chunk_size -> Bytes.get_uint16_le (chunk t addr) off
  | 4 when off + 4 <= chunk_size ->
    Int32.to_int (Bytes.get_int32_le (chunk t addr) off) land 0xffff_ffff
  | 8 when off + 8 <= chunk_size ->
    Int64.to_int (Bytes.get_int64_le (chunk t addr) off) land max_int
  | _ ->
    (* straddles a chunk boundary (or an odd size) *)
    let acc = ref 0 in
    for i = size - 1 downto 0 do
      acc := (!acc lsl 8) lor get_byte t (addr + i)
    done;
    !acc land max_int

let write t addr ~size v =
  check t addr size;
  let off = addr land chunk_mask in
  match size with
  | 1 -> set_byte t addr v
  | 2 when off + 2 <= chunk_size -> Bytes.set_uint16_le (own t addr) off (v land 0xffff)
  | 4 when off + 4 <= chunk_size -> Bytes.set_int32_le (own t addr) off (Int32.of_int v)
  | 8 when off + 8 <= chunk_size ->
    (* [v lsr 56] never sets the top bit of the eighth byte *)
    Bytes.set_int64_le (own t addr) off (Int64.logand (Int64.of_int v) Int64.max_int)
  | _ ->
    for i = 0 to size - 1 do
      set_byte t (addr + i) (v lsr (8 * i))
    done

(* Length of the piece of [addr, addr + len) that stays in [addr]'s chunk. *)
let piece addr len = Int.min len (chunk_size - (addr land chunk_mask))

let blit_string t ~dst s =
  let len = String.length s in
  check t dst len;
  let i = ref 0 in
  while !i < len do
    let a = dst + !i in
    let n = piece a (len - !i) in
    Bytes.blit_string s !i (own t a) (a land chunk_mask) n;
    i := !i + n
  done

(* Copy one piece that lies within a single source and a single
   destination chunk. A zero piece onto a chunk that is still shared is
   already in place. *)
let copy_piece t ~src ~dst n =
  let sc = chunk t src in
  if not (sc == zero_chunk && chunk t dst == zero_chunk) then begin
    let dc = own t dst in
    (* re-read: [own] may just have replaced the source chunk *)
    Bytes.blit (chunk t src) (src land chunk_mask) dc (dst land chunk_mask) n
  end

(** [memmove]: overlapping ranges copy as if through a temporary. Pieces
    run front to back when [dst] is below [src] and back to front
    otherwise, so no piece reads bytes an earlier piece overwrote; within
    one chunk [Bytes.blit] is itself a memmove. *)
let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if dst <= src then begin
    let i = ref 0 in
    while !i < len do
      let s = src + !i and d = dst + !i in
      let n = piece d (piece s (len - !i)) in
      copy_piece t ~src:s ~dst:d n;
      i := !i + n
    done
  end
  else begin
    let e = ref len in
    while !e > 0 do
      (* the piece ending at [e]: back to the later of the two chunk starts *)
      let s = src + !e and d = dst + !e in
      let n = Int.min !e (Int.min (((s - 1) land chunk_mask) + 1) (((d - 1) land chunk_mask) + 1)) in
      copy_piece t ~src:(s - n) ~dst:(d - n) n;
      e := !e - n
    done
  end

(* Copy [len] bytes from [src] into [b] at [pos]. Bounds already checked. *)
let blit_out t ~src b ~pos ~len =
  let i = ref 0 in
  while !i < len do
    let a = src + !i in
    let n = piece a (len - !i) in
    let c = chunk t a in
    if c != zero_chunk then Bytes.blit c (a land chunk_mask) b (pos + !i) n;
    i := !i + n
  done

let read_string t ~src ~len =
  check t src len;
  let b = Bytes.make len '\000' in
  blit_out t ~src b ~pos:0 ~len;
  Bytes.unsafe_to_string b

let fill t ~dst ~len c =
  check t dst len;
  let i = ref 0 in
  while !i < len do
    let a = dst + !i in
    let n = piece a (len - !i) in
    if not (c = '\000' && chunk t a == zero_chunk) then
      Bytes.fill (own t a) (a land chunk_mask) n c;
    i := !i + n
  done

(** Copy of the first [len] bytes (default: all) of physical memory, for
    before/after diffing by the fault-containment harness. *)
let snapshot ?len t =
  let len = match len with Some l -> Int.min l t.size | None -> t.size in
  let b = Bytes.make len '\000' in
  blit_out t ~src:0 b ~pos:0 ~len;
  b

(** Contiguous [(offset, length)] ranges over [0, length snap) where the
    current contents differ from [snap]. Equal stretches are skipped
    eight bytes at a time so diffing megabytes of unchanged DRAM between
    fault injections stays cheap. *)
let diff_ranges t snap =
  let n = Int.min (Bytes.length snap) t.size in
  let ranges = ref [] in
  let run_start = ref (-1) in
  let flush upto =
    if !run_start >= 0 then begin
      ranges := (!run_start, upto - !run_start) :: !ranges;
      run_start := -1
    end
  in
  let i = ref 0 in
  while !i < n do
    let off = !i land chunk_mask in
    if
      !run_start < 0 && !i + 8 <= n && off + 8 <= chunk_size
      && Bytes.get_int64_ne (chunk t !i) off = Bytes.get_int64_ne snap !i
    then i := !i + 8
    else begin
      if get_byte t !i <> Char.code (Bytes.get snap !i) then begin
        if !run_start < 0 then run_start := !i
      end
      else flush !i;
      incr i
    end
  done;
  flush n;
  List.rev !ranges
