(** Simulated physical memory: DRAM behind the direct map, with
    little-endian integer accessors.

    The host stores it demand-paged, as an array of 4 KiB [Bytes] pages.
    Every slot starts out aliasing one shared page of zeros that is never
    written; a slot gets its own copy on the first store into it. So a
    64 MiB kernel costs the host only the pages the simulation writes,
    and creating one zeroes nothing. The representation is invisible to
    the simulation: every function reads and writes exactly the bytes the
    flat-array model did, and charges no cycles (costs are the caller's,
    in {!Machine.Model}). *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  pages : Bytes.t array;
  size : int;  (** bytes addressable; bounds every access, not [pages] *)
  mutable resident : int;  (** pages materialised so far *)
}

exception Bad_phys_access of { addr : int; size : int }

(* The page every untouched slot aliases. Nothing may write it: every
   store goes through [own] first. *)
let zero_page = Bytes.make page_size '\000'

let create ~size =
  { pages = Array.make ((size + page_mask) lsr page_bits) zero_page; size; resident = 0 }

(** Host memory held by materialised pages, in bytes. *)
let resident_bytes t = t.resident * page_size

(* [addr > t.size - size], not [addr + size > t.size]: the sum wraps
   negative for an access ending past [max_int], and would pass *)
let check t addr size =
  if addr < 0 || size < 0 || addr > t.size - size then
    raise (Bad_phys_access { addr; size })

let page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

(* Page [i], made private first if it still aliases [zero_page]. *)
let own t i =
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages i p;
    t.resident <- t.resident + 1;
    p
  end

let get_byte t addr = Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let set_byte t addr v =
  Bytes.unsafe_set (own t (addr lsr page_bits)) (addr land page_mask)
    (Char.unsafe_chr (v land 0xff))

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
  let off = addr land page_mask in
  match size with
  | 1 -> get_byte t addr
  | 2 when off + 2 <= page_size -> Bytes.get_uint16_le (page t addr) off
  | 4 when off + 4 <= page_size ->
    Int32.to_int (Bytes.get_int32_le (page t addr) off) land 0xffff_ffff
  | 8 when off + 8 <= page_size ->
    Int64.to_int (Bytes.get_int64_le (page t addr) off) land max_int
  | _ ->
    (* straddles a page boundary (or an odd size) *)
    let acc = ref 0 in
    for i = size - 1 downto 0 do
      acc := (!acc lsl 8) lor get_byte t (addr + i)
    done;
    !acc land max_int

let write t addr ~size v =
  check t addr size;
  let off = addr land page_mask in
  match size with
  | 1 -> set_byte t addr v
  | 2 when off + 2 <= page_size ->
    Bytes.set_uint16_le (own t (addr lsr page_bits)) off (v land 0xffff)
  | 4 when off + 4 <= page_size ->
    Bytes.set_int32_le (own t (addr lsr page_bits)) off (Int32.of_int v)
  | 8 when off + 8 <= page_size ->
    (* [v lsr 56] never sets the top bit of the eighth byte *)
    Bytes.set_int64_le (own t (addr lsr page_bits)) off
      (Int64.logand (Int64.of_int v) Int64.max_int)
  | _ ->
    for i = 0 to size - 1 do
      set_byte t (addr + i) (v lsr (8 * i))
    done

(* Length of the piece of [addr, addr + len) that stays in [addr]'s page. *)
let piece addr len = Int.min len (page_size - (addr land page_mask))

let blit_string t ~dst s =
  let len = String.length s in
  check t dst len;
  let i = ref 0 in
  while !i < len do
    let a = dst + !i in
    let n = piece a (len - !i) in
    Bytes.blit_string s !i (own t (a lsr page_bits)) (a land page_mask) n;
    i := !i + n
  done

(* Copy one piece that lies within a single source and a single
   destination page. A zero piece onto a page that is still shared is
   already in place. *)
let copy_piece t ~src ~dst n =
  let sp = page t src in
  if not (sp == zero_page && page t dst == zero_page) then begin
    let dp = own t (dst lsr page_bits) in
    (* re-read: [own] may just have replaced the source page *)
    Bytes.blit (page t src) (src land page_mask) dp (dst land page_mask) n
  end

(** [memmove]: overlapping ranges copy as if through a temporary. Pieces
    run front to back when [dst] is below [src] and back to front
    otherwise, so no piece reads bytes an earlier piece overwrote; within
    one page [Bytes.blit] is itself a memmove. *)
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
      (* the piece ending at [e]: back to the later of the two page starts *)
      let s = src + !e and d = dst + !e in
      let n = Int.min !e (Int.min (((s - 1) land page_mask) + 1) (((d - 1) land page_mask) + 1)) in
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
    let p = page t a in
    if p != zero_page then Bytes.blit p (a land page_mask) b (pos + !i) n;
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
    if not (c = '\000' && page t a == zero_page) then
      Bytes.fill (own t (a lsr page_bits)) (a land page_mask) n c;
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
    let off = !i land page_mask in
    if
      !run_start < 0 && !i + 8 <= n && off + 8 <= page_size
      && Bytes.get_int64_ne (page t !i) off = Bytes.get_int64_ne snap !i
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
