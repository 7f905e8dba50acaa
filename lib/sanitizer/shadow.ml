(** KASAN-style shadow state for the simulated kernel heap.

    One shadow cell per 8-byte granule of heap virtual address space,
    kept sparse (a hash table — the simulated heap is tiny and mostly
    untouched). Every kmalloc is tracked in an allocation table whether
    or not shadow *marking* is enabled, so violation reports can always
    attribute an address to "allocation [tag] of [size] bytes from
    [site]". Marking (redzones, freed-state poisoning, the delayed-reuse
    quarantine) only switches on with the sanitizer, keeping the default
    configuration's allocator behaviour — and therefore every published
    figure — bit-identical.

    The state machine per granule:

    - absent        — never part of a tracked allocation (not heap)
    - [Valid (id,k)] — bytes 0..k-1 of the granule belong to live
      allocation [id]; an access past byte [k] is out-of-bounds into
      the allocation's tail padding
    - [Red id]      — redzone guarding allocation [id]
    - [Freed_g id]  — memory of allocation [id] after kfree, held in
      the quarantine so reuse is delayed and use-after-free hits poison

    Frees are typed: double-free and never-allocated (or interior
    pointer) frees return structured errors carrying the original
    allocation when one exists, mirroring the ioctl layer's
    -EINVAL/-ERANGE discipline. *)

let granule = 8
let redzone = 64 (* bytes each side; keeps kmalloc's 64-byte alignment *)

type alloc = {
  id : int;
  base : int;  (** usable (payload) virtual base *)
  size : int;  (** requested size in bytes *)
  tag : string;  (** caller-provided object name; "" when untagged *)
  site : string;  (** allocating context (module name or "kernel") *)
  mutable live : bool;
  mutable free_site : string option;
  lo_rz : int;
  hi_rz : int;
}

(** Raw block extent (start, len) covering payload plus both redzones —
    the unit the allocator's free list recycles. *)
let block_of a = (a.base - a.lo_rz, a.lo_rz + ((a.size + 63) land lnot 63) + a.hi_rz)

type gstate = Valid of int * int | Red of int | Freed_g of int

type violation =
  | Out_of_bounds of alloc  (** redzone / tail-padding hit *)
  | Use_after_free of alloc  (** quarantined (freed) memory touched *)

type free_error =
  | Double_free of alloc  (** already freed; carries the original *)
  | Invalid_free of alloc option
      (** never a live allocation base; [Some a] when the pointer lands
          inside allocation [a] (an interior-pointer free) *)

type t = {
  gran : (int, gstate) Hashtbl.t;
      (** granule index -> state; created small, since nothing writes it
          until marking is on, and grown by [Hashtbl] as granules are
          marked *)
  allocs : (int, alloc) Hashtbl.t;  (** id -> allocation record *)
  by_base : (int, int) Hashtbl.t;  (** payload base -> most recent id *)
  mutable next_id : int;
  mutable marking : bool;
  quarantine : int Queue.t;  (** freed allocation ids, FIFO *)
  mutable q_bytes : int;
  q_cap : int;  (** quarantine byte budget before reuse resumes *)
  mutable n_allocs : int;
  mutable n_frees : int;
  mutable live_bytes : int;
}

let create ?(quarantine_bytes = 256 * 1024) () =
  {
    gran = Hashtbl.create 16;
    allocs = Hashtbl.create 256;
    by_base = Hashtbl.create 256;
    next_id = 1;
    marking = false;
    quarantine = Queue.create ();
    q_bytes = 0;
    q_cap = quarantine_bytes;
    n_allocs = 0;
    n_frees = 0;
    live_bytes = 0;
  }

let marking t = t.marking
let set_marking t b = t.marking <- b
let allocations t = t.n_allocs
let frees t = t.n_frees
let live_bytes t = t.live_bytes
let quarantine_bytes t = t.q_bytes
let quarantine_depth t = Queue.length t.quarantine

let iter_granules ~lo ~hi f =
  if hi > lo then
    for g = lo / granule to (hi - 1) / granule do
      f g
    done

let mark_alloc t (a : alloc) =
  (* left redzone *)
  iter_granules ~lo:(a.base - a.lo_rz) ~hi:a.base (fun g ->
      Hashtbl.replace t.gran g (Red a.id));
  (* payload: full granules, then the partial tail *)
  let full_end = a.base + (a.size / granule * granule) in
  iter_granules ~lo:a.base ~hi:full_end (fun g ->
      Hashtbl.replace t.gran g (Valid (a.id, granule)));
  let rem = a.size mod granule in
  if rem > 0 then
    Hashtbl.replace t.gran (full_end / granule) (Valid (a.id, rem));
  (* right redzone, from the granule after the payload's last through
     the end of the raw block (covers the alignment slack too) *)
  let rz_lo = a.base + ((a.size + granule - 1) / granule * granule) in
  let blk_lo, blk_len = block_of a in
  iter_granules ~lo:rz_lo ~hi:(blk_lo + blk_len) (fun g ->
      if g * granule >= rz_lo then Hashtbl.replace t.gran g (Red a.id))

let mark_freed t (a : alloc) =
  iter_granules ~lo:a.base ~hi:(a.base + max granule a.size) (fun g ->
      Hashtbl.replace t.gran g (Freed_g a.id))

let clear_marks t (a : alloc) =
  let lo, len = block_of a in
  iter_granules ~lo ~hi:(lo + len) (fun g -> Hashtbl.remove t.gran g)

(** Record a fresh allocation. [base] is the usable pointer; when the
    caller reserved redzones, pass their widths so shadow poison covers
    them. Granule marking happens only while {!marking} is on. *)
let track_alloc t ~base ~size ~lo_rz ~hi_rz ~tag ~site : alloc =
  let a =
    {
      id = t.next_id;
      base;
      size;
      tag;
      site;
      live = true;
      free_site = None;
      lo_rz;
      hi_rz;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.allocs a.id a;
  Hashtbl.replace t.by_base base a.id;
  t.n_allocs <- t.n_allocs + 1;
  t.live_bytes <- t.live_bytes + size;
  if t.marking then mark_alloc t a;
  a

(** Free the allocation whose payload base is [addr]. On success returns
    the freed record plus raw block extents now safe for the allocator
    to recycle (empty while the block sits in quarantine). Double and
    invalid frees are typed errors; the allocator state is untouched. *)
let free t ~addr ~site : (alloc * (int * int) list, free_error) result =
  match Hashtbl.find_opt t.by_base addr with
  | Some id -> (
    let a = Hashtbl.find t.allocs id in
    if not a.live then Error (Double_free a)
    else begin
      a.live <- false;
      a.free_site <- Some site;
      t.n_frees <- t.n_frees + 1;
      t.live_bytes <- t.live_bytes - a.size;
      if not t.marking then Ok (a, [ block_of a ])
      else begin
        (* poison and quarantine: reuse is delayed until the FIFO
           overflows its byte budget, so use-after-free lands on poison
           instead of a recycled object *)
        mark_freed t a;
        Queue.push a.id t.quarantine;
        t.q_bytes <- t.q_bytes + a.size;
        let reclaimed = ref [] in
        while t.q_bytes > t.q_cap && not (Queue.is_empty t.quarantine) do
          let old = Hashtbl.find t.allocs (Queue.pop t.quarantine) in
          t.q_bytes <- t.q_bytes - old.size;
          clear_marks t old;
          reclaimed := block_of old :: !reclaimed
        done;
        Ok (a, List.rev !reclaimed)
      end
    end)
  | None -> (
    (* not an allocation base; is it an interior pointer? *)
    let interior = ref None in
    Hashtbl.iter
      (fun _ (a : alloc) ->
        if a.live && addr > a.base && addr < a.base + a.size then
          interior := Some a)
      t.allocs;
    Error (Invalid_free !interior))

(** Shadow check for an access [addr, addr+size). Only marked granules
    answer; addresses outside tracked heap return [None] (not ours to
    police — the policy guard owns those). *)
let check t ~addr ~size : violation option =
  if not t.marking || size <= 0 then None
  else begin
    let viol = ref None in
    let g0 = addr / granule and g1 = (addr + size - 1) / granule in
    let g = ref g0 in
    while !viol = None && !g <= g1 do
      (match Hashtbl.find_opt t.gran !g with
      | Some (Red id) -> viol := Some (Out_of_bounds (Hashtbl.find t.allocs id))
      | Some (Freed_g id) ->
        viol := Some (Use_after_free (Hashtbl.find t.allocs id))
      | Some (Valid (id, k)) ->
        (* partial granule: bytes k..7 are tail padding past the
           requested size — out of bounds even without reaching the
           redzone granule *)
        let last_needed =
          if !g = g1 then (addr + size - 1) mod granule else granule - 1
        in
        if last_needed >= k then
          viol := Some (Out_of_bounds (Hashtbl.find t.allocs id))
      | None -> ());
      incr g
    done;
    !viol
  end

(** Attribute an arbitrary address to the allocation that owns (or most
    plausibly owned) it: containing payload or redzone wins, else the
    nearest allocation ending within a page below. Returns the record
    and the byte offset from its payload base (negative = before). *)
let attribute t addr : (alloc * int) option =
  (* a live containing allocation wins; then any containing one (newest
     first — a recycled base should name its current tenant); then the
     closest allocation ending within a page below the address *)
  let containing = ref None and near = ref None in
  Hashtbl.iter
    (fun _ (a : alloc) ->
      let lo = a.base - a.lo_rz and hi = a.base + a.size + a.hi_rz in
      if addr >= lo && addr < hi then begin
        match !containing with
        | Some (b : alloc) when b.live && not a.live -> ()
        | Some b when b.live = a.live && b.id > a.id -> ()
        | _ -> containing := Some a
      end
      else if addr >= hi && addr - hi < 4096 then
        match !near with
        | Some (b : alloc) when b.base >= a.base -> ()
        | _ -> near := Some a)
    t.allocs;
  match (!containing, !near) with
  | Some a, _ | None, Some a -> Some (a, addr - a.base)
  | None, None -> None

let live_allocs t =
  Hashtbl.fold (fun _ a acc -> if a.live then a :: acc else acc) t.allocs []
  |> List.sort (fun a b -> compare a.base b.base)

(** True iff no two live allocations' payloads overlap — the invariant
    the QCheck allocator property leans on. *)
let no_live_overlap t =
  let rec ok = function
    | (a : alloc) :: (b : alloc) :: rest ->
      a.base + a.size <= b.base && ok (b :: rest)
    | _ -> true
  in
  ok (live_allocs t)

let describe (a : alloc) =
  Printf.sprintf "%s%d-byte allocation%s at 0x%x (by %s%s)"
    (if a.live then "live " else "freed ")
    a.size
    (if a.tag = "" then "" else Printf.sprintf " '%s'" a.tag)
    a.base a.site
    (match a.free_site with
    | Some s when not a.live -> ", freed by " ^ s
    | _ -> "")
