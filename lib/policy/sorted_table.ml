(** Sorted region table with binary search — the paper's first suggested
    O(log n) upgrade (§4.2): "simply sort the regions in the policy in
    order, and then do a binary search over the table instead of a linear
    scan".

    The trade-off the paper names (§3.1) is enforced here: overlapping
    regions cannot be represented, so [add] rejects them. Binary-search
    probes have data-dependent branch outcomes, which is why this loses
    to the linear scan at small n on the simulated machines too. *)

let entry_size = 24

type t = {
  kernel : Kernel.t;
  base_vaddr : int;
  capacity : int;
  mutable entries : Region.t array;
  mutable n : int;
}

let create kernel ~capacity =
  let base_vaddr = Kernel.kmalloc kernel ~size:(capacity * entry_size) in
  {
    kernel;
    base_vaddr;
    capacity;
    entries = Array.make capacity (Region.v ~base:0 ~len:1 ~prot:0 ());
    n = 0;
  }

let entry_addr t i = t.base_vaddr + (i * entry_size)

let write_entry t i (r : Region.t) =
  let a = entry_addr t i in
  Kernel.write t.kernel ~addr:a ~size:8 r.Region.base;
  Kernel.write t.kernel ~addr:(a + 8) ~size:8 r.Region.len;
  Kernel.write t.kernel ~addr:(a + 16) ~size:8 r.Region.prot

let add t (r : Region.t) =
  if t.n >= t.capacity then Error (Structure.capacity_error t.capacity)
  else begin
    let overlap = ref None in
    for i = 0 to t.n - 1 do
      if Region.overlaps t.entries.(i) r then overlap := Some t.entries.(i)
    done;
    match !overlap with
    | Some other ->
      Error
        (Printf.sprintf "sorted table cannot hold overlapping regions (%s vs %s)"
           (Region.to_string r) (Region.to_string other))
    | None ->
      (* insertion sort by base *)
      let pos = ref t.n in
      while !pos > 0 && t.entries.(!pos - 1).Region.base > r.Region.base do
        t.entries.(!pos) <- t.entries.(!pos - 1);
        write_entry t !pos t.entries.(!pos);
        decr pos
      done;
      t.entries.(!pos) <- r;
      write_entry t !pos r;
      t.n <- t.n + 1;
      Ok ()
  end

let lookup t ~addr ~size : Structure.outcome =
  let machine = Kernel.machine t.kernel in
  (* binary search for the rightmost entry with base <= addr *)
  let probes = ref 0 in
  let lo = ref 0 and hi = ref (t.n - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    incr probes;
    ignore (Kernel.read t.kernel ~addr:(entry_addr t mid) ~size:8);
    Machine.Model.retire machine 3;
    let le = t.entries.(mid).Region.base <= addr in
    (* data-dependent direction: poison for the predictor *)
    Machine.Model.branch machine
      ~pc:(Hashtbl.hash ("sorted", t.base_vaddr, !probes))
      ~taken:le;
    if le then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !best < 0 then { Structure.matched = None; scanned = !probes }
  else begin
    let r = t.entries.(!best) in
    Machine.Model.retire machine 2;
    if Region.contains r ~addr ~size then
      { Structure.matched = Some r; scanned = !probes }
    else { Structure.matched = None; scanned = !probes }
  end
