(** A small most-recently-matched cache in front of the linear table — the
    structure CARAT CAKE uses ("a simple cache over the region data
    structure", §4.2). The cached entries are exact regions and a hit
    re-validates containment against the real region. A hit answers that
    region, so only a region no earlier region overlaps is ever cached:
    for every access it contains, it is then the first match too. *)

type slot = { mutable region : Region.t option; vaddr : int }

type t = {
  kernel : Kernel.t;
  inner : Linear_table.t;
  cacheable : bool array;
      (** per table position: no earlier region overlaps this one *)
  slots : slot array;
  mutable next_fill : int;
  mutable hits : int;
  mutable misses : int;
}

let default_ways = 2

let create kernel ~capacity =
  let slots =
    Array.init default_ways (fun _ ->
        { region = None; vaddr = Kernel.kmalloc kernel ~size:24 })
  in
  {
    kernel;
    inner = Linear_table.create kernel ~capacity;
    cacheable = Array.make capacity false;
    slots;
    next_fill = 0;
    hits = 0;
    misses = 0;
  }

let add t r =
  let i = Linear_table.count t.inner in
  let shadowed = List.exists (Region.overlaps r) (Linear_table.regions t.inner) in
  match Linear_table.add t.inner r with
  | Ok () ->
    t.cacheable.(i) <- not shadowed;
    Ok ()
  | Error _ as e -> e

let lookup t ~addr ~size : Structure.outcome =
  let machine = Kernel.machine t.kernel in
  let rec probe i =
    if i >= Array.length t.slots then None
    else begin
      let s = t.slots.(i) in
      ignore (Kernel.read t.kernel ~addr:s.vaddr ~size:8);
      Machine.Model.retire machine 2;
      let hit =
        match s.region with
        | Some r -> Region.contains r ~addr ~size
        | None -> false
      in
      Machine.Model.branch machine
        ~pc:(Hashtbl.hash ("rcache", s.vaddr))
        ~taken:hit;
      if hit then s.region else probe (i + 1)
    end
  in
  match probe 0 with
  | Some r ->
    t.hits <- t.hits + 1;
    { Structure.matched = Some r; scanned = 1 }
  | None ->
    t.misses <- t.misses + 1;
    let out = Linear_table.lookup t.inner ~addr ~size in
    (* a match at position i scanned i + 1 entries *)
    (match out.Structure.matched with
    | Some r when t.cacheable.(out.Structure.scanned - 1) ->
      let s = t.slots.(t.next_fill) in
      s.region <- Some r;
      Kernel.write t.kernel ~addr:s.vaddr ~size:8 r.Region.base;
      t.next_fill <- (t.next_fill + 1) mod Array.length t.slots
    | _ -> ());
    out

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
