(** Splay-tree region structure — the paper's suggested popularity-based
    structure (§4.2): "with a large enough number of regions, a
    popularity-based data structure such as a splay tree ... might be able
    to do better than a logarithmic search in the common case".

    Nodes live in kernel memory (40 bytes: base, len, prot, left, right),
    so a lookup is genuine pointer chasing through the cache model; the
    splay step rewrites parent pointers (stores). A hot region settles at
    the root and costs one probe. Overlapping regions are rejected, same
    as the sorted table. *)

type node = {
  mutable region : Region.t;
  mutable left : node option;
  mutable right : node option;
  vaddr : int;
}

type t = {
  kernel : Kernel.t;
  mutable root : node option;
  mutable n : int;
  capacity : int;
}

let node_size = 40

let create kernel ~capacity = { kernel; root = None; n = 0; capacity }

let alloc_node t r =
  let vaddr = Kernel.kmalloc t.kernel ~size:node_size in
  { region = r; left = None; right = None; vaddr }

let touch_node t (n : node) =
  ignore (Kernel.read t.kernel ~addr:n.vaddr ~size:8);
  Machine.Model.retire (Kernel.machine t.kernel) 2

let write_node t (n : node) =
  Kernel.write t.kernel ~addr:(n.vaddr + 24) ~size:8
    (match n.left with Some l -> l.vaddr | None -> 0);
  Kernel.write t.kernel ~addr:(n.vaddr + 32) ~size:8
    (match n.right with Some r -> r.vaddr | None -> 0)

(** Top-down splay by key (region base); returns the new root. Also
    charges the pointer-chasing and restructuring costs. *)
let splay t key (root : node option) : node option =
  match root with
  | None -> None
  | Some root ->
    (* simple recursive bottom-up splay; costs charged per visited node *)
    let rec go (x : node) : node =
      touch_node t x;
      let machine = Kernel.machine t.kernel in
      Machine.Model.branch machine
        ~pc:(Hashtbl.hash ("splay", x.vaddr land 0xff))
        ~taken:(key < x.region.Region.base);
      if key < x.region.Region.base then
        match x.left with
        | None -> x
        | Some l ->
          let l = go l in
          (* rotate right *)
          x.left <- l.right;
          l.right <- Some x;
          write_node t x;
          write_node t l;
          l
      else if key > x.region.Region.base then
        match x.right with
        | None -> x
        | Some r ->
          let r = go r in
          (* rotate left *)
          x.right <- r.left;
          r.left <- Some x;
          write_node t x;
          write_node t r;
          r
      else x
    in
    Some (go root)

let rec insert_no_splay (t : t) (cur : node option) (n : node) :
    (node, string) result =
  match cur with
  | None -> Ok n
  | Some c ->
    if Region.overlaps c.region n.region then
      Error
        (Printf.sprintf "splay tree cannot hold overlapping regions (%s vs %s)"
           (Region.to_string n.region)
           (Region.to_string c.region))
    else if n.region.Region.base < c.region.Region.base then (
      match insert_no_splay t c.left n with
      | Ok l ->
        c.left <- Some l;
        write_node t c;
        Ok c
      | Error _ as e -> e)
    else (
      match insert_no_splay t c.right n with
      | Ok r ->
        c.right <- Some r;
        write_node t c;
        Ok c
      | Error _ as e -> e)

let add t r =
  if t.n >= t.capacity then Error (Structure.capacity_error t.capacity)
  else begin
    let n = alloc_node t r in
    match insert_no_splay t t.root n with
    | Ok root ->
      t.root <- Some root;
      t.n <- t.n + 1;
      Ok ()
    | Error _ as e -> e
  end

let lookup t ~addr ~size : Structure.outcome =
  (* find the containing region (regions are disjoint here), stopping as
     soon as it is found, then splay it to the root so hot regions answer
     in one probe *)
  let scanned = ref 0 in
  let rec descend (cur : node option) (best : node option) =
    match cur with
    | None -> best
    | Some c ->
      incr scanned;
      touch_node t c;
      if Region.contains c.region ~addr ~size then Some c
      else if addr < c.region.Region.base then descend c.left best
      else descend c.right (Some c)
  in
  let best = descend t.root None in
  let key =
    match best with Some n -> n.region.Region.base | None -> addr
  in
  t.root <- splay t key t.root;
  match best with
  | Some n when Region.contains n.region ~addr ~size ->
    { Structure.matched = Some n.region; scanned = !scanned }
  | _ -> { Structure.matched = None; scanned = !scanned }
