(** Red-black interval tree keyed by region base — the structure the
    paper's §3.1 measures its choice against: "a table was chosen in
    order to minimize pointer chasing, lending speedup over other
    implementations like the Linux kernel's red-black tree (even though
    the tree would have O(log n) time complexity)".

    Nodes live in kernel memory (48 bytes: region triple + left/right/
    color), so lookups pay genuine pointer chasing and data-dependent
    branches against the cache and predictor models — which is precisely
    the effect the paper's sentence claims. Overlapping regions cannot be
    represented (same trade-off as the sorted table). *)

type color = Red | Black

type node = {
  mutable region : Region.t;
  mutable left : node option;
  mutable right : node option;
  mutable color : color;
  vaddr : int;
}

type t = {
  kernel : Kernel.t;
  mutable root : node option;
  mutable n : int;
  capacity : int;
}

let node_size = 48

let create kernel ~capacity = { kernel; root = None; n = 0; capacity }

let touch_node t (n : node) =
  ignore (Kernel.read t.kernel ~addr:n.vaddr ~size:8);
  Machine.Model.retire (Kernel.machine t.kernel) 2

let write_node t (n : node) =
  Kernel.write t.kernel ~addr:(n.vaddr + 24) ~size:8
    (match n.left with Some l -> l.vaddr | None -> 0);
  Kernel.write t.kernel ~addr:(n.vaddr + 32) ~size:8
    (match n.right with Some r -> r.vaddr | None -> 0);
  Kernel.write t.kernel ~addr:(n.vaddr + 40) ~size:8
    (match n.color with Red -> 1 | Black -> 0)

let is_red = function Some { color = Red; _ } -> true | _ -> false

(* left-leaning red-black insertion (Sedgewick) *)
let rotate_left t h =
  match h.right with
  | None -> h
  | Some x ->
    h.right <- x.left;
    x.left <- Some h;
    x.color <- h.color;
    h.color <- Red;
    write_node t h;
    write_node t x;
    x

let rotate_right t h =
  match h.left with
  | None -> h
  | Some x ->
    h.left <- x.right;
    x.right <- Some h;
    x.color <- h.color;
    h.color <- Red;
    write_node t h;
    write_node t x;
    x

let flip_colors t h =
  h.color <- Red;
  (match h.left with Some l -> l.color <- Black | None -> ());
  (match h.right with Some r -> r.color <- Black | None -> ());
  write_node t h

let fixup t h =
  let h = if is_red h.right && not (is_red h.left) then rotate_left t h else h in
  let h =
    if is_red h.left && (match h.left with Some l -> is_red l.left | None -> false)
    then rotate_right t h
    else h
  in
  if is_red h.left && is_red h.right then flip_colors t h;
  h

exception Overlap of Region.t

let rec insert_node t (cur : node option) (nw : node) : node =
  match cur with
  | None -> nw
  | Some c ->
    if Region.overlaps c.region nw.region then raise (Overlap c.region);
    if nw.region.Region.base < c.region.Region.base then
      c.left <- Some (insert_node t c.left nw)
    else c.right <- Some (insert_node t c.right nw);
    write_node t c;
    fixup t c

let add t r =
  if t.n >= t.capacity then Error (Structure.capacity_error t.capacity)
  else begin
    let vaddr = Kernel.kmalloc t.kernel ~size:node_size in
    Kernel.write t.kernel ~addr:vaddr ~size:8 r.Region.base;
    Kernel.write t.kernel ~addr:(vaddr + 8) ~size:8 r.Region.len;
    Kernel.write t.kernel ~addr:(vaddr + 16) ~size:8 r.Region.prot;
    let nw = { region = r; left = None; right = None; color = Red; vaddr } in
    match insert_node t t.root nw with
    | root ->
      root.color <- Black;
      t.root <- Some root;
      t.n <- t.n + 1;
      Ok ()
    | exception Overlap other ->
      Error
        (Printf.sprintf "rbtree cannot hold overlapping regions (%s vs %s)"
           (Region.to_string r) (Region.to_string other))
  end

let rec regions_of = function
  | None -> []
  | Some n -> regions_of n.left @ [ n.region ] @ regions_of n.right

let regions t = regions_of t.root
let count t = t.n

let lookup t ~addr ~size : Structure.outcome =
  let scanned = ref 0 in
  let machine = Kernel.machine t.kernel in
  let rec descend (cur : node option) =
    match cur with
    | None -> None
    | Some c ->
      incr scanned;
      touch_node t c;
      if Region.contains c.region ~addr ~size then Some c.region
      else begin
        let go_left = addr < c.region.Region.base in
        (* data-dependent descent direction *)
        Machine.Model.branch machine
          ~pc:(Hashtbl.hash ("rb", c.vaddr land 0xff))
          ~taken:go_left;
        if go_left then descend c.left else descend c.right
      end
  in
  match descend t.root with
  | Some r -> { Structure.matched = Some r; scanned = !scanned }
  | None -> { Structure.matched = None; scanned = !scanned }

(* black-height validation for tests: every root-to-leaf path has the
   same number of black nodes and no red node has a red child *)
let validate t : (unit, string) result =
  let rec go (cur : node option) : (int, string) result =
    match cur with
    | None -> Ok 1
    | Some c -> (
      if c.color = Red && (is_red c.left || is_red c.right) then
        Error "red node with red child"
      else
        match (go c.left, go c.right) with
        | Ok a, Ok b when a = b ->
          Ok (a + if c.color = Black then 1 else 0)
        | Ok _, Ok _ -> Error "black-height mismatch"
        | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  match t.root with
  | Some r when r.color = Red -> Error "red root"
  | _ -> (
    match go t.root with Ok _ -> Ok () | Error e -> Error e)
