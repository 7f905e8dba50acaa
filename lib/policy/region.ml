(** Memory regions — the unit of CARAT KOP policy (§3.1): "each entry
    stores a region's lower bound, length, and protection flags". *)

let prot_read = Passes.Guard_injection.flag_read
let prot_write = Passes.Guard_injection.flag_write
let prot_rw = prot_read lor prot_write

type t = { base : int; len : int; prot : int; tag : string }

let v ?(tag = "") ~base ~len ~prot () =
  if len <= 0 then invalid_arg "Region.v: length must be positive";
  if base < 0 then invalid_arg "Region.v: base must be non-negative";
  { base; len; prot; tag }

let limit r = r.base + r.len

(** Does [r] fully contain the byte range [addr, addr+size)? Never for a
    negative [size], nor for a range or a region that ends past
    [max_int]: such an end wraps negative, so it is refused before any
    sum is formed. *)
let contains r ~addr ~size =
  let l = limit r in
  size >= 0 && addr >= r.base && l >= 0 && addr <= l - size

(** Does [r] permit an access with the given flag bitmap? *)
let permits r ~flags = flags land r.prot = flags

let overlaps a b = a.base < limit b && b.base < limit a

(** The reference verdict on a policy in table order: the first region
    that contains the access decides, [default_allow] when none does.
    Every fast tier must agree with it; the paranoid verifier counts an
    allow it would deny as a stale allow. Host-side, no simulated cost. *)
let rec first_match_allows rs ~default_allow ~addr ~size ~flags =
  match rs with
  | [] -> default_allow
  | r :: rest ->
    if contains r ~addr ~size then permits r ~flags
    else first_match_allows rest ~default_allow ~addr ~size ~flags

let prot_to_string prot =
  let r = if prot land prot_read <> 0 then "r" else "-" in
  let w = if prot land prot_write <> 0 then "w" else "-" in
  r ^ w

let to_string r =
  Printf.sprintf "[0x%x, 0x%x) %s%s" r.base (limit r) (prot_to_string r.prot)
    (if r.tag = "" then "" else " (" ^ r.tag ^ ")")

(* canonical policies used throughout the evaluation *)

(** The paper's two-region policy (§4.2 footnote): kernel addresses (the
    "high half") are allowed read-write, user addresses (the "low half")
    are disallowed. The deny rule is explicit (prot = 0) so that both
    halves match a region and the default action is never consulted. *)
let kernel_only =
  [
    v ~tag:"kernel-high-half" ~base:Kernel.Layout.kernel_base
      ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:prot_rw ();
    v ~tag:"user-low-half" ~base:0x0 ~len:Kernel.Layout.kernel_base ~prot:0 ();
  ]

(** Synthetic padding regions for the region-count sweep (Fig 5): [n]
    distinct non-matching regions placed in an unused part of the user
    half, scanned (and rejected) before the real rules. *)
let padding n =
  List.init n (fun i ->
      v
        ~tag:("pad-" ^ string_of_int i)
        ~base:(0x2000_0000 + (i * 0x10000))
        ~len:0x1000 ~prot:prot_rw ())

(** [n]-region policy with the same semantics as {!kernel_only}: (n-2)
    padding regions followed by the two real rules, so a conforming access
    pays a full scan — the worst case the paper's linear table can hit. *)
let kernel_only_padded n =
  if n < 2 then invalid_arg "kernel_only_padded: need at least 2 regions";
  padding (n - 2) @ kernel_only
