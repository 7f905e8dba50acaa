(** The v2 guard-completeness certificate wire format, written by
    {!Certify} and read by {!Cert_check}.

    {v
    v2;digest=<hex>;guard=<symbol>;exempt=<bool>;domain=<name or empty>;<fn>;<fn>...
    fn        = <name>|<guarantee> <guarantee>...|<witness> <witness>...
    guarantee = <base>/<lo>/<hi>/<flags>/<origins>
    witness   = e<origins>/<base>                          frame-local (alloca)
              | g<origins>/<base>/<lo>/<hi>/<flags>[/<h>]  guarded; h = loop header
    origins   = <origin>,<origin>...
    origin    = <iid>           a guard call
              | <iid>:<k>       a call, through the callee's guarantee k
    base      = @sym | <int> | <register> | [<base>,<base>,<scale>]
    v}

    Fields are read by position, never by prefix search: a function
    named [domain] cannot pose as the header's domain field. There is one
    section per module function, in module order, and one witness per
    reachable load/store, in block order. Instruction ids ([iid]) count
    a function's instructions in block order; [h] is a block index. *)

(** Symbolic addresses over registers (their value where they are read),
    symbols and immediates. *)
type vexp = V_imm of int | V_sym of string | V_reg of string | V_gep of vexp * vexp * int

let rec leaves acc = function
  | V_reg r -> r :: acc
  | V_gep (b, i, _) -> leaves (leaves acc b) i
  | V_imm _ | V_sym _ -> acc

(** (core, byte offset): constant-index geps peeled off the top. *)
let rec base_off = function
  | V_gep (b, V_imm n, s) ->
    let c, o = base_off b in
    (c, o + (n * s))
  | e -> (e, 0)

(* [a + b], or [None] when it overflows *)
let add a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

(** The bytes [\[lo*scale + off, hi*scale + off + size)] that accesses of
    [size] bytes at [i*scale + off] span for [i] in [\[lo, hi\]] ([scale >
    0]; by default the one access at [off]), or [None] when computing
    them overflows: a wrapped end would make any interval look covered. *)
let span ?(lo = 0) ?(hi = 0) ?(scale = 1) ~off size =
  let mul i = if i > max_int / scale || i < min_int / scale then None else Some (i * scale) in
  match (Option.bind (mul lo) (add off), Option.bind (mul hi) (add off)) with
  | Some l, Some h -> Option.map (fun h -> (l, h)) (add h size)
  | _ -> None

type origin = O_guard of int | O_call of int * int  (** call id, callee guarantee index *)

let origin_id = function O_guard i | O_call (i, _) -> i

type guarantee = {
  g_base : vexp;
  g_lo : int;
  g_hi : int;
  g_flags : int;
  g_origins : origin list;
}

type witness =
  | W_exempt of origin list * vexp
  | W_guard of {
      origins : origin list;
      base : vexp;
      lo : int;
      hi : int;
      flags : int;
      header : int option;
    }

(* -- printing ------------------------------------------------------- *)

(** Does [e] print to text {!parse_vexp} reads back as [e]? Names must
    avoid the format's separators, and a register must not look like a
    symbol, a number or a gep. *)
let rec encodable e =
  let clean s = s <> "" && not (String.exists (fun c -> String.contains ",[]/ ;|:" c) s) in
  match e with
  | V_imm _ -> true
  | V_sym s -> clean s
  | V_reg r -> clean r && not (String.contains "@-0123456789" r.[0])
  | V_gep (b, i, _) -> encodable b && encodable i

(* the text is built in one buffer, without Printf: a certificate
   carries a witness per access *)
let rec add_vexp b = function
  | V_imm n -> Buffer.add_string b (string_of_int n)
  | V_sym s ->
    Buffer.add_char b '@';
    Buffer.add_string b s
  | V_reg r -> Buffer.add_string b r
  | V_gep (x, i, s) ->
    Buffer.add_char b '[';
    add_vexp b x;
    Buffer.add_char b ',';
    add_vexp b i;
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int s);
    Buffer.add_char b ']'

let add_ints b l =
  List.iter
    (fun n ->
      Buffer.add_char b '/';
      Buffer.add_string b (string_of_int n))
    l

let add_origins b os =
  List.iteri
    (fun k o ->
      if k > 0 then Buffer.add_char b ',';
      match o with
      | O_guard i -> Buffer.add_string b (string_of_int i)
      | O_call (i, g) ->
        Buffer.add_string b (string_of_int i);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int g))
    os

let add_guarantee b g =
  add_vexp b g.g_base;
  add_ints b [ g.g_lo; g.g_hi; g.g_flags ];
  Buffer.add_char b '/';
  add_origins b g.g_origins

let add_witness b = function
  | W_exempt (os, base) ->
    Buffer.add_char b 'e';
    add_origins b os;
    Buffer.add_char b '/';
    add_vexp b base
  | W_guard { origins; base; lo; hi; flags; header } ->
    Buffer.add_char b 'g';
    add_origins b origins;
    Buffer.add_char b '/';
    add_vexp b base;
    add_ints b (lo :: hi :: flags :: Option.to_list header)

let render ~digest ~guard ~exempt ~domain sections =
  let b = Buffer.create 4096 in
  List.iter (Buffer.add_string b)
    [ "v2;digest="; digest; ";guard="; guard; ";exempt="; string_of_bool exempt; ";domain=";
      Option.value domain ~default:"" ];
  List.iter
    (fun (name, gs, ws) ->
      Buffer.add_char b ';';
      Buffer.add_string b name;
      Buffer.add_char b '|';
      List.iteri (fun k g -> if k > 0 then Buffer.add_char b ' '; add_guarantee b g) gs;
      Buffer.add_char b '|';
      List.iteri (fun k w -> if k > 0 then Buffer.add_char b ' '; add_witness b w) ws)
    sections;
  Buffer.contents b

(* -- parsing: total, never raises ----------------------------------- *)

(* canonical decimal only: "+1", "01", "-0" or "0x1" never parse *)
let int_of s =
  let n = String.length s in
  let st = if n > 0 && s.[0] = '-' then 1 else 0 in
  let rec digits i acc =
    if i = n then Some (if st = 1 then -acc else acc)
    else
      match s.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> None
  in
  if n = st || (s.[st] = '0' && (n > st + 1 || st = 1)) then None
  else if n - st > 18 then
    match int_of_string_opt s with Some v when string_of_int v = s -> Some v | _ -> None
  else digits st 0
let items s = if s = "" then [] else String.split_on_char ' ' s

let parse_vexp s =
  let n = String.length s and pos = ref 0 in
  let word () =
    let st = !pos in
    while !pos < n && s.[!pos] <> ',' && s.[!pos] <> ']' do incr pos done;
    String.sub s st (!pos - st)
  in
  let eat c = !pos < n && s.[!pos] = c && (incr pos; true) in
  let rec go depth =
    if depth > 16 || !pos >= n then None
    else
      match s.[!pos] with
      | '[' -> (
        incr pos;
        let b = go (depth + 1) in
        let i = if eat ',' then go (depth + 1) else None in
        match (b, i, if i <> None && eat ',' then int_of (word ()) else None) with
        | Some b, Some i, Some sc when eat ']' -> Some (V_gep (b, i, sc))
        | _ -> None)
      | '@' -> (
        incr pos;
        match word () with "" -> None | w -> Some (V_sym w))
      | '-' | '0' .. '9' -> Option.map (fun v -> V_imm v) (int_of (word ()))
      | _ -> ( match word () with "" -> None | w -> Some (V_reg w))
  in
  match go 0 with Some v when !pos = n -> Some v | _ -> None

let parse_origins s =
  let one o =
    match List.map int_of (String.split_on_char ':' o) with
    | [ Some i ] -> Some (O_guard i)
    | [ Some i; Some k ] -> Some (O_call (i, k))
    | _ -> None
  in
  let os = List.map one (String.split_on_char ',' s) in
  if List.for_all Option.is_some os then Some (List.map Option.get os) else None

let parse_guarantee s =
  match String.split_on_char '/' s with
  | [ b; lo; hi; fl; os ] -> (
    match (parse_vexp b, int_of lo, int_of hi, int_of fl, parse_origins os) with
    | Some g_base, Some g_lo, Some g_hi, Some g_flags, Some g_origins ->
      Some { g_base; g_lo; g_hi; g_flags; g_origins }
    | _ -> None)
  | _ -> None

let parse_witness w =
  let fields () = String.split_on_char '/' (String.sub w 1 (String.length w - 1)) in
  if w = "" then None
  else
    match (w.[0], fields ()) with
    | 'e', [ os; b ] -> (
      match (parse_origins os, parse_vexp b) with
      | Some os, Some b -> Some (W_exempt (os, b))
      | _ -> None)
    | 'g', os :: b :: lo :: hi :: fl :: hdr -> (
      let hdr = List.map int_of hdr in
      match (parse_origins os, parse_vexp b, int_of lo, int_of hi, int_of fl, hdr) with
      | Some origins, Some base, Some lo, Some hi, Some flags, ([] | [ Some _ ]) ->
        let header = match hdr with [ h ] -> h | _ -> None in
        Some (W_guard { origins; base; lo; hi; flags; header })
      | _ -> None)
    | _ -> None

(** The header fields (digest, guard symbol, exempt flag, domain) and
    the raw function sections. *)
let parse_header cert =
  let field key v =
    let k = String.length key in
    if String.length v >= k && String.sub v 0 k = key then
      Some (String.sub v k (String.length v - k))
    else None
  in
  match String.split_on_char ';' cert with
  | "v2" :: d :: g :: x :: dom :: sections -> (
    match (field "digest=" d, field "guard=" g, field "exempt=" x, field "domain=" dom) with
    | Some d, Some g, Some x, Some dom ->
      Some (d, g, x, (if dom = "" then None else Some dom), sections)
    | _ -> None)
  | _ -> None

(** A section's name, its guarantees, and its still-unparsed witnesses. *)
let parse_section s =
  match String.split_on_char '|' s with
  | [ name; gs; ws ] ->
    let gs = List.map parse_guarantee (items gs) in
    if List.for_all Option.is_some gs then Some (name, List.map Option.get gs, items ws)
    else None
  | _ -> None
