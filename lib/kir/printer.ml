(** Canonical textual form of KIR modules.

    The printed form is stable and deterministic: the signing pass hashes
    it, and [Parser] reads it back (round-trip is property-tested). *)

open Types

let string_of_binop = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Srem -> "srem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"

let string_of_cond = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle"
  | Sgt -> "sgt" | Sge -> "sge" | Ult -> "ult" | Ule -> "ule"
  | Ugt -> "ugt" | Uge -> "uge"

(* [s] with quotes, backslashes and non-printable bytes as [\hh] escapes *)
let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\22"
      | '\\' -> Buffer.add_string buf "\\5c"
      | c when Char.code c >= 32 && Char.code c < 127 -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "\\%02x" (Char.code c)))
    s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let rec go i =
    if i < n then
      (* a backslash must be followed by exactly two hex digits; anything
         else (malformed or truncated input) is kept literally — the
         function is total so the parser can reject bad input with a
         proper error instead of crashing *)
      if i + 2 < n && s.[i] = '\\' && is_hex s.[i + 1] && is_hex s.[i + 2]
      then begin
        let code = int_of_string ("0x" ^ String.sub s (i + 1) 2) in
        Buffer.add_char buf (Char.chr code);
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

(* Each printer below writes straight into the caller's buffer: the
   module body is printed for every signature and certificate check, so
   it builds no string per instruction. *)

let add = Buffer.add_string
let add_int buf n = add buf (string_of_int n)

let add_value buf = function
  | Reg r -> add buf r
  | Imm n -> add_int buf n
  | Sym s ->
    Buffer.add_char buf '@';
    add buf s

(* [a, b] *)
let add_pair buf a b =
  add_value buf a;
  add buf ", ";
  add_value buf b

let rec add_args buf = function
  | [] -> ()
  | [ v ] -> add_value buf v
  | v :: rest ->
    add_value buf v;
    add buf ", ";
    add_args buf rest

(* [dst = op ] *)
let add_def buf dst op =
  add buf dst;
  add buf " = ";
  add buf op

(* [[dst = ]op] *)
let add_call_head buf dst op =
  match dst with Some d -> add_def buf d op | None -> add buf op

let add_call_args buf args =
  Buffer.add_char buf '(';
  add_args buf args;
  Buffer.add_char buf ')'

let add_instr buf = function
  | Binop { dst; op; ty; a; b } ->
    add_def buf dst (string_of_binop op);
    Buffer.add_char buf ' ';
    add buf (string_of_ty ty);
    Buffer.add_char buf ' ';
    add_pair buf a b
  | Icmp { dst; cond; ty; a; b } ->
    add_def buf dst "icmp ";
    add buf (string_of_cond cond);
    Buffer.add_char buf ' ';
    add buf (string_of_ty ty);
    Buffer.add_char buf ' ';
    add_pair buf a b
  | Load { dst; ty; addr } ->
    add_def buf dst "load ";
    add buf (string_of_ty ty);
    add buf ", ";
    add_value buf addr
  | Store { ty; v; addr } ->
    add buf "store ";
    add buf (string_of_ty ty);
    Buffer.add_char buf ' ';
    add_pair buf v addr
  | Alloca { dst; size } ->
    add_def buf dst "alloca ";
    add_int buf size
  | Gep { dst; base; idx; scale } ->
    add_def buf dst "gep ";
    add_pair buf base idx;
    add buf ", ";
    add_int buf scale
  | Mov { dst; ty; src } ->
    add_def buf dst "mov ";
    add buf (string_of_ty ty);
    Buffer.add_char buf ' ';
    add_value buf src
  | Call { dst; callee; args } ->
    add_call_head buf dst "call @";
    add buf callee;
    add_call_args buf args
  | Callind { dst; fn; args } ->
    add_call_head buf dst "callind ";
    add_value buf fn;
    add_call_args buf args
  | Select { dst; cond; if_true; if_false } ->
    add_def buf dst "select ";
    add_value buf cond;
    add buf ", ";
    add_pair buf if_true if_false
  | Inline_asm s ->
    add buf "asm \"";
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Intrinsic { dst; iname; args } ->
    add_call_head buf dst "intrinsic ";
    add buf iname;
    add_call_args buf args

let add_term buf = function
  | Ret None -> add buf "ret"
  | Ret (Some v) ->
    add buf "ret ";
    add_value buf v
  | Br l ->
    add buf "br ";
    add buf l
  | Cond_br { cond; if_true; if_false } ->
    add buf "brc ";
    add_value buf cond;
    add buf ", ";
    add buf if_true;
    add buf ", ";
    add buf if_false
  | Switch { v; cases; default } ->
    add buf "switch ";
    add_value buf v;
    add buf " [";
    List.iteri
      (fun k (n, l) ->
        if k > 0 then add buf ", ";
        add_int buf n;
        add buf ": ";
        add buf l)
      cases;
    add buf "] default ";
    add buf default
  | Unreachable -> add buf "unreachable"

let to_string_with print x =
  let buf = Buffer.create 64 in
  print buf x;
  Buffer.contents buf

let string_of_instr i = to_string_with add_instr i
let string_of_term t = to_string_with add_term t

let pp_block buf blk =
  add buf blk.b_label;
  add buf ":\n";
  List.iter
    (fun i ->
      add buf "  ";
      add_instr buf i;
      Buffer.add_char buf '\n')
    blk.body;
  add buf "  ";
  add_term buf blk.term;
  Buffer.add_char buf '\n'

let pp_func buf f =
  add buf "func @";
  add buf f.f_name;
  Buffer.add_char buf '(';
  List.iteri
    (fun k (r, ty) ->
      if k > 0 then add buf ", ";
      add buf r;
      add buf ": ";
      add buf (string_of_ty ty))
    f.params;
  add buf ") : ";
  add buf (match f.ret_ty with None -> "void" | Some ty -> string_of_ty ty);
  add buf " {\n";
  List.iter (pp_block buf) f.blocks;
  add buf "}\n"

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let pp_global buf g =
  add buf "global @";
  add buf g.g_name;
  add buf (if g.g_writable then " rw " else " ro ");
  add_int buf g.g_size;
  Option.iter
    (fun init ->
      Buffer.add_char buf ' ';
      add_quoted buf init)
    g.g_init;
  Buffer.add_char buf '\n'

(** Print the whole module. [with_meta:false] yields the signable body:
    everything except the metadata section (the signature cannot cover
    itself). *)
let to_string ?(with_meta = true) m =
  let buf = Buffer.create 4096 in
  add buf "module ";
  add_quoted buf m.m_name;
  Buffer.add_char buf '\n';
  if with_meta then
    List.iter
      (fun (k, v) ->
        add buf "meta ";
        add_quoted buf k;
        add buf " = ";
        add_quoted buf v;
        Buffer.add_char buf '\n')
      (List.sort compare m.meta);
  List.iter
    (fun (name, arity) ->
      add buf "extern @";
      add buf name;
      Buffer.add_char buf '/';
      add_int buf arity;
      Buffer.add_char buf '\n')
    m.externs;
  List.iter (pp_global buf) m.globals;
  List.iter (pp_func buf) m.funcs;
  Buffer.contents buf
