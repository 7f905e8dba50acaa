(** Textual policy files for the command-line tools — the operator-facing
    "firewall rules" format that [policy-manager] reads and writes.

    Format, one rule per line, first match wins:
    {v
    # comment
    domain e1000e
    default deny
    region 0x1000000000000000 0x2fffffffffffffff rw kernel-high-half
    region 0x0 0x1000000000000000 -- user-low-half
    v}
    The third field is the permission set: [rw], [r-], [-w] or [--]. The
    trailing tag is optional. The optional [domain] directive names the
    policy domain this file belongs to (multi-tenant installs); an empty
    domain is the root policy.

    Malformed input raises {!Parse_error} and nothing else. *)

exception Parse_error of int * string

type t = {
  default_allow : bool;
  mode : Policy_module.on_deny;
  domain : string;  (** "" = the root (single-tenant) policy *)
  regions : Region.t list;
}

let prot_of_string lineno = function
  | "rw" -> Region.prot_rw
  | "r-" | "r" -> Region.prot_read
  | "-w" | "w" -> Region.prot_write
  | "--" | "-" -> 0
  | s -> raise (Parse_error (lineno, "bad permission " ^ s))

let prot_to_string prot =
  (if prot land Region.prot_read <> 0 then "r" else "-")
  ^ if prot land Region.prot_write <> 0 then "w" else "-"

let parse_int lineno s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> raise (Parse_error (lineno, "bad number " ^ s))

(** A region rule, refused where the add ioctl refuses it: a negative
    base or non-positive length ([-EINVAL]; a hex literal past [max_int]
    reads as a negative base) and an end past the address space
    ([-ERANGE]). [lineno] is 0 for a rule given on a command line. *)
let region lineno ~base ~len ~prot ~tag =
  let fail msg = raise (Parse_error (lineno, msg)) in
  if base < 0 then fail "negative base";
  if len <= 0 then fail "non-positive length";
  if len > max_int - base then fail "region ends past the address space";
  Region.v ~tag ~base ~len ~prot:(prot_of_string lineno prot) ()

let parse (text : string) : t =
  let default_allow = ref false in
  let mode = ref Policy_module.Panic in
  let domain = ref "" in
  let regions = ref [] in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let words =
        List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))
      in
      match words with
      | [] -> ()
      | [ "default"; "allow" ] -> default_allow := true
      | [ "default"; "deny" ] -> default_allow := false
      | [ "mode"; m ] -> (
        match Policy_module.on_deny_of_string m with
        | Some v -> mode := v
        | None -> raise (Parse_error (lineno, "bad enforcement mode " ^ m)))
      | [ "domain"; d ] -> domain := d
      | "region" :: base :: len :: prot :: rest ->
        let base = parse_int lineno base in
        let len = parse_int lineno len in
        let tag = String.concat " " rest in
        regions := region lineno ~base ~len ~prot ~tag :: !regions
      | w :: _ -> raise (Parse_error (lineno, "unknown directive " ^ w)))
    (String.split_on_char '\n' text);
  {
    default_allow = !default_allow;
    mode = !mode;
    domain = !domain;
    regions = List.rev !regions;
  }

let to_string (t : t) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# CARAT KOP policy (first match wins)\n";
  if t.domain <> "" then
    Buffer.add_string buf (Printf.sprintf "domain %s\n" t.domain);
  Buffer.add_string buf
    (if t.default_allow then "default allow\n" else "default deny\n");
  Buffer.add_string buf
    (Printf.sprintf "mode %s\n" (Policy_module.on_deny_to_string t.mode));
  List.iter
    (fun (r : Region.t) ->
      Buffer.add_string buf
        (Printf.sprintf "region 0x%x 0x%x %s%s\n" r.Region.base r.Region.len
           (prot_to_string r.Region.prot)
           (if r.Region.tag = "" then "" else " " ^ r.Region.tag)))
    t.regions;
  Buffer.contents buf

let load path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse text

let save path t =
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc

(** The canonical two-region policy as a file. *)
let kernel_only : t =
  {
    default_allow = false;
    mode = Policy_module.Panic;
    domain = "";
    regions = Region.kernel_only;
  }

(** Apply a policy file to a live engine (regions and default only; the
    enforcement mode lives on the policy module — see {!apply_module}). *)
let apply (t : t) (engine : Engine.t) =
  engine.Engine.default_allow <- t.default_allow;
  Engine.set_policy engine t.regions

(** Apply a policy file to a live policy module: regions, default action
    and enforcement mode. *)
let apply_module (t : t) (pm : Policy_module.t) =
  apply t (Policy_module.engine pm);
  Policy_module.set_on_deny pm t.mode
