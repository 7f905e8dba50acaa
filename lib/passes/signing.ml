(** Code signing of transformed modules (§2: "the compilation process also
    performs cryptographic code signing ... used at load time to prove to
    the kernel that the proper processing has been performed, and by which
    compiler").

    We substitute real cryptography with a keyed FNV-1a construction
    (documented in DESIGN.md): tamper-evidence and provenance are what the
    protocol needs; the kernel's loader recomputes the tag over the
    canonical module body plus the transform metadata, and rejects
    mismatches, unsigned modules, and modules whose metadata claims no
    guarding. *)

open Kir.Types

(* -- keyed hash ---------------------------------------------------- *)

(* FNV-1a offset basis truncated to OCaml's 63-bit native int range *)
let fnv_offset = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

(* FNV-1a is a left fold over the bytes, so hashing a message piece by
   piece equals hashing the pieces joined: nothing here copies the module
   body to hash it. The state runs as an unboxed Int64, which spares the
   tag arithmetic of every multiply; the low 63 bits of a 64-bit product
   are those of the 63-bit one, so the result is the native-int fold's. *)
let fnv_feed h (s : string) =
  let h = ref (Int64.of_int h) and prime = Int64.of_int fnv_prime in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  Int64.to_int !h

let fnv1a64_parts (parts : string list) : int =
  List.fold_left fnv_feed fnv_offset parts land max_int

let fnv1a64 (s : string) : int = fnv_feed fnv_offset s land max_int

(** HMAC-style keyed tag: H(key ^ opad || H(key ^ ipad || msg)), widened
    to 128 bits by hashing with two different seeds; [msg] is the
    concatenation of [parts]. *)
let keyed_tag_parts ~key parts =
  let inner = fnv1a64_parts (key :: "\x36\x36\x36\x36" :: parts) in
  let outer = fnv1a64_parts [ key; "\x5c\x5c\x5c\x5c"; Printf.sprintf "%016x" inner ] in
  let second = fnv1a64_parts ((Printf.sprintf "%016x" outer :: parts) @ [ key ]) in
  Printf.sprintf "%016x%016x" outer second

(* -- signing protocol ---------------------------------------------- *)

let meta_sig = "carat.kop.sig"
let meta_signer = "carat.kop.signer"

(** The transform metadata covered by the signature. Signing the guard
    count and compiler identity is what makes the signature an assertion
    "that the proper processing has been performed, and by which
    compiler". *)
let covered_meta_keys =
  [
    Guard_injection.meta_guarded;
    Guard_injection.meta_guard_count;
    Guard_injection.meta_exempt_stack;
    Guard_injection.meta_opt_level;
    Guard_injection.meta_compiler;
    Attest.meta_noasm;
    Attest.meta_indirect;
    Attest.meta_indirect_uncovered;
    Attest.meta_intrinsics;
    Attest.meta_cert;
    Intrinsic_guard.meta_guarded;
    Intrinsic_guard.meta_count;
    Cfi_guard.meta_guarded;
    Cfi_guard.meta_count;
  ]

(** The signed text in pieces, to be hashed in order: [m]'s meta-free
    body, then one [key=value] line per covered metadata key. [body] is
    that body when the caller has already printed it. *)
let signable_parts ?body (m : modul) : string list =
  let body =
    match body with Some b -> b | None -> Kir.Printer.to_string ~with_meta:false m
  in
  body
  :: List.concat_map
       (fun k -> [ "\n"; k; "="; Option.value (meta_find m k) ~default:"<absent>" ])
       covered_meta_keys

let sign ~key ~signer (m : modul) : string =
  let tag = keyed_tag_parts ~key (signable_parts m) in
  meta_set m meta_sig tag;
  meta_set m meta_signer signer;
  tag

type verify_error =
  | Unsigned
  | Bad_signature of { expected : string; found : string }
  | Not_guarded
  | Not_attested

let verify_error_to_string = function
  | Unsigned -> "module carries no signature"
  | Bad_signature { expected; found } ->
    Printf.sprintf "signature mismatch (expected %s, found %s)" expected found
  | Not_guarded -> "module metadata does not assert guard injection"
  | Not_attested -> "module metadata does not assert inline-asm attestation"

(** Full load-time validation: signature present and correct under [key],
    and the signed metadata asserts both guarding and attestation.
    [body] as for {!signable_parts}. *)
let verify ?body ~key (m : modul) : (unit, verify_error) result =
  match meta_find m meta_sig with
  | None -> Error Unsigned
  | Some found ->
    let expected = keyed_tag_parts ~key (signable_parts ?body m) in
    if not (String.equal expected found) then
      Error (Bad_signature { expected; found })
    else if meta_find m Guard_injection.meta_guarded <> Some "true" then
      Error Not_guarded
    else if meta_find m Attest.meta_noasm <> Some "true" then
      Error Not_attested
    else Ok ()

let pass ~key ~signer () =
  Pass.make "sign" (fun m ->
      let tag = sign ~key ~signer m in
      { Pass.changed = true; remarks = [ ("signature", tag) ] })
