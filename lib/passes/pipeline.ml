(** Canonical pass pipelines.

    [kop_default] is the paper's compiler: attest, inject a guard before
    every load/store with no optimization, certify, sign.

    [kop ~opt] adds the guard optimizations the paper deliberately omits:
    at {!O_basic} the CARAT-CAKE-style redundant-guard elimination and
    loop-invariant hoisting, at {!O_aggressive} also the certified
    optimizer.

    [baseline_sign] only signs — the untransformed module for A/B runs.

    The guard-completeness certifier lives one library above this one
    ([Analysis.Certify]); it registers itself through {!set_certifier}
    at module-initialization time, and every kop pipeline runs it right
    before signing so the certificate ends up under the signature. The
    certified guard optimizer ([Analysis.Optimize]) registers itself
    the same way through {!set_optimizer} and runs only at
    {!O_aggressive}. *)

let default_key = "kop-vendor-key"
let default_signer = "kop-ocaml"

(** Guard-optimization levels, the [--opt] knob: [O_none] is the
    paper's unoptimized compiler, [O_basic] the local CARAT-CAKE-style
    elimination + hoisting, [O_aggressive] adds the certificate-gated
    optimizer (coalescing, loop hoist-widening, interprocedural
    elimination) when one is registered. *)
type opt_level = O_none | O_basic | O_aggressive

let opt_level_to_string = function
  | O_none -> "none"
  | O_basic -> "basic"
  | O_aggressive -> "aggressive"

let opt_level_of_string = function
  | "none" | "0" -> Some O_none
  | "basic" | "1" -> Some O_basic
  | "aggressive" | "2" -> Some O_aggressive
  | _ -> None

let all_opt_levels = [ O_none; O_basic; O_aggressive ]

(* §5 extensions, off by default to stay faithful to the paper's
   prototype: intrinsic guarding and indirect-call (CFI) guarding *)
let extension_passes ~guard_intrinsics ~guard_cfi =
  (if guard_intrinsics then [ Intrinsic_guard.pass () ] else [])
  @ if guard_cfi then [ Cfi_guard.pass () ] else []

(* the certifier pass constructor, registered by Analysis.Certify; kept
   as a ref because the analysis library depends on this one *)
let certifier : (unit -> Pass.t) option ref = ref None
let set_certifier mk = certifier := Some mk
let certify_passes () = match !certifier with Some mk -> [ mk () ] | None -> []

(* the certified guard optimizer, registered the same way by
   Analysis.Optimize; aggressive pipelines degrade to basic when no
   optimizer is linked in *)
let optimizer : (unit -> Pass.t) option ref = ref None
let set_optimizer mk = optimizer := Some mk
let optimizer_passes () = match !optimizer with Some mk -> [ mk () ] | None -> []

(* in strict mode the attestation verdict must hold on the *final*
   module — after the CFI extension had its chance to cover indirect
   calls — so the strict scan runs as a late re-check *)
let strict_recheck ~strict =
  if strict then [ Attest.pass ~strict:true () ] else []

(* the local CARAT-CAKE-style pair every optimizing level starts with *)
let local_opt_passes () = [ Guard_elim.pass (); Guard_hoist.pass () ]

(** The passes that run before the certified optimizer: dead-code
    elimination, attestation, injection and, from [O_basic] up, the
    local pair. [exempt_stack] is the injection's one option (see
    {!Guard_injection.run}). *)
let front_passes ?exempt_stack ~opt () =
  [ Dce.pass (); Attest.pass (); Guard_injection.pass ?exempt_stack () ]
  @ match opt with O_none -> [] | O_basic | O_aggressive -> local_opt_passes ()

(** The kop pipeline at a chosen optimization level. *)
let kop ?(key = default_key) ?(signer = default_signer) ?exempt_stack
    ?(guard_intrinsics = false) ?(guard_cfi = false) ?(strict = false)
    ?(opt = O_none) () =
  front_passes ?exempt_stack ~opt ()
  @ (match opt with O_aggressive -> optimizer_passes () | _ -> [])
  @ extension_passes ~guard_intrinsics ~guard_cfi
  @ strict_recheck ~strict @ certify_passes ()
  @ [ Signing.pass ~key ~signer () ]

let kop_default ?key ?signer ?exempt_stack ?guard_intrinsics ?guard_cfi ?strict () =
  kop ?key ?signer ?exempt_stack ?guard_intrinsics ?guard_cfi ?strict ~opt:O_none ()

(** Sign without transforming: used for baseline modules so that the
    loader accepts them in permissive mode while A/B tests can still
    detect that no guarding was asserted. *)
let baseline_sign ?(key = default_key) ?(signer = default_signer) () =
  [ Dce.pass (); Signing.pass ~key ~signer () ]

(** Compile (transform + sign) a module in place, returning the pass
    remarks. This is the "wrapper script around clang" entry point.
    [opt] selects the optimization level (default [O_none]). *)
let compile ?opt ?key ?signer ?exempt_stack ?guard_intrinsics ?guard_cfi ?strict m =
  let pipeline =
    kop ?key ?signer ?exempt_stack ?guard_intrinsics ?guard_cfi ?strict ?opt ()
  in
  Pass.run_pipeline_checked pipeline m

(** Re-optimize an already compiled (guarded) module in place: run the
    requested optimization tier, then re-certify and re-sign so the
    loader's checks hold on the transformed body. Used by the loader
    CLI's [--opt] to upgrade a vendor-shipped module at insertion time;
    a no-op (and no re-signing) at [O_none]. *)
let reoptimize ?(key = default_key) ?(signer = default_signer) ~opt m =
  match opt with
  | O_none -> []
  | O_basic | O_aggressive ->
    let ps =
      local_opt_passes ()
      @ (match opt with O_aggressive -> optimizer_passes () | _ -> [])
      @ certify_passes ()
      @ [ Signing.pass ~key ~signer () ]
    in
    Pass.run_pipeline_checked ps m
