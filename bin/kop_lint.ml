(* kop-lint: static checks for CARAT KOP artifacts.

     kop_lint module FILE.kir     — KIR lints: unguarded accesses,
                                    unreachable blocks, dead/duplicate
                                    guards, indirect calls without a
                                    cfi_guard
     kop_lint policy FILE.kop     — policy-file lints: shadowed regions,
                                    capacity overflow, write-only
                                    protections, domain page-shadow
                                    blind spots
     kop_lint cert FILE.kir       — validate the embedded
                                    guard-completeness certificate of a
                                    compiled module (digest + re-proof)
     kop_lint san FILE.kir        — allocation-lifetime dataflow lints:
                                    double-free, use-after-free,
                                    leak-on-exit, unchecked kmalloc
     kop_lint race                — run the happens-before detector's
                                    fixture suite (clean suites silent,
                                    seeded races flagged)

   Exit codes are uniform across every subcommand: 0 clean (warnings
   allowed), 3 errors found, 1 bad input, 2 usage. Pass --strict to
   promote warnings to errors (exit 3) everywhere. *)

open Cmdliner
open Carat_kop

let with_kir path f =
  try f (Kir.Parser.parse_file path) with
  | Kir.Parser.Parse_error (line, msg) ->
    Printf.eprintf "kop_lint: %s: parse error at line %d: %s\n" path line msg;
    1

let verdict ~strict ~what path errs warns =
  Printf.printf "%s: %d error(s), %d warning(s) [%s]\n" path (List.length errs)
    (List.length warns) what;
  if errs <> [] || (strict && warns <> []) then 3 else 0

let cmd_module path strict =
  with_kir path (fun m ->
      match Kir.Verify.check_module m with
      | (_ :: _) as errs ->
        List.iter
          (fun e ->
            Printf.printf "error[L-verify] %s\n" (Kir.Verify.error_to_string e))
          errs;
        Printf.printf "%s: %d error(s), 0 warning(s) [kir-verify]\n" path
          (List.length errs);
        3
      | [] ->
        let findings = Analysis.Kir_lint.lint m in
        List.iter
          (fun f -> print_endline (Analysis.Kir_lint.finding_to_string f))
          findings;
        verdict ~strict ~what:"kir" path
          (Analysis.Kir_lint.errors findings)
          (Analysis.Kir_lint.warnings findings))

let cmd_policy path strict =
  try
    let t = Policy.Policy_file.load path in
    let findings = Policy.Policy_lint.lint t in
    List.iter
      (fun f -> print_endline (Policy.Policy_lint.finding_to_string f))
      findings;
    verdict ~strict ~what:"policy" path
      (Policy.Policy_lint.errors findings)
      (Policy.Policy_lint.warnings findings)
  with
  | Policy.Policy_file.Parse_error (line, msg) ->
    Printf.eprintf "kop_lint: %s: policy parse error at line %d: %s\n" path
      line msg;
    1
  | Sys_error msg ->
    Printf.eprintf "kop_lint: %s\n" msg;
    1

let cmd_cert path expect_domain strict =
  with_kir path (fun m ->
      match Analysis.Cert_check.validate ?expect_domain m with
      | Ok () ->
        Printf.printf "%s: certificate ok (every witness checked)\n" path;
        (* certificate validation emits no warnings; --strict is accepted
           for exit-code uniformity across subcommands *)
        ignore (strict : bool);
        0
      | Error e ->
        Printf.printf "%s: certificate REJECTED: %s\n" path
          (Analysis.Cert_check.validate_error_to_string e);
        3)

let cmd_san path strict =
  with_kir path (fun m ->
      let findings = Analysis.Alloc_lint.lint m in
      List.iter
        (fun f -> print_endline (Analysis.Kir_lint.finding_to_string f))
        findings;
      verdict ~strict ~what:"alloc" path
        (Analysis.Kir_lint.errors findings)
        (Analysis.Kir_lint.warnings findings))

let cmd_race strict =
  let vs = Race_suites.all () in
  print_string (Race_suites.render vs);
  (* suite failures are errors; there is no warning severity here, so
     --strict changes nothing (accepted for uniformity) *)
  ignore (strict : bool);
  if Race_suites.pass vs then 0 else 3

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let strict_arg =
  Arg.(value & flag & info [ "strict" ] ~doc:"Also fail (exit 3) on warnings.")

let module_cmd =
  Cmd.v
    (Cmd.info "module"
       ~doc:
         "lint a KIR module: unguarded loads/stores, unreachable blocks, \
          dead or duplicate guards, indirect calls without cfi_guard")
    Term.(const cmd_module $ file_arg $ strict_arg)

let policy_cmd =
  Cmd.v
    (Cmd.info "policy"
       ~doc:
         "lint a policy file: shadowed regions, capacity overflow, \
          write-only protections, domain page-shadow blind spots")
    Term.(const cmd_policy $ file_arg $ strict_arg)

let domain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "domain" ] ~docv:"NAME"
        ~doc:
          "Require the certificate to be bound to policy domain $(docv); a \
           certificate for a different (or no) domain is rejected.")

let cert_cmd =
  Cmd.v
    (Cmd.info "cert"
       ~doc:
         "validate the guard-completeness certificate embedded in a \
          compiled module (body digest match, then full re-proof); with \
          --domain, also check the domain binding")
    Term.(const cmd_cert $ file_arg $ domain_arg $ strict_arg)

let san_cmd =
  Cmd.v
    (Cmd.info "san"
       ~doc:
         "allocation-lifetime dataflow lints over a KIR module: \
          double-free and use-after-free (errors), leak-on-exit and \
          kmalloc results dereferenced without a null check (warnings)")
    Term.(const cmd_san $ file_arg $ strict_arg)

let race_cmd =
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "run the happens-before race-detector fixture suite: the clean \
          policy-storm/NAPI/rebuild workloads must stay silent and the \
          seeded stale-window and corruption fixtures must be flagged")
    Term.(const cmd_race $ strict_arg)

let () =
  let doc = "static analysis suite for CARAT KOP modules and policies" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "kop_lint" ~doc)
          [ module_cmd; policy_cmd; cert_cmd; san_cmd; race_cmd ]))
