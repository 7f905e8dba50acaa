(* kop-compile: the CARAT KOP "compiler" driver (paper §3.3) — the
   wrapper that runs the guard-injection pass pipeline over a module and
   signs the result.

     kop_compile input.kir -o output.kir [--opt LEVEL] [--strict]
                 [--exempt-stack] [--key KEY] [--signer NAME] [--stats]
     kop_compile --emit-driver [--scale N] [--rogue] -o e1000e.kir

   --emit-driver writes the generated e1000e driver source, which is how
   you get a realistic input module to play with. *)

open Cmdliner
open Carat_kop

let compile input output optimize opt strict exempt_stack key signer stats
    emit_driver scale rogue no_transform =
  try
    let opt =
      match opt with
      | None -> if optimize then Passes.Pipeline.O_basic else Passes.Pipeline.O_none
      | Some s -> (
        match Passes.Pipeline.opt_level_of_string s with
        | Some o -> o
        | None ->
          Printf.eprintf "kop_compile: unknown --opt level %S (none|basic|aggressive)\n" s;
          exit 2)
    in
    let m =
      if emit_driver then
        Nic.Driver_gen.generate ~module_scale:scale ~with_rogue:rogue ()
      else begin
        match input with
        | Some path -> Kir.Parser.parse_file path
        | None ->
          prerr_endline "kop_compile: need an input file (or --emit-driver)";
          exit 2
      end
    in
    let remarks =
      if emit_driver && no_transform then []
      else if no_transform then
        Passes.Pass.run_pipeline_checked
          (Passes.Pipeline.baseline_sign ~key ~signer ())
          m
      else begin
        let pipeline =
          Passes.Pipeline.kop ~key ~signer ~exempt_stack ~strict ~opt ()
        in
        let remarks = Passes.Pass.run_pipeline_checked pipeline m in
        (* referencing the certifier also guarantees the analysis layer
           is linked, which is what registers the certify pass above *)
        (match Analysis.Certify.validate m with
        | Ok () -> ()
        | Error e ->
          Printf.eprintf "kop_compile: post-compile certificate check: %s\n"
            (Analysis.Certify.validate_error_to_string e);
          exit 1);
        remarks
      end
    in
    if stats then begin
      Printf.eprintf "module %s:\n" m.Kir.Types.m_name;
      Printf.eprintf "  functions:        %d\n" (List.length m.Kir.Types.funcs);
      Printf.eprintf "  instructions:     %d\n" (Kir.Types.module_instr_count m);
      Printf.eprintf "  loads+stores:     %d\n" (Kir.Types.module_memory_op_count m);
      Printf.eprintf "  guards:           %d\n" (Passes.Guard_injection.count_guards m);
      List.iter
        (fun (pass, r) ->
          List.iter
            (fun (k, v) -> Printf.eprintf "  [%s] %s = %s\n" pass k v)
            r.Passes.Pass.remarks)
        remarks
    end;
    let text = Kir.Printer.to_string m in
    (match output with
    | Some path ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc
    | None -> print_string text);
    0
  with
  | Kir.Parser.Parse_error (line, msg) ->
    Printf.eprintf "kop_compile: parse error at line %d: %s\n" line msg;
    1
  | Passes.Pass.Pass_failed (pass, reason) ->
    Printf.eprintf "kop_compile: pass '%s' refused the module: %s\n" pass reason;
    1
  | Kir.Verify.Invalid msg ->
    Printf.eprintf "kop_compile: invalid module: %s\n" msg;
    1

let input =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT.kir")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUTPUT")

let optimize =
  Arg.(value & flag & info [ "optimize" ]
    ~doc:"Run the CARAT-CAKE-style guard optimizations (redundant-guard \
          elimination and loop hoisting). The paper's compiler does not. \
          Shorthand for --opt basic; ignored when --opt is given.")

let opt =
  Arg.(value & opt (some string) None & info [ "opt" ] ~docv:"LEVEL"
    ~doc:"Guard-optimization level: $(b,none) (the paper's compiler), \
          $(b,basic) (local redundant-guard elimination + loop hoisting), \
          or $(b,aggressive) (adds the certificate-gated optimizer: guard \
          coalescing, loop hoist-widening and interprocedural \
          elimination, re-certified after the transform).")

let strict =
  Arg.(value & flag & info [ "strict" ]
    ~doc:"Reject indirect calls that are not covered by cfi_guard \
          instrumentation (re-checked after the extension passes run).")

let exempt_stack =
  Arg.(value & flag & info [ "exempt-stack" ]
    ~doc:"Skip guards on accesses that provably stay inside the function's own \
          stack frame: a constant offset into one of its allocas.")

let key =
  Arg.(value & opt string Passes.Pipeline.default_key & info [ "key" ]
    ~doc:"Signing key (the kernel must be configured with the same key).")

let signer =
  Arg.(value & opt string Passes.Pipeline.default_signer & info [ "signer" ])

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print transform statistics.")

let emit_driver =
  Arg.(value & flag & info [ "emit-driver" ]
    ~doc:"Generate the simulated e1000e driver as the input module.")

let scale =
  Arg.(value & opt int 12 & info [ "scale" ] ~doc:"Driver padding scale.")

let rogue =
  Arg.(value & flag & info [ "rogue" ]
    ~doc:"Include the driver's debug peek/poke backdoor entry points.")

let no_transform =
  Arg.(value & flag & info [ "no-transform" ]
    ~doc:"Only sign (baseline build); with --emit-driver, emit untransformed.")

let cmd =
  let doc = "transform a KIR kernel module with CARAT KOP guard injection" in
  Cmd.v
    (Cmd.info "kop_compile" ~doc)
    Term.(
      const compile $ input $ output $ optimize $ opt $ strict $ exempt_stack
      $ key $ signer $ stats $ emit_driver $ scale $ rogue $ no_transform)

let () = exit (Cmd.eval' cmd)
