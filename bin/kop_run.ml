(* kop-run: boot a simulated kernel, install the policy module with a
   policy file, insert a (signed) KIR module, and call an entry point —
   the insmod-and-poke loop of kernel-module development, on the bench.

     kop_run module.kir --policy policy.kop --call sum_region \
             --args 0x1100000000000000,64 [--machine r350] [--opt LEVEL]
             [--mode panic|quarantine|audit] [--no-enforce] [--log] [--stats]

   --opt re-optimizes the (already guarded) module at insertion time —
   the guard tier is a loader decision, not only a vendor one; the
   module is re-certified and re-signed before insmod.

   Exit codes: 0 success, 4 kernel panic (e.g. guard violation),
   6 module quarantined (kernel still alive), 1 other errors. *)

open Cmdliner
open Carat_kop

(* --duplex: no module file — bring up the full-duplex testbed (RSS-steered
   NAPI receive plus pktgen transmit on every CPU) against a
   driver-generated module and report throughput and tail latency, the
   pktgen+netperf smoke run of real NIC bring-up. *)
let run_duplex ~machine ~cpus ~no_enforce ~stats =
  let config =
    {
      Smp_testbed.default_config with
      machine;
      cpus;
      rx_queues = cpus;
      technique = (if no_enforce then Testbed.Baseline else Testbed.Carat);
      seed = 7;
    }
  in
  let tb = Smp_testbed.create ~config () in
  let r = Smp_testbed.run_traffic ~count:200 tb in
  let cdf = Stats.Cdf.of_samples r.Smp_testbed.d_latencies in
  Printf.printf "full-duplex %s, %d CPU(s), %d RSS RX queue(s)\n"
    (Testbed.technique_to_string config.Smp_testbed.technique)
    cpus cpus;
  Array.iter
    (fun c ->
      Printf.printf "  cpu%d: tx %4d (%9.0f pps)  rx %4d (%9.0f pps)\n"
        c.Smp_testbed.dc_cpu c.Smp_testbed.dc_sent c.Smp_testbed.dc_tx_pps
        c.Smp_testbed.dc_rx_frames c.Smp_testbed.dc_rx_pps)
    r.Smp_testbed.d_per_cpu;
  Printf.printf "  total: tx %.0f pps  rx %.0f pps (%d frames, %d dropped)\n"
    r.Smp_testbed.d_tx_pps r.Smp_testbed.d_rx_pps r.Smp_testbed.d_rx_frames
    r.Smp_testbed.d_rx_dropped;
  Printf.printf "  latency: p50 %.0f  p99 %.0f  p999 %.0f cycles\n"
    (Stats.Cdf.quantile cdf 0.5)
    (Stats.Cdf.quantile cdf 0.99)
    (Stats.Cdf.quantile cdf 0.999);
  if stats then
    Printf.printf
      "  napi: %d irqs, %d polls, %d budget-exhausted, %d timer kicks\n"
      r.Smp_testbed.d_rx_irqs r.Smp_testbed.d_rx_polls
      r.Smp_testbed.d_budget_exhausted r.Smp_testbed.d_timer_kicks;
  if r.Smp_testbed.d_stale_allows <> 0 then begin
    Printf.eprintf "kop_run: %d stale allows during the duplex run\n"
      r.Smp_testbed.d_stale_allows;
    1
  end
  else 0

let run module_path policy_path call args machine_name engine_name opt_str
    mode_str no_enforce show_log stats trace guard_trace cpus duplex sanitize =
  if cpus < 1 || cpus > 8 then begin
    Printf.eprintf "kop_run: --cpus expects 1..8\n";
    exit 2
  end;
  let machine =
    match Machine.Presets.by_name machine_name with
    | Some m -> m
    | None ->
      Printf.eprintf "kop_run: unknown machine %s (r415|r350)\n" machine_name;
      exit 2
  in
  let engine =
    match Vm.Engine.kind_of_string engine_name with
    | Some k -> k
    | None ->
      Printf.eprintf "kop_run: unknown engine %s (interp|compiled)\n"
        engine_name;
      exit 2
  in
  let opt =
    match opt_str with
    | None -> None
    | Some s -> (
      match Passes.Pipeline.opt_level_of_string s with
      | Some o -> Some o
      | None ->
        Printf.eprintf "kop_run: unknown --opt level %s (none|basic|aggressive)\n"
          s;
        exit 2)
  in
  if duplex then exit (run_duplex ~machine ~cpus ~no_enforce ~stats);
  let module_path =
    match module_path with
    | Some p -> p
    | None ->
      Printf.eprintf "kop_run: MODULE.kir is required unless --duplex\n";
      exit 2
  in
  try
    let m = Kir.Parser.parse_file module_path in
    (match opt with
    | None | Some Passes.Pipeline.O_none -> ()
    | Some opt ->
      if
        Kir.Types.meta_find m Passes.Guard_injection.meta_guarded
        <> Some "true"
      then begin
        Printf.eprintf
          "kop_run: --opt needs a guarded module (compile it first)\n";
        exit 2
      end;
      let remarks = Passes.Pipeline.reoptimize ~opt m in
      if stats then
        List.iter
          (fun (pass, r) ->
            List.iter
              (fun (k, v) -> Printf.eprintf "  [%s] %s = %s\n" pass k v)
              r.Passes.Pass.remarks)
          remarks);
    let kernel =
      Kernel.create ~require_signature:(not no_enforce)
        ~require_certificate:(not no_enforce) machine
    in
    (* before any kmalloc, so every allocation gets redzones + shadow *)
    if sanitize then Kernel.enable_sanitizer kernel;
    let vm = Vm.Engine.install ~kind:engine kernel in
    if trace > 0 then begin
      let remaining = ref trace in
      Vm.Interp.set_tracer vm
        (Some
           (fun ev ->
             if !remaining > 0 then begin
               decr remaining;
               Printf.eprintf "  [trace %6d] @%s %s: %s\n"
                 ev.Vm.Interp.ev_step ev.Vm.Interp.ev_func
                 ev.Vm.Interp.ev_block ev.Vm.Interp.ev_instr
             end))
    end;
    let pm =
      Policy.Policy_module.install ~on_deny:Policy.Policy_module.Panic kernel
    in
    if guard_trace then
      Trace.start (Policy.Policy_module.enable_trace pm);
    (match policy_path with
    | Some path ->
      Policy.Policy_file.apply_module (Policy.Policy_file.load path) pm
    | None -> Policy.Policy_module.set_policy pm Policy.Region.kernel_only);
    (* an explicit --mode overrides whatever the policy file says *)
    (match mode_str with
    | None -> ()
    | Some s -> (
      match Policy.Policy_module.on_deny_of_string s with
      | Some m -> Policy.Policy_module.set_on_deny pm m
      | None ->
        Printf.eprintf "kop_run: unknown mode %s (panic|quarantine|audit)\n" s;
        exit 2));
    let dump_log () =
      if show_log then
        List.iter
          (fun l -> Printf.eprintf "  [klog] %s\n" l)
          (Kernel.Klog.tail (Kernel.log kernel) 32)
    in
    match Kernel.insmod kernel m with
    | Error e ->
      Printf.eprintf "kop_run: insmod rejected: %s\n"
        (Kernel.load_error_to_string e);
      dump_log ();
      1
    | Ok _lm -> (
      Printf.printf "module %s inserted\n" m.Kir.Types.m_name;
      let finish code =
        (match Policy.Policy_module.trace pm with
        | Some tr when guard_trace ->
          List.iter
            (fun e ->
              Printf.eprintf "  [guard] %s\n" (Trace.format_event e))
            (Trace.events tr);
          let checks, allows, denies, _, _, _ = Trace.totals tr in
          Printf.eprintf
            "  [guard] %d event(s) recorded, %d dropped \
             (checks %d, allows %d, denies %d)\n"
            (Trace.recorded tr) (Trace.dropped tr) checks allows denies
        | _ -> ());
        if stats then begin
          let st = Policy.Engine.stats (Policy.Policy_module.engine pm) in
          Printf.eprintf "guard checks: %d (allowed %d, denied %d)\n"
            st.Policy.Engine.checks st.Policy.Engine.allowed
            st.Policy.Engine.denied;
          Printf.eprintf "cycles: %d\n"
            (Machine.Model.cycles (Kernel.machine kernel))
        end;
        if sanitize && Kernel.san_report_count kernel > 0 then
          Printf.eprintf "%s" (Kernel.san_render kernel);
        dump_log ();
        code
      in
      match call with
      | None -> finish 0
      | Some symbol -> (
        let argv =
          match args with
          | "" -> [||]
          | s ->
            Array.of_list
              (List.map
                 (fun w ->
                   match int_of_string_opt (String.trim w) with
                   | Some v -> v
                   | None ->
                     Printf.eprintf "kop_run: bad argument %s\n" w;
                     exit 2)
                 (String.split_on_char ',' s))
        in
        try
          if cpus > 1 then begin
            (* N simulated CPUs, deterministic round-robin: every CPU
               calls the entry once; policy mutations made while the
               system is up go through the SMP write route *)
            let smp =
              Smp.System.create ~seed:1 ~params:machine ~cpus kernel pm
            in
            let results = Array.make cpus 0 in
            let steps =
              Array.init cpus (fun i () ->
                  results.(i) <- Kernel.call_symbol kernel symbol argv;
                  false)
            in
            let log, sstats = Smp.System.run smp steps in
            Array.iteri
              (fun i r ->
                Printf.printf "cpu%d: %s(%s) = %d (0x%x)\n" i symbol args r r)
              results;
            Printf.printf "interleave: [%s] in %d slices\n"
              (String.concat "," (List.map string_of_int log))
              sstats.Smp.Sched.slices;
            if stats then begin
              let st =
                Policy.Engine.merged_stats (Policy.Policy_module.engine pm)
              in
              Printf.eprintf
                "merged guard checks: %d (allowed %d, denied %d)\n"
                st.Policy.Engine.checks st.Policy.Engine.allowed
                st.Policy.Engine.denied
            end
          end
          else begin
            let r = Kernel.call_symbol kernel symbol argv in
            Printf.printf "%s(%s) = %d (0x%x)\n" symbol args r r
          end;
          match Kernel.quarantine_records kernel with
          | [] -> finish 0
          | q :: _ ->
            Printf.eprintf
              "module %s QUARANTINED: %s (kernel alive; calls return %d)\n"
              q.Kernel.q_module q.Kernel.q_reason Kernel.eio;
            ignore (finish 0);
            6
        with
        | Kernel.Panic info ->
          Printf.eprintf "KERNEL PANIC: %s\n" info.Kernel.reason;
          List.iter (fun l -> Printf.eprintf "  # %s\n" l) info.Kernel.diag;
          List.iter (fun l -> Printf.eprintf "  | %s\n" l) info.Kernel.log_tail;
          ignore (finish 0);
          4
        | Vm.Interp.Vm_error msg ->
          Printf.eprintf "kop_run: VM error: %s\n" msg;
          finish 1
        | Kernel.Fault { addr; size; what } ->
          Printf.eprintf
            "kop_run: unhandled %s fault at 0x%x (%d bytes) — kernel oops\n"
            what addr size;
          ignore (finish 0);
          5))
  with
  | Kir.Parser.Parse_error (line, msg) ->
    Printf.eprintf "kop_run: parse error at line %d: %s\n" line msg;
    1
  | Policy.Policy_file.Parse_error (line, msg) ->
    Printf.eprintf "kop_run: policy parse error at line %d: %s\n" line msg;
    1

let module_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"MODULE.kir"
    ~doc:"KIR module to insert. Required unless $(b,--duplex) is given.")

let policy_arg =
  Arg.(value & opt (some file) None & info [ "policy" ] ~docv:"POLICY.kop")

let call_arg =
  Arg.(value & opt (some string) None & info [ "call" ] ~docv:"SYMBOL")

let args_arg =
  Arg.(value & opt string "" & info [ "args" ] ~docv:"A,B,…"
    ~doc:"Comma-separated integer arguments (0x… accepted).")

let machine_arg = Arg.(value & opt string "r350" & info [ "machine" ])

let engine_arg =
  Arg.(value & opt string "interp" & info [ "engine" ] ~docv:"ENGINE"
    ~doc:"KIR execution engine: interp or compiled. Simulated cycles are \
          identical; compiled is much faster in wall-clock.")

let opt_arg =
  Arg.(value & opt (some string) None & info [ "opt" ] ~docv:"LEVEL"
    ~doc:"Re-optimize the guarded module before insertion: none, basic \
          (redundant-guard elimination + loop hoisting) or aggressive \
          (certificate-gated coalescing, hoist-widening and \
          interprocedural elimination). The module is re-certified and \
          re-signed, so the loader's checks run against the optimized \
          body.")

let mode_arg =
  Arg.(value & opt (some string) None & info [ "mode" ] ~docv:"MODE"
    ~doc:"Enforcement on guard denial: panic, quarantine, or audit \
          (overrides the policy file).")

let no_enforce =
  Arg.(value & flag & info [ "no-enforce" ]
    ~doc:"Accept unsigned/untransformed modules (today's permissive kernel).")

let log_arg = Arg.(value & flag & info [ "log" ] ~doc:"Dump the kernel log.")
let stats_arg = Arg.(value & flag & info [ "stats" ])

let trace_arg =
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N"
    ~doc:"Print the first N interpreted instructions to stderr.")

let guard_trace_arg =
  Arg.(value & flag & info [ "guard-trace" ]
    ~doc:"Record guard/lifecycle events in the carat_trace ring and dump \
          them (with counters) after the run. On a panic the last events \
          are also attached to the panic report.")

let cpus_arg =
  Arg.(value & opt int 1 & info [ "cpus" ] ~docv:"N"
    ~doc:"Run the entry point on N simulated CPUs (1..8) under the \
          deterministic round-robin scheduler. Each CPU calls the entry \
          once; policy mutations made while the system is up edit the \
          table in place and bump the epoch, which invalidates every \
          CPU's guard caches. N=1 is the classic single-CPU path, \
          bit-identical to previous releases.")

let duplex_arg =
  Arg.(value & flag & info [ "duplex" ]
    ~doc:"Skip module insertion and run the full-duplex testbed instead: \
          RSS-steered NAPI receive plus pktgen transmit on every CPU (see \
          $(b,--cpus)), heavy-tailed offered load, reporting per-CPU and \
          total throughput with p50/p99/p999 arrival-to-delivery latency. \
          $(b,--no-enforce) runs the unguarded baseline driver; \
          $(b,--stats) adds the NAPI loop counters. Exits 1 if any stale \
          allow is observed.")

let sanitize_arg =
  Arg.(value & flag & info [ "sanitize" ]
    ~doc:"Enable the kernel memory sanitizer: redzones and an \
          alloc/free-state shadow on every kmalloc/kfree, so \
          out-of-bounds, use-after-free and redzone hits from module \
          code are reported at the faulting access with allocation \
          attribution (reports go to stderr after the run and to \
          /proc/carat/san). Off by default; when off, decisions and \
          cycle counts are bit-identical to a build without the \
          sanitizer.")

let cmd =
  let doc = "insert a KIR module into a simulated CARAT KOP kernel and call it" in
  Cmd.v (Cmd.info "kop_run" ~doc)
    Term.(
      const run $ module_arg $ policy_arg $ call_arg $ args_arg $ machine_arg
      $ engine_arg $ opt_arg $ mode_arg $ no_enforce $ log_arg $ stats_arg
      $ trace_arg $ guard_trace_arg $ cpus_arg $ duplex_arg $ sanitize_arg)

let () = exit (Cmd.eval' cmd)
