(* policy-manager: the paper's operator tool (§3.1, Figure 1) — "a root
   user can communicate with the policy module through an ioctl system
   call to add or remove regions from the table".

   The simulated analogue edits policy files and can exercise them
   against a live simulated kernel through the real /dev/carat ioctl
   path:

     policy_manager init  -o policy.kop            # two-region default
     policy_manager add   policy.kop --base 0x… --len 0x… --prot rw --tag t
     policy_manager remove policy.kop --base 0x…
     policy_manager list  policy.kop
     policy_manager check policy.kop --addr 0x… --size 8 --write
     policy_manager push  policy.kop               # load into a simulated
                                                   # kernel via ioctls and
                                                   # report the table
     policy_manager set-mode policy.kop quarantine # enforcement on deny:
                                                   # panic|quarantine|audit,
                                                   # persisted and set live
                                                   # via the ioctl

   Exit codes: 0 ok, 3 denied or errors found, 1 bad input (an unreadable
   or malformed policy file, a bad --len or --prot, more regions than the
   table holds), 2 usage. *)

open Cmdliner
open Carat_kop

(* Malformed input ends the run here, with its reason and exit 1 — never
   in cmdliner's "uncaught exception" (exit 125). *)
let bad_input file reason =
  Printf.eprintf "policy_manager: %s: %s\n" file reason;
  exit 1

let load file =
  match Policy.Policy_file.load file with
  | t -> t
  | exception Sys_error msg ->
    (* [msg] already starts with the file name *)
    Printf.eprintf "policy_manager: %s\n" msg;
    exit 1
  | exception Policy.Policy_file.Parse_error (line, msg) ->
    bad_input file (Printf.sprintf "line %d: %s" line msg)

let within_capacity file (t : Policy.Policy_file.t) =
  let cap = Policy.Linear_table.default_capacity in
  if List.length t.Policy.Policy_file.regions > cap then
    bad_input file (Printf.sprintf "table is limited to %d regions" cap)

(* [load] for the commands that install the file into the root table *)
let load_root file =
  let t = load file in
  within_capacity file t;
  t

let load_or_empty path =
  if Sys.file_exists path then load path
  else
    {
      Policy.Policy_file.default_allow = false;
      mode = Policy.Policy_module.Panic;
      domain = "";
      regions = [];
    }

let cmd_init output =
  let t = Policy.Policy_file.kernel_only in
  (match output with
  | Some path -> Policy.Policy_file.save path t
  | None -> print_string (Policy.Policy_file.to_string t));
  0

let cmd_add file base len prot tag prepend =
  let t = load_or_empty file in
  let r =
    try Policy.Policy_file.region 0 ~base ~len ~prot ~tag
    with Policy.Policy_file.Parse_error (_, msg) -> bad_input file msg
  in
  let regions =
    if prepend then r :: t.Policy.Policy_file.regions
    else t.Policy.Policy_file.regions @ [ r ]
  in
  let t = { t with Policy.Policy_file.regions } in
  within_capacity file t;
  Policy.Policy_file.save file t;
  0

let cmd_remove file base =
  let t = load_or_empty file in
  (* first occurrence only: duplicate-base rules are legal (first match
     wins), so removing by base must peel one rule per invocation — the
     same semantics as the in-kernel tables and the remove ioctl *)
  let rec drop_first = function
    | [] -> []
    | (r : Policy.Region.t) :: tl ->
      if r.Policy.Region.base = base then tl else r :: drop_first tl
  in
  let regions = drop_first t.Policy.Policy_file.regions in
  if List.length regions = List.length t.Policy.Policy_file.regions then begin
    Printf.eprintf "policy_manager: no region with base 0x%x\n" base;
    1
  end
  else begin
    Policy.Policy_file.save file { t with Policy.Policy_file.regions };
    0
  end

let cmd_list file =
  let t = load file in
  Printf.printf "default: %s\n"
    (if t.Policy.Policy_file.default_allow then "allow" else "deny");
  Printf.printf "mode:    %s\n"
    (Policy.Policy_module.on_deny_to_string t.Policy.Policy_file.mode);
  List.iteri
    (fun i r -> Printf.printf "%2d. %s\n" i (Policy.Region.to_string r))
    t.Policy.Policy_file.regions;
  0

let cmd_check file addr size write =
  let t = load_root file in
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let engine = Policy.Engine.create kernel in
  Policy.Policy_file.apply t engine;
  let flags =
    if write then Policy.Region.prot_write else Policy.Region.prot_read
  in
  (match Policy.Engine.check engine ~addr ~size ~flags with
  | Policy.Engine.Allowed (Some r) ->
    Printf.printf "ALLOWED by %s\n" (Policy.Region.to_string r);
    0
  | Policy.Engine.Allowed None ->
    Printf.printf "ALLOWED by default-allow\n";
    0
  | Policy.Engine.Denied (Some r) ->
    Printf.printf "DENIED: matched %s but permissions are insufficient\n"
      (Policy.Region.to_string r);
    3
  | Policy.Engine.Denied None ->
    Printf.printf "DENIED: no matching region (default deny)\n";
    3)

let cmd_push file =
  (* exercise the real ioctl path against a simulated kernel, exactly as
     the tool in Figure 1 does *)
  let t = load_root file in
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let pm =
    Policy.Policy_module.install ~on_deny:Policy.Policy_module.Audit kernel
  in
  let arg = Kernel.map_user kernel ~size:32 in
  let rc = ref 0 in
  ignore
    (Kernel.ioctl kernel ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_set_default
       ~arg:(if t.Policy.Policy_file.default_allow then 1 else 0));
  List.iter
    (fun (r : Policy.Region.t) ->
      Kernel.write kernel ~addr:arg ~size:8 r.Policy.Region.base;
      Kernel.write kernel ~addr:(arg + 8) ~size:8 r.Policy.Region.len;
      Kernel.write kernel ~addr:(arg + 16) ~size:8 r.Policy.Region.prot;
      let res =
        Kernel.ioctl kernel ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_add ~arg
      in
      if res <> 0 then begin
        Printf.eprintf "ioctl add failed for %s\n" (Policy.Region.to_string r);
        rc := 1
      end)
    t.Policy.Policy_file.regions;
  let n =
    Kernel.ioctl kernel ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0
  in
  Printf.printf "pushed %d region(s) via /dev/carat; kernel table:\n" n;
  List.iteri
    (fun i r -> Printf.printf "%2d. %s\n" i (Policy.Region.to_string r))
    (Policy.Engine.regions (Policy.Policy_module.engine pm));
  !rc

(* Batched install through ioctl_install: one syscall pushes the whole
   policy atomically — readers observe the old table or the new one,
   never a partially-installed batch. With a `domain` directive in the
   file (or --domain NAME) the batch lands in a freshly created policy
   domain instead of the root table. *)
let cmd_push_batch file domain_override =
  let t = load file in
  let domain_name =
    match domain_override with
    | Some d -> d
    | None -> t.Policy.Policy_file.domain
  in
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let pm =
    Policy.Policy_module.install ~on_deny:Policy.Policy_module.Audit kernel
  in
  let ioctl cmd arg = Kernel.ioctl kernel ~dev:"carat" ~cmd ~arg in
  let dom_id =
    if domain_name = "" then 0
    else
      ioctl Policy.Policy_module.ioctl_domain_create
        (if t.Policy.Policy_file.default_allow then 1 else 0)
  in
  if dom_id < 0 then begin
    Printf.eprintf "policy_manager: domain create failed (rc=%d)\n" dom_id;
    1
  end
  else begin
    if dom_id = 0 then
      ignore
        (ioctl Policy.Policy_module.ioctl_set_default
           (if t.Policy.Policy_file.default_allow then 1 else 0));
    let regions = t.Policy.Policy_file.regions in
    let n = List.length regions in
    let arg = Kernel.map_user kernel ~size:(16 + (n * 24)) in
    Kernel.write kernel ~addr:arg ~size:8 dom_id;
    Kernel.write kernel ~addr:(arg + 8) ~size:8 n;
    List.iteri
      (fun i (r : Policy.Region.t) ->
        let a = arg + 16 + (i * 24) in
        Kernel.write kernel ~addr:a ~size:8 r.Policy.Region.base;
        Kernel.write kernel ~addr:(a + 8) ~size:8 r.Policy.Region.len;
        Kernel.write kernel ~addr:(a + 16) ~size:8 r.Policy.Region.prot)
      regions;
    let rc = ioctl Policy.Policy_module.ioctl_install arg in
    if rc <> 0 then begin
      Printf.eprintf "policy_manager: batched install failed (rc=%d%s)\n" rc
        (if rc = Kernel.enospc then " -ENOSPC, nothing installed" else "");
      1
    end
    else begin
      if dom_id = 0 then begin
        let count = ioctl Policy.Policy_module.ioctl_count 0 in
        Printf.printf
          "installed %d region(s) atomically via ioctl_install; kernel table \
           (%d):\n"
          n count;
        List.iteri
          (fun i r -> Printf.printf "%2d. %s\n" i (Policy.Region.to_string r))
          (Policy.Engine.regions (Policy.Policy_module.engine pm))
      end
      else begin
        let stat = Kernel.map_user kernel ~size:64 in
        Kernel.write kernel ~addr:stat ~size:8 dom_id;
        ignore (ioctl Policy.Policy_module.ioctl_domain_stats stat);
        let w i = Kernel.read kernel ~addr:(stat + (i * 8)) ~size:8 in
        Printf.printf
          "installed %d region(s) atomically into domain %d (%s): regions=%d \
           epoch=%d structure=%s\n"
          n dom_id domain_name (w 0) (w 1)
          (if w 5 = 1 then "interval" else "linear")
      end;
      0
    end
  end

(* Multi-tenant demonstration: create N policy domains over one kernel,
   batch-install the policy into each, probe every domain, and report
   the per-domain counters through ioctl_domain_stats and
   /proc/carat/domains. One scratch domain is created and destroyed to
   exercise teardown churn. *)
let cmd_domains file count =
  if count < 1 || count > 256 then begin
    Printf.eprintf "policy_manager: domains needs --count 1..256\n";
    2
  end
  else
    let t = load file in
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
    let pm =
      Policy.Policy_module.install ~on_deny:Policy.Policy_module.Audit kernel
    in
    let ioctl cmd arg = Kernel.ioctl kernel ~dev:"carat" ~cmd ~arg in
    let regions = t.Policy.Policy_file.regions in
    let n = List.length regions in
    let arg = Kernel.map_user kernel ~size:(16 + (n * 24)) in
    let rc = ref 0 in
    let default_arg = if t.Policy.Policy_file.default_allow then 1 else 0 in
    let ids =
      List.init count (fun _ ->
          let id = ioctl Policy.Policy_module.ioctl_domain_create default_arg in
          if id <= 0 then rc := 1;
          Kernel.write kernel ~addr:arg ~size:8 id;
          Kernel.write kernel ~addr:(arg + 8) ~size:8 n;
          List.iteri
            (fun i (r : Policy.Region.t) ->
              let a = arg + 16 + (i * 24) in
              Kernel.write kernel ~addr:a ~size:8 r.Policy.Region.base;
              Kernel.write kernel ~addr:(a + 8) ~size:8 r.Policy.Region.len;
              Kernel.write kernel ~addr:(a + 16) ~size:8 r.Policy.Region.prot)
            regions;
          if ioctl Policy.Policy_module.ioctl_install arg <> 0 then rc := 1;
          id)
    in
    (* teardown churn: a scratch domain must come and go without
       disturbing the live ones *)
    let scratch = ioctl Policy.Policy_module.ioctl_domain_create 0 in
    if ioctl Policy.Policy_module.ioctl_domain_destroy scratch <> 0 then
      rc := 1;
    let live = ioctl Policy.Policy_module.ioctl_domain_count 0 in
    if live <> count then rc := 1;
    (match Policy.Policy_module.domains pm with
    | None -> rc := 1
    | Some dm ->
      (* probe every domain so the counters are live *)
      List.iter
        (fun id ->
          List.iter
            (fun (r : Policy.Region.t) ->
              ignore
                (Policy.Domain.check dm ~domain:id ~addr:r.Policy.Region.base
                   ~size:8 ~flags:Policy.Region.prot_read))
            regions;
          ignore
            (Policy.Domain.check dm ~domain:id ~addr:0x10 ~size:8
               ~flags:Policy.Region.prot_write))
        ids);
    Printf.printf "%d domain(s) live (1 scratch destroyed), %d region(s) each\n"
      live n;
    let stat = Kernel.map_user kernel ~size:64 in
    List.iter
      (fun id ->
        Kernel.write kernel ~addr:stat ~size:8 id;
        if ioctl Policy.Policy_module.ioctl_domain_stats stat <> 0 then rc := 1
        else
          let w i = Kernel.read kernel ~addr:(stat + (i * 8)) ~size:8 in
          Printf.printf
            "  dom%-3d regions=%-4d epoch=%-3d checks=%-5d allowed=%-5d \
             denied=%-5d %s sh=%d/%d\n"
            id (w 0) (w 1) (w 2) (w 3) (w 4)
            (if w 5 = 1 then "interval" else "linear  ")
            (w 6) (w 7))
      ids;
    (* the same numbers as the operator reads them from procfs *)
    let fs = Kernsvc.Kernfs.create kernel in
    let proc = Kernsvc.Procfs.install fs pm in
    print_newline ();
    print_string (Kernsvc.Procfs.read_domains proc);
    !rc

(* Shared setup for the observability commands: a live simulated kernel
   with the policy loaded (audit mode, so denied probes don't panic) and
   the site inline cache on, so the fast-tier counters have something to
   show. Returns the kernel and policy module. *)
let observability_kernel t =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let pm =
    Policy.Policy_module.install ~on_deny:Policy.Policy_module.Audit
      ~site_cache:true kernel
  in
  Policy.Policy_module.set_policy pm t.Policy.Policy_file.regions;
  Policy.Engine.set_default_allow
    (Policy.Policy_module.engine pm)
    t.Policy.Policy_file.default_allow;
  (kernel, pm)

(* Deterministic probe workload: three rounds over every region (read at
   base, write at last word) plus one low-address access no sane policy
   allows — enough traffic to populate every counter class. *)
let probe_workload pm regions =
  for _round = 1 to 3 do
    List.iteri
      (fun i (r : Policy.Region.t) ->
        (* distinct sites for the read and write probes, so repeat rounds
           hit the per-site inline cache instead of thrashing it *)
        ignore
          (Policy.Policy_module.guard pm ~site:(2 * i)
             ~addr:r.Policy.Region.base ~size:8 ~flags:Policy.Region.prot_read);
        ignore
          (Policy.Policy_module.guard pm
             ~site:((2 * i) + 1)
             ~addr:(r.Policy.Region.base + r.Policy.Region.len - 8)
             ~size:8 ~flags:Policy.Region.prot_write))
      regions;
    ignore
      (Policy.Policy_module.guard pm
         ~site:(2 * List.length regions)
         ~addr:0x10 ~size:8 ~flags:Policy.Region.prot_write)
  done

(* Driver-workload section of the stats command: compile the e1000e
   driver at the requested guard-optimization tier, insert it into a
   fresh simulated kernel, push traffic, and report what the tier does
   to the dynamic check count. *)
let driver_stats opt =
  let config =
    {
      Testbed.default_config with
      technique = Testbed.Carat;
      guard_opt = opt;
      site_cache = true;
      module_scale = 6;
    }
  in
  let tb = Testbed.create ~config () in
  let r =
    Testbed.run_pktgen tb
      { Net.Pktgen.default_config with count = 100; size = 128; seed = 7 }
  in
  let st =
    Policy.Engine.stats (Policy.Policy_module.engine tb.Testbed.policy_module)
  in
  Printf.printf
    "driver workload (--opt %s): static_guards=%d checks=%d allowed=%d \
     denied=%d checks/pkt=%.1f\n"
    (Passes.Pipeline.opt_level_to_string opt)
    (Passes.Guard_injection.count_guards tb.Testbed.driver_kir)
    st.Policy.Engine.checks st.Policy.Engine.allowed st.Policy.Engine.denied
    (float_of_int st.Policy.Engine.checks
    /. float_of_int (max 1 r.Net.Pktgen.sent))

let cmd_stats file opt_str =
  let opt =
    match opt_str with
    | None -> None
    | Some s -> (
      match Passes.Pipeline.opt_level_of_string s with
      | Some o -> Some o
      | None ->
        Printf.eprintf
          "policy_manager: unknown --opt level %s (none|basic|aggressive)\n" s;
        exit 2)
  in
  let t = load_root file in
  let kernel, pm = observability_kernel t in
  (* attach the trace ring through the operator ioctl, as a root tool
     would, then drive the probe so the counters are live *)
  ignore
    (Kernel.ioctl kernel ~dev:"carat"
       ~cmd:Policy.Policy_module.ioctl_trace_start ~arg:0);
  probe_workload pm t.Policy.Policy_file.regions;
  (* ioctl_get_stats: 8 words into user memory *)
  let arg = Kernel.map_user kernel ~size:64 in
  let rc =
    Kernel.ioctl kernel ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_get_stats
      ~arg
  in
  if rc <> 0 then begin
    Printf.eprintf "policy_manager: ioctl_get_stats failed (rc=%d)\n" rc;
    1
  end
  else begin
    let w i = Kernel.read kernel ~addr:(arg + (i * 8)) ~size:8 in
    Printf.printf
      "ioctl_get_stats: checks=%d allowed=%d denied=%d entries_scanned=%d\n"
      (w 0) (w 1) (w 2) (w 3);
    Printf.printf
      "                 ic_hits=%d ic_misses=%d trace_recorded=%d dropped=%d\n"
      (w 4) (w 5) (w 6) (w 7);
    (* the same numbers as the operator reads them from /proc/carat/stats *)
    let fs = Kernsvc.Kernfs.create kernel in
    let proc = Kernsvc.Procfs.install fs pm in
    print_newline ();
    print_string (Kernsvc.Procfs.read_stats proc);
    (match opt with
    | None -> ()
    | Some o ->
      print_newline ();
      driver_stats o);
    0
  end

let cmd_netstats cpus =
  if cpus < 1 || cpus > 8 then begin
    Printf.eprintf "policy_manager: --cpus expects 1..8\n";
    exit 2
  end;
  let config =
    { Smp_testbed.default_config with cpus; rx_queues = cpus; seed = 13 }
  in
  let tb = Smp_testbed.create ~config () in
  (* a short duplex workload with mid-run policy churn, so the counters
     the operator reads reflect guarded RX under policy updates *)
  let r = Smp_testbed.run_traffic ~count:150 ~churn:31 tb in
  let rx =
    match Smp_testbed.rx tb with Some rx -> rx | None -> assert false
  in
  let fs = Kernsvc.Kernfs.create (Smp_testbed.kernel tb) in
  let proc = Kernsvc.Procfs.install fs (Smp_testbed.policy_module tb) in
  Kernsvc.Procfs.set_net_render proc (fun () -> Net.Rx.render rx);
  print_string (Kernsvc.Procfs.read_net proc);
  Printf.printf
    "\nduplex: tx %.0f pps, rx %.0f pps, %d frames, %d dropped, %d \
     publications, %d stale allows\n"
    r.Smp_testbed.d_tx_pps r.Smp_testbed.d_rx_pps r.Smp_testbed.d_rx_frames
    r.Smp_testbed.d_rx_dropped r.Smp_testbed.d_publications
    r.Smp_testbed.d_stale_allows;
  Invariants.exit_code ~prog:"policy_manager" (Invariants.duplex r)

let cmd_trace file =
  let t = load_root file in
  let kernel, pm = observability_kernel t in
  ignore
    (Kernel.ioctl kernel ~dev:"carat"
       ~cmd:Policy.Policy_module.ioctl_trace_start ~arg:0);
  probe_workload pm t.Policy.Policy_file.regions;
  ignore
    (Kernel.ioctl kernel ~dev:"carat"
       ~cmd:Policy.Policy_module.ioctl_trace_stop ~arg:0);
  (* drain the ring through ioctl_trace_read, one 8-word event per call *)
  let arg = Kernel.map_user kernel ~size:64 in
  let n = ref 0 in
  let rec drain () =
    let rc =
      Kernel.ioctl kernel ~dev:"carat"
        ~cmd:Policy.Policy_module.ioctl_trace_read ~arg
    in
    if rc = 1 then begin
      let w i = Kernel.read kernel ~addr:(arg + (i * 8)) ~size:8 in
      let kind = Trace.kind_to_string (Trace.kind_of_int (w 2)) in
      Printf.printf "#%-4d @%-8d %-14s site=%-3d 0x%08x+%-4d flags=%d info=0x%x\n"
        (w 0) (w 1) kind (w 3) (w 4) (w 5) (w 6) (w 7);
      incr n;
      drain ()
    end
  in
  drain ();
  (match Policy.Policy_module.trace pm with
  | Some tr ->
    Printf.printf "%d event(s) read; %d dropped (ring capacity %d)\n" !n
      (Trace.dropped tr) (Trace.capacity tr)
  | None -> ());
  0

(* Update storm on a live SMP kernel: one CPU churns the policy through
   the real /dev/carat ioctls (remove + re-add the first region,
   [updates] times) while every other CPU hammers guard checks over the
   same regions from warm inline-cache sites. With the engine's paranoid
   verifier on, any guard that an inline cache allows against the
   *live* table counts as a stale allow — the bug class the epoch check
   on every inline-cache slot exists to make impossible. *)
let cmd_storm file cpus updates =
  if cpus < 2 || cpus > 8 then begin
    Printf.eprintf "policy_manager: storm needs --cpus 2..8\n";
    2
  end
  else
    let t = load_root file in
    match t.Policy.Policy_file.regions with
    | [] ->
      Printf.eprintf "policy_manager: %s has no regions to churn\n" file;
      1
    | victim :: _ ->
      let kernel, pm = observability_kernel t in
      let engine = Policy.Policy_module.engine pm in
      Policy.Engine.set_verify engine true;
      let smp =
        Smp.System.create ~seed:9 ~params:Machine.Presets.r350 ~cpus kernel pm
      in
      let arg = Kernel.map_user kernel ~size:32 in
      let ioctl cmd = Kernel.ioctl kernel ~dev:"carat" ~cmd ~arg in
      let regions = Array.of_list t.Policy.Policy_file.regions in
      let bad_rc = ref 0 in
      (* CPU 0: alternate remove / re-add of the first region *)
      let writer_ops = ref 0 in
      let writer () =
        if !writer_ops >= 2 * updates then false
        else begin
          let rc =
            if !writer_ops mod 2 = 0 then begin
              Kernel.write kernel ~addr:arg ~size:8 victim.Policy.Region.base;
              ioctl Policy.Policy_module.ioctl_remove
            end
            else begin
              Kernel.write kernel ~addr:arg ~size:8 victim.Policy.Region.base;
              Kernel.write kernel ~addr:(arg + 8) ~size:8
                victim.Policy.Region.len;
              Kernel.write kernel ~addr:(arg + 16) ~size:8
                victim.Policy.Region.prot;
              ioctl Policy.Policy_module.ioctl_add
            end
          in
          if rc <> 0 then incr bad_rc;
          incr writer_ops;
          true
        end
      in
      (* other CPUs: read-probe every region base from per-region sites,
         keeping each CPU's site inline cache warm across the churn *)
      let reader_rounds = 3 * updates in
      let reader _i =
        let ops = ref 0 in
        fun () ->
          if !ops >= reader_rounds then false
          else begin
            let r = regions.(!ops mod Array.length regions) in
            ignore
              (Policy.Policy_module.guard pm ~site:(!ops mod Array.length regions)
                 ~addr:r.Policy.Region.base ~size:8
                 ~flags:Policy.Region.prot_read);
            incr ops;
            true
          end
      in
      let steps =
        Array.init cpus (fun i -> if i = 0 then writer else reader i)
      in
      let log, sstats = Smp.System.run smp steps in
      let st = Policy.Engine.merged_stats engine in
      let rs = Smp.Rcu.stats (Smp.System.rcu smp) in
      let ops = Smp.System.ops_by_cpu smp log in
      Printf.printf "update storm: %d CPUs, %d remove/re-add pairs, %d slices\n"
        cpus updates sstats.Smp.Sched.slices;
      Printf.printf "  ops by cpu:  %s\n"
        (String.concat " "
           (Array.to_list (Array.mapi (Printf.sprintf "cpu%d=%d") ops)));
      Printf.printf "  writes:      %d publications, epoch %d\n"
        rs.Smp.Rcu.publications
        (Policy.Engine.epoch engine);
      Printf.printf "  guards:      %d checks (%d allowed, %d denied)\n"
        st.Policy.Engine.checks st.Policy.Engine.allowed
        st.Policy.Engine.denied;
      Printf.printf "  stale allows after publish: %d\n"
        (Policy.Engine.stale_allows engine);
      (* the probes of the removed region are denied on purpose: the
         storm holds the module to its stale allows only *)
      let broken =
        (if !bad_rc = 0 then [] else [ Invariants.Send_errors !bad_rc ])
        @ Invariants.stale_allows pm
      in
      if broken = [] then
        print_endline "OK: updates atomic under fire; no stale allow observed";
      Invariants.exit_code ~prog:"policy_manager: storm" broken

(* Self-healing demonstration on a live simulated kernel: load the
   policy with the full guard tiers up (linear table + site inline
   caches), turn on the integrity watchdog, run a clean audit through
   the operator ioctl, then corrupt every tier out-of-band and let the
   watchdog detect, degrade, rebuild, and re-promote. Exits nonzero if
   the kernel does not heal back to the full fast path. *)
let cmd_audit file =
  let t = load_root file in
  match t.Policy.Policy_file.regions with
  | [] ->
    Printf.eprintf "policy_manager: %s has no regions to audit\n" file;
    1
  | first :: _ ->
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
    let pm =
      Policy.Policy_module.install ~site_cache:true
        ~on_deny:Policy.Policy_module.Audit kernel
    in
    Policy.Policy_module.set_policy pm t.Policy.Policy_file.regions;
    Policy.Engine.set_default_allow
      (Policy.Policy_module.engine pm)
      t.Policy.Policy_file.default_allow;
    let wd = Policy.Policy_module.enable_watchdog ~period:5_000 pm in
    let ig =
      match Policy.Policy_module.integrity pm with
      | Some ig -> ig
      | None -> assert false
    in
    let engine = Policy.Policy_module.engine pm in
    Policy.Engine.set_verify engine true;
    let clean =
      Kernel.ioctl kernel ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_audit
        ~arg:0
    in
    Printf.printf "clean audit (ioctl 18): %d corrupt tier(s)\n" clean;
    (* wild-write each tier out-of-band, bypassing the epoch choke
       point — exactly what the watchdog exists to catch — and let the
       periodic audit detect, degrade, rebuild, and re-promote before
       moving to the next tier *)
    let lo = first.Policy.Region.base land lnot (Kernel.Memory.page_size - 1) in
    let episode (tier, corrupt) =
      if not (corrupt ()) then
        Printf.printf "corrupt %-16s SKIPPED (tier not live)\n" tier
      else begin
        let d0 = Policy.Integrity.detections ig in
        let steps = ref 0 in
        while
          (not
             (Policy.Integrity.detections ig > d0
             && Policy.Integrity.healthy ig
             && Policy.Integrity.tier_level ig = 2))
          && !steps < 200
        do
          incr steps;
          ignore (Kernel.Watchdog.advance wd ~cycles:1_000)
        done;
        Printf.printf
          "corrupt %-16s detected by watchdog, tier rebuilt (level %d)\n" tier
          (Policy.Integrity.tier_level ig)
      end
    in
    List.iter episode
      [
        ( "inline cache",
          fun () ->
            Policy.Engine.corrupt_site_cache engine
              (Policy.Engine.default_view engine)
              ~site:1 ~lo ~hi:(lo + Kernel.Memory.page_size)
              ~prot:Policy.Region.prot_rw ~smash_canary:true );
        ( "policy instance",
          fun () ->
            Policy.Engine.corrupt_instance engine
              ~base:first.Policy.Region.base
              ~prot:
                (if first.Policy.Region.prot = 0 then Policy.Region.prot_rw
                 else 0) );
      ];
    print_newline ();
    print_string (Policy.Integrity.render ig);
    (* the same numbers as the selfheal ioctl block reports them *)
    let arg = Kernel.map_user kernel ~size:64 in
    let rc =
      Kernel.ioctl kernel ~dev:"carat"
        ~cmd:Policy.Policy_module.ioctl_selfheal ~arg
    in
    if rc = 0 then begin
      let w i = Kernel.read kernel ~addr:(arg + (i * 8)) ~size:8 in
      Printf.printf
        "ioctl_selfheal: audits=%d detections=%d degradations=%d rebuilds=%d\n"
        (w 0) (w 1) (w 2) (w 3);
      Printf.printf
        "                abandoned=%d tier_level=%d ic_enabled=%d healthy=%d\n"
        (w 4) (w 5) (w 6) (w 7)
    end;
    let healed =
      Policy.Integrity.healthy ig
      && Policy.Integrity.tier_level ig = 2
      && Policy.Integrity.detections ig >= 2
      && Policy.Integrity.rebuilds ig >= 2
      && Invariants.stale_allows pm = []
    in
    if healed then begin
      Printf.printf
        "OK: all tiers detected, rebuilt, and re-promoted (%d watchdog fires, \
         0 stale allows)\n"
        (Kernel.Watchdog.fires wd);
      0
    end
    else begin
      Printf.eprintf
        "policy_manager: audit FAILED (healthy=%b tier_level=%d stale=%d)\n"
        (Policy.Integrity.healthy ig)
        (Policy.Integrity.tier_level ig)
        (Policy.Engine.stale_allows engine);
      3
    end

let cmd_lint file =
  let t = load file in
  let findings = Policy.Policy_lint.lint t in
  List.iter
    (fun f -> print_endline (Policy.Policy_lint.finding_to_string f))
    findings;
  let errs = Policy.Policy_lint.errors findings in
  Printf.printf "%s: %d error(s), %d warning(s) over %d region(s)\n" file
    (List.length errs)
    (List.length (Policy.Policy_lint.warnings findings))
    (List.length t.Policy.Policy_file.regions);
  if errs <> [] then 3 else 0

let cmd_set_mode file mode_str =
  match Policy.Policy_module.on_deny_of_string mode_str with
  | None ->
    Printf.eprintf
      "policy_manager: unknown mode %s (expected panic|quarantine|audit)\n"
      mode_str;
    1
  | Some mode ->
    let t = load_or_empty file in
    Policy.Policy_file.save file { t with Policy.Policy_file.mode };
    (* flip the mode on a live simulated kernel through the real ioctl,
       as a root operator would at run time *)
    let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
    let pm = Policy.Policy_module.install kernel in
    let rc =
      Kernel.ioctl kernel ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_set_mode
        ~arg:(Policy.Policy_module.on_deny_to_int mode)
    in
    let live =
      Kernel.ioctl kernel ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_get_mode
        ~arg:0
    in
    if
      rc <> 0
      || Policy.Policy_module.on_deny_of_int live <> Some mode
      || Policy.Policy_module.mode pm <> mode
    then begin
      Printf.eprintf "policy_manager: live mode switch failed (rc=%d)\n" rc;
      1
    end
    else begin
      Printf.printf "enforcement mode: %s (saved to %s; live ioctl ok)\n"
        (Policy.Policy_module.on_deny_to_string mode)
        file;
      0
    end

(* -- cmdliner wiring -- *)

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"POLICY")
let out_arg = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUTPUT")
let base_arg = Arg.(required & opt (some int) None & info [ "base" ])
let len_arg = Arg.(required & opt (some int) None & info [ "len" ])
let prot_arg = Arg.(value & opt string "rw" & info [ "prot" ])
let tag_arg = Arg.(value & opt string "" & info [ "tag" ])
let prepend_arg =
  Arg.(value & flag & info [ "prepend" ]
    ~doc:"Insert before existing rules (first match wins).")
let addr_arg = Arg.(required & opt (some int) None & info [ "addr" ])
let size_arg = Arg.(value & opt int 8 & info [ "size" ])
let write_arg = Arg.(value & flag & info [ "write" ])

let init_cmd =
  Cmd.v (Cmd.info "init" ~doc:"write the canonical two-region policy")
    Term.(const cmd_init $ out_arg)

let add_cmd =
  Cmd.v (Cmd.info "add" ~doc:"append a region rule")
    Term.(const cmd_add $ file_arg $ base_arg $ len_arg $ prot_arg $ tag_arg $ prepend_arg)

let remove_cmd =
  Cmd.v (Cmd.info "remove" ~doc:"remove the rule with the given base")
    Term.(const cmd_remove $ file_arg $ base_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"print the rules") Term.(const cmd_list $ file_arg)

let check_cmd =
  Cmd.v (Cmd.info "check" ~doc:"evaluate one access against the policy")
    Term.(const cmd_check $ file_arg $ addr_arg $ size_arg $ write_arg)

let push_cmd =
  Cmd.v (Cmd.info "push" ~doc:"load the policy into a simulated kernel via ioctl")
    Term.(const cmd_push $ file_arg)

let domain_override_arg =
  Arg.(value & opt (some string) None & info [ "domain" ] ~docv:"NAME"
    ~doc:"Install into this policy domain instead of the file's \
          $(b,domain) directive (empty = the root table).")

let push_batch_cmd =
  Cmd.v
    (Cmd.info "push-batch"
       ~doc:
         "install the whole policy in one atomic ioctl_install batch — \
          readers see the old table or the new one, never a partial \
          batch; honors the file's domain directive or --domain")
    Term.(const cmd_push_batch $ file_arg $ domain_override_arg)

let count_domains_arg =
  Arg.(value & opt int 4 & info [ "count" ] ~docv:"N"
    ~doc:"Number of policy domains to create (1..256).")

let domains_cmd =
  Cmd.v
    (Cmd.info "domains"
       ~doc:
         "create N policy domains on one simulated kernel, batch-install \
          the policy into each, probe them, and report per-domain stats \
          via ioctl_domain_stats and /proc/carat/domains")
    Term.(const cmd_domains $ file_arg $ count_domains_arg)

let mode_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"MODE"
    ~doc:"Enforcement on guard denial: panic, quarantine, or audit.")

let opt_arg =
  Arg.(value & opt (some string) None & info [ "opt" ] ~docv:"LEVEL"
    ~doc:"Also compile the e1000e driver at this guard-optimization \
          level (none, basic or aggressive), insert it, drive traffic \
          and report the dynamic check count at that tier.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "load the policy into a simulated kernel, drive a probe workload, \
          and print guard counters via ioctl_get_stats and /proc/carat/stats")
    Term.(const cmd_stats $ file_arg $ opt_arg)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "record the probe workload's guard events in the carat_trace ring \
          and drain them via ioctl_trace_read")
    Term.(const cmd_trace $ file_arg)

let netstats_cpus_arg =
  Arg.(value & opt int 4 & info [ "cpus" ] ~docv:"N"
    ~doc:"Simulated CPUs; each owns one RSS-steered RX queue (1..8).")

let netstats_cmd =
  Cmd.v
    (Cmd.info "netstats"
       ~doc:
         "run a short full-duplex workload (RSS-steered NAPI receive, \
          pktgen transmit, mid-run policy churn) and print the operator's \
          /proc/carat/net view of the RX queues; exit 1 on any stale allow")
    Term.(const cmd_netstats $ netstats_cpus_arg)

let cpus_storm_arg =
  Arg.(value & opt int 4 & info [ "cpus" ] ~docv:"N"
    ~doc:"Number of simulated CPUs (2..8).")

let updates_arg =
  Arg.(value & opt int 24 & info [ "updates" ] ~docv:"K"
    ~doc:"Remove/re-add pairs the writer CPU pushes through the ioctls.")

let storm_cmd =
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "stress policy updates on a simulated SMP kernel: one CPU churns \
          the table via ioctls (in-place writes under the epoch) while the \
          others run guard checks; fails if any stale allow is observed")
    Term.(const cmd_storm $ file_arg $ cpus_storm_arg $ updates_arg)

let set_mode_cmd =
  Cmd.v
    (Cmd.info "set-mode"
       ~doc:"set the enforcement mode (panic|quarantine|audit), live and on disk")
    Term.(const cmd_set_mode $ file_arg $ mode_arg)

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "load the policy with full guard tiers and the integrity watchdog, \
          corrupt every derived tier out-of-band, and verify the kernel \
          detects, degrades, rebuilds, and re-promotes; exit 3 if unhealed")
    Term.(const cmd_audit $ file_arg)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "statically check the policy for dead (shadowed) rules, \
          order-sensitive overlaps, capacity overflow, write-only \
          protections and domain page-shadow blind spots; exit 3 on \
          errors")
    Term.(const cmd_lint $ file_arg)

let () =
  let doc = "manage CARAT KOP memory-access policies (firewall rules)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "policy_manager" ~doc)
          [
            init_cmd; add_cmd; remove_cmd; list_cmd; check_cmd; push_cmd;
            push_batch_cmd; domains_cmd; stats_cmd; trace_cmd; netstats_cmd;
            set_mode_cmd; storm_cmd; audit_cmd; lint_cmd;
          ]))
