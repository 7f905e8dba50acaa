(** Assembly of the SMP pieces over one shared kernel: N {!Cpu}s (boot
    CPU adopts the kernel's machine and the engine's default view), the
    {!Rcu} route wrapping the policy module's mutations, and the
    {!Sched} context-switch hook that swaps machine + engine view.

    With [cpus:1] nothing changes hands — no secondary views, no route
    installed — so a 1-CPU system is cycle- and layout-identical to the
    classic single-CPU simulation. *)

type t = {
  kernel : Kernel.t;
  engine : Policy.Engine.t;
  pm : Policy.Policy_module.t;
  cpus : Cpu.t array;
  rcu : Rcu.t;
  seed : int;
  mutable race : Sanitizer.Race.t option;
}

let create ~seed ~params ~cpus:n kernel pm =
  if n < 1 then invalid_arg "System.create: cpus < 1";
  let engine = Policy.Policy_module.engine pm in
  let site_cache = Policy.Engine.site_cache_enabled engine in
  let cpus =
    Array.init n (fun i ->
        if i = 0 then Cpu.boot ~seed kernel engine
        else Cpu.secondary ~seed ~params ~site_cache engine ~id:i)
  in
  let rcu = Rcu.create pm in
  (* the route only adds SMP bookkeeping; a 1-CPU system keeps the bare
     write path *)
  if n > 1 then Rcu.attach rcu;
  { kernel; engine; pm; cpus; rcu; seed; race = None }

let cpus t = t.cpus
let ncpus t = Array.length t.cpus
let rcu t = t.rcu
let engine t = t.engine
let race t = t.race

(** Attach the happens-before race detector: per-CPU vector clocks with
    sync edges from the scheduler's context switches, each SMP policy
    write's revocation windows and table write, a module-access probe on
    the kernel's read/write path, and a guard-path probe recording each
    policy-table scan. Observation only — no simulated cycles are
    charged, so an instrumented run's decisions and figures are
    unchanged. Idempotent; returns the detector. *)
let enable_race_detector t =
  match t.race with
  | Some det -> det
  | None ->
    let det = Sanitizer.Race.create ~cpus:(ncpus t) in
    t.race <- Some det;
    Rcu.set_race t.rcu (Some det);
    Kernel.set_access_probe t.kernel
      (Some
         (fun ~addr ~size ~write ->
           let site =
             match Kernel.current_module t.kernel with
             | Some lm -> lm.Kernel.lm_name
             | None -> "kernel"
           in
           Sanitizer.Race.module_access det ~addr ~size ~write ~site));
    Policy.Policy_module.set_guard_probe t.pm
      (Some
         (fun ~site:_ ~addr ~size ~flags ->
           (* the guard's table scan is a ranged read of the live policy
              structure *)
           let base, len = Policy.Engine.table_region t.engine in
           Sanitizer.Race.range_read det ~lo:base ~hi:(base + len)
             ~site:"guard-table-scan";
           (* and the guarded access itself is a module access — checked
              here, at the guard, so even a store the policy *denies* is
              visible to the detector (detection at the faulting access,
              not only for accesses that execute) *)
           let site =
             match Kernel.current_module t.kernel with
             | Some lm -> lm.Kernel.lm_name
             | None -> "kernel"
           in
           Sanitizer.Race.module_access det ~addr ~size
             ~write:(flags land Policy.Region.prot_write <> 0)
             ~site));
    det

(** Give every CPU its own trace ring (ftrace-style per-CPU buffers).
    Returns the rings in CPU order; merge with {!Trace.merged_events}
    and friends. *)
let enable_tracing ?capacity t =
  Array.map
    (fun (c : Cpu.t) ->
      let tr = Trace.create ?capacity t.kernel in
      Trace.start tr;
      Policy.Engine.view_set_trace c.view (Some tr);
      tr)
    t.cpus

let traces t =
  Array.to_list t.cpus
  |> List.filter_map (fun (c : Cpu.t) -> Policy.Engine.view_trace c.view)

let on_switch t i =
  Cpu.make_current t.cpus.(i) t.kernel t.engine;
  match t.race with
  | Some det -> Sanitizer.Race.switch_to det i
  | None -> ()

(** Interleave the per-CPU step functions (see {!Sched.run}) under this
    system's context-switch hook. Restores CPU 0 as current when the run
    drains, so follow-on single-threaded code (stats reads, ioctls)
    charges the boot CPU. *)
let run ?quantum_max t steps =
  let out =
    Sched.run ?quantum_max ~on_switch:(on_switch t) ~seed:t.seed steps
  in
  Cpu.make_current t.cpus.(0) t.kernel t.engine;
  out

(** Per-CPU op counts folded over the interleave log. *)
let ops_by_cpu t (log : int list) =
  let a = Array.make (ncpus t) 0 in
  List.iter (fun c -> a.(c) <- a.(c) + 1) log;
  a
