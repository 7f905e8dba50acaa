(** End-to-end assembly of the evaluation testbed (§4): a booted kernel on
    one of the two machine models, the CARAT KOP policy module, the
    simulated NIC, the e1000e driver (baseline or transformed), and the
    thin network stack the user tool sends through. *)

type technique = Baseline | Carat

let technique_to_string = function Baseline -> "baseline" | Carat -> "carat"

type config = {
  machine : Machine.Model.params;
  technique : technique;
  policy : Policy.Region.t list;  (** installed for [Carat] runs *)
  structure : Policy.Engine.kind;
      (** unread: the policy module always enforces with the linear
          table; kept because kopbench's configs name it *)
  ring_entries : int;
  seed : int;
  stall_prob : float;  (** NIC flow-control pause probability per frame *)
  on_deny : Policy.Policy_module.on_deny;
  guard_opt : Passes.Pipeline.opt_level;
      (** guard-optimization tier: basic = CARAT-CAKE-style local
          elimination + hoisting, aggressive = the certified optimizer *)
  module_scale : int;
  with_rogue : bool;  (** include the driver's debug peek/poke backdoor *)
  engine : Vm.Engine.kind;  (** KIR execution engine (simulated cycles are
                                engine-independent) *)
  site_cache : bool;  (** enable the per-guard-site inline cache *)
  trace : bool;  (** attach the guard-event ring and start recording *)
  trace_capacity : int;  (** ring slots when [trace] (rounded to pow2) *)
}

let default_config =
  {
    machine = Machine.Presets.r350;
    technique = Carat;
    policy = Policy.Region.kernel_only;
    structure = Policy.Engine.Linear;
    ring_entries = 64;
    seed = 1;
    stall_prob = 0.0;
    on_deny = Policy.Policy_module.Panic;
    guard_opt = Passes.Pipeline.O_none;
    module_scale = 12;
    with_rogue = false;
    engine = Vm.Engine.Interp;
    site_cache = false;
    trace = false;
    trace_capacity = Trace.default_capacity;
  }

type t = {
  config : config;
  kernel : Kernel.t;
  vm : Vm.Interp.state;
  policy_module : Policy.Policy_module.t;
  device : Nic.Device.t;
  stack : Net.Netstack.t;
  driver : Kernel.loaded_module;
  driver_kir : Kir.Types.modul;
}

(** Compile the driver for the configured technique: the CARAT KOP
    pipeline for [Carat] (attest, inject guards, sign), signing only for
    [Baseline]. *)
let compile_driver config =
  let m =
    Nic.Driver_gen.generate ~module_scale:config.module_scale
      ~with_rogue:config.with_rogue ()
  in
  (match config.technique with
  | Carat -> ignore (Passes.Pipeline.compile ~opt:config.guard_opt m)
  | Baseline ->
    ignore
      (Passes.Pass.run_pipeline_checked (Passes.Pipeline.baseline_sign ()) m));
  m

let create ?(config = default_config) () : t =
  (* baseline runs model today's permissive kernel: no transform required
     at insertion. Carat runs enforce the full validation protocol. *)
  let require_signature = config.technique = Carat in
  let kernel =
    (* Carat kernels also demand the guard-completeness certificate:
       the full compile -> certify -> sign -> insert chain *)
    Kernel.create ~require_signature ~require_certificate:require_signature
      ~seed:config.seed config.machine
  in
  let vm = Vm.Engine.install ~kind:config.engine kernel in
  let policy_module =
    Policy.Policy_module.install ~on_deny:config.on_deny
      ~site_cache:config.site_cache kernel
  in
  if config.trace then
    (* attach before policy push / insmod so lifecycle events are captured *)
    Trace.start
      (Policy.Policy_module.enable_trace ~capacity:config.trace_capacity
         policy_module);
  (match config.technique with
  | Carat -> Policy.Policy_module.set_policy policy_module config.policy
  | Baseline -> ());
  let device =
    Nic.Device.create ~stall_prob:config.stall_prob ~seed:(config.seed + 17)
      kernel
  in
  let driver_kir = compile_driver config in
  let driver =
    match Kernel.insmod kernel driver_kir with
    | Ok lm -> lm
    | Error e -> failwith ("insmod e1000e: " ^ Kernel.load_error_to_string e)
  in
  let stack =
    Net.Netstack.create ~noise_seed:(config.seed + 31) kernel device
  in
  Net.Netstack.bring_up stack ~ring_entries:config.ring_entries;
  { config; kernel; vm; policy_module; device; stack; driver; driver_kir }

(** Convenience accessors *)
let kernel t = t.kernel
let stack t = t.stack
let device t = t.device
let policy_module t = t.policy_module
let machine t = Kernel.machine t.kernel
let driver t = t.driver

(** Run one pktgen trial on this testbed. *)
let run_pktgen t (cfg : Net.Pktgen.config) = Net.Pktgen.run t.stack cfg
