(** The CARAT KOP policy module (§3.1): a kernel module that exports the
    single symbol [carat_guard] and owns the region table, configured by
    root through an ioctl on [/dev/carat].

    Protected modules transformed by the compiler call [carat_guard(addr,
    size, access_flags)] before every load/store; this module compares
    the access against the policy and, on a violation, logs it and causes
    a kernel panic — the paper's argued-for hard stop for HPC (§3.1):
    wrong policy, buggy module, or attack all warrant halting the node. *)

type on_deny =
  | Panic  (** the paper's behaviour: halt the node *)
  | Quarantine
      (** isolate the offending module (unlink its symbols, cancel its
          pending kernel-service callbacks, reject further calls into it
          with -EIO) and keep the kernel alive *)
  | Audit  (** record and continue — detection without enforcement *)

let on_deny_to_string = function
  | Panic -> "panic"
  | Quarantine -> "quarantine"
  | Audit -> "audit"

let on_deny_of_string = function
  | "panic" -> Some Panic
  | "quarantine" -> Some Quarantine
  | "audit" | "log" | "log-only" -> Some Audit
  | _ -> None

(* stable wire encoding for the set/get-mode ioctls *)
let on_deny_to_int = function Panic -> 0 | Quarantine -> 1 | Audit -> 2
let on_deny_of_int = function
  | 0 -> Some Panic
  | 1 -> Some Quarantine
  | 2 -> Some Audit
  | _ -> None

(** A policy mutation, reified so its application can be observed. Every
    mutation, on any number of CPUs, is applied by {!apply_in_place}; an
    SMP run installs a {!set_mutator} callback that wraps it with
    publication accounting and race-detector events. *)
type mutation =
  | M_add of Region.t
  | M_remove of int  (** region base *)
  | M_clear
  | M_set_default of bool
  | M_set_mode of on_deny
  | M_install of Region.t list
      (** batched install: all N regions land as ONE mutation, refused
          whole when they do not all fit *)
  | M_replace of Region.t list * bool
      (** whole policy + default action, validated whole like
          [M_install]; also the integrity layer's repair *)

type t = {
  kernel : Kernel.t;
  engine : Engine.t;
  mutable on_deny : on_deny;
  mutable mutator : (mutation -> int) option;
      (** control-plane mutation wrapper; [None] (the default) calls
          {!apply_in_place} directly *)
  mutable violations : (int * int * int) list;
      (** (addr, size, flags) of denied accesses, newest first *)
  mutable integrity : Integrity.t option;
      (** self-healing layer; [None] (the default) keeps the engine
          bit-identical to a pre-integrity build *)
  mutable watchdog : Kernel.Watchdog.t option;
      (** periodic driver for the integrity audit, created lazily *)
  mutable domains : Domain.t option;
      (** multi-tenant policy domains; [None] (the default) keeps the
          classic single-table engine path bit-identical *)
  module_domains : (string, int) Hashtbl.t;
      (** loaded-module name -> policy domain id; guards from a bound
          module are checked against its domain instead of the engine *)
  (* §5 extensions *)
  mutable intrinsic_allowed : int;
      (** bitmap over the kernel's intrinsic registry; bit i set = the
          intrinsic with id i is permitted *)
  mutable intrinsic_violations : int list;  (** denied intrinsic ids *)
  mutable cfi_targets : (int, unit) Hashtbl.t;
      (** allow-list of indirect-call target addresses *)
  mutable cfi_default_allow : bool;
  mutable cfi_violations : int list;  (** denied target addresses *)
  mutable guard_probe :
    (site:int -> addr:int -> size:int -> flags:int -> unit) option;
      (** observation hook fired on every guard invocation (race
          detector's table-scan read); [None] by default *)
}

let device_name = "carat"

(* ioctl command numbers, shared with the policy-manager tool *)
let ioctl_add = 1
let ioctl_remove = 2
let ioctl_clear = 3
let ioctl_count = 4
let ioctl_set_default = 5
let ioctl_stats_checks = 6
let ioctl_stats_denied = 7
(* §5 extensions *)
let ioctl_set_intrinsics = 8 (* arg = permission bitmap *)
let ioctl_get_intrinsics = 9
let ioctl_cfi_allow = 10 (* arg = target address to allow *)
let ioctl_cfi_default = 11 (* arg <> 0 = default allow *)
(* enforcement mode *)
let ioctl_set_mode = 12 (* arg = on_deny_to_int encoding *)
let ioctl_get_mode = 13
(* observability: engine statistics and the carat_trace ring *)
let ioctl_get_stats = 14
(* arg = user block of 8 x 8 bytes, filled with checks, allowed, denied,
   entries_scanned, ic_hits, ic_misses, trace recorded, trace dropped *)
let ioctl_trace_start = 15 (* arg = ring capacity hint; 0 = default *)
let ioctl_trace_stop = 16
let ioctl_trace_read = 17
(* arg = user block of 8 x 8 bytes; consumes the oldest unread event and
   fills seq, cycles, kind, site, addr, size, flags, info; returns 1 when
   an event was delivered, 0 when the ring is drained *)
(* self-healing *)
let ioctl_audit = 18
(* run one integrity audit cycle immediately; returns the number of
   corrupt tiers detected, or -EINVAL when integrity is not enabled *)
let ioctl_selfheal = 19
(* arg = user block of 8 x 8 bytes, filled with audits, detections,
   degradations, rebuilds, abandoned, tier_level, ic_enabled, healthy *)
(* multi-tenant policy domains *)
let ioctl_domain_create = 20
(* arg <> 0 = default-allow domain; returns the new domain id (> 0) *)
let ioctl_domain_destroy = 21 (* arg = domain id *)
let ioctl_install = 22
(* batched atomic install. arg = user block: domain(8), count(8), then
   count x 24-byte region records (base, len, prot). domain 0 targets
   the engine's root policy through the mutation router (one
   publication under SMP); ids > 0 target that policy domain.
   Returns 0, or a typed errno with NOTHING installed: the batch is
   validated whole first (-ENOSPC when it does not fit). *)
let ioctl_domain_stats = 23
(* arg = user block with the domain id at offset 0; filled with 8 x 8
   bytes: regions, epoch, checks, allowed, denied, structure (0 =
   linear, 1 = interval), shadow hits, shadow misses *)
let ioctl_domain_count = 24 (* returns the number of live domains *)

let install_batch_max = 4096

(* the trace ring is simulated kernel memory; cap operator-requested
   capacities at 1 Mi events so a typo'd ioctl cannot kmalloc the moon *)
let trace_capacity_max = 1 lsl 20

let guard_symbol = Passes.Guard_injection.guard_symbol_default
let intrinsic_guard_symbol = Passes.Intrinsic_guard.guard_symbol
let cfi_guard_symbol = Passes.Cfi_guard.guard_symbol

(* The single enforcement decision point shared by the memory, intrinsic
   and CFI guards: the violation is already logged and recorded when this
   runs, [what] names it for the panic/quarantine diagnosis. When a trace
   is attached, the last recorded events are snapshotted into the reason
   (and, verbatim, into the panic diagnostics), so a fault-campaign
   failure or a quarantine record carries the events leading up to the
   deny. *)
let enforce t ~what =
  let what, diag =
    match Engine.trace t.engine with
    | Some tr when Trace.recorded tr > 0 ->
      ( what ^ " [trace: " ^ Trace.tail_string tr 4 ^ "]",
        List.map Trace.format_event (Trace.recent tr 8) )
    | _ -> (what, [])
  in
  match t.on_deny with
  | Panic ->
    (match Engine.trace t.engine with
    | Some tr -> Trace.on_lifecycle tr Trace.Panic ~info:0
    | None -> ());
    Kernel.panic ~diag t.kernel what
  | Audit -> ()
  | Quarantine -> (
    match Kernel.current_module t.kernel with
    | Some lm ->
      Kernel.quarantine_module t.kernel lm ~reason:what;
      raise (Kernel.Quarantine_trap lm)
    | None ->
      (* a violation attributed to no module is core-kernel misbehaviour:
         there is nothing to isolate, so fall back to the hard stop *)
      Kernel.panic ~diag t.kernel what)

let handle_deny t ~addr ~size ~flags (matched : Region.t option) =
  t.violations <- (addr, size, flags) :: t.violations;
  (* let the sanitizer attribute the denied address to a heap allocation
     before enforcement (which may panic) unwinds *)
  Kernel.san_note_deny t.kernel ~addr ~size
    ~write:(flags land Region.prot_write <> 0);
  let what =
    if flags land Region.prot_write <> 0 then "write" else "read"
  in
  Kernel.Klog.log (Kernel.log t.kernel) Kernel.Klog.Err
    "CARAT KOP: forbidden %s of %d bytes at 0x%x%s" what size addr
    (match matched with
    | Some r -> Printf.sprintf " (region %s lacks permission)" (Region.to_string r)
    | None -> " (no matching region)");
  enforce t ~what:(Printf.sprintf "CARAT KOP guard violation at 0x%x" addr)

(* The guard body: the engine's fast path (inline-cache hit when the site
   cache is enabled, exact walk otherwise) decides; denial diagnostics
   come from the engine's last-deny slot, so the allow path allocates
   nothing. [site] is the compiler-assigned static guard-site id; -1 for
   legacy 3-argument callers. *)
let guard t ~site ~addr ~size ~flags =
  (match t.guard_probe with
  | Some f -> f ~site ~addr ~size ~flags
  | None -> ());
  let bound_domain =
    (* a module bound to a policy domain is checked against that domain;
       everything else (and every run with domains off) takes the classic
       engine path unchanged *)
    match t.domains with
    | None -> None
    | Some dm -> (
      match Kernel.current_module t.kernel with
      | None -> None
      | Some lm -> (
        match Hashtbl.find_opt t.module_domains lm.Kernel.lm_name with
        | Some id -> Some (dm, id)
        | None -> None))
  in
  match bound_domain with
  | Some (dm, domain) ->
    if not (Domain.check dm ~domain ~addr ~size ~flags) then
      handle_deny t ~addr ~size ~flags None
  | None ->
    if not (Engine.check_fast t.engine ~site ~addr ~size ~flags) then
      handle_deny t ~addr ~size ~flags (Engine.last_deny t.engine)

(** The §5 intrinsic guard: consult "a different policy table" — here a
    permission bitmap over the intrinsic registry. *)
let intrinsic_guard t ~id =
  Machine.Model.retire (Kernel.machine t.kernel) 3;
  if t.intrinsic_allowed land (1 lsl id) = 0 then begin
    t.intrinsic_violations <- id :: t.intrinsic_violations;
    let name =
      match Kernel.intrinsic_name id with Some n -> n | None -> "?"
    in
    Kernel.Klog.log (Kernel.log t.kernel) Kernel.Klog.Err
      "CARAT KOP: forbidden privileged intrinsic %s (id %d)" name id;
    enforce t ~what:(Printf.sprintf "CARAT KOP intrinsic violation (%s)" name)
  end

(** The §5 CFI guard: the indirect-call target must be on the operator's
    allow-list. *)
let cfi_guard t ~target =
  Machine.Model.retire (Kernel.machine t.kernel) 3;
  let ok = t.cfi_default_allow || Hashtbl.mem t.cfi_targets target in
  if not ok then begin
    t.cfi_violations <- target :: t.cfi_violations;
    let where =
      match Kernel.symbol_of_address t.kernel target with
      | Some n -> Printf.sprintf "@%s (0x%x)" n target
      | None -> Printf.sprintf "0x%x" target
    in
    Kernel.Klog.log (Kernel.log t.kernel) Kernel.Klog.Err
      "CARAT KOP: forbidden indirect call to %s" where;
    enforce t ~what:(Printf.sprintf "CARAT KOP CFI violation (target %s)" where)
  end

(** Attach the observability layer (idempotent). The carat_trace ring is
    created lazily — an untraced run never allocates it, so simulated
    memory layout and cycle counts stay bit-identical to a trace-free
    build (the bench tracegate pins this). *)
let enable_trace ?capacity t =
  match Engine.trace t.engine with
  | Some tr -> tr
  | None ->
    let tr = Trace.create ?capacity t.kernel in
    Engine.set_trace t.engine (Some tr);
    tr

let trace t = Engine.trace t.engine

(** Display tag for a region base, for trace renderings (the ring stores
    only bases; the policy knows the names). *)
let region_tag t base =
  List.find_map
    (fun (r : Region.t) ->
      if r.Region.base = base && r.Region.tag <> "" then Some r.Region.tag
      else None)
    (Engine.regions t.engine)

(* ioctl argument block: base(8) len(8) prot(8) at a user address *)
let read_region_arg t ~arg =
  let base = Kernel.read t.kernel ~addr:arg ~size:8 in
  let len = Kernel.read t.kernel ~addr:(arg + 8) ~size:8 in
  let prot = Kernel.read t.kernel ~addr:(arg + 16) ~size:8 in
  (base, len, prot)

(** Apply a mutation to the live table: validate it whole, edit the
    table in place, bump the epoch. The one write path for every CPU
    count; a refused mutation leaves the policy as it was. *)
let apply_in_place t (m : mutation) : int =
  match m with
  | M_add r -> (
    match Engine.add_region t.engine r with
    | Ok () -> 0
    | Error e ->
      (* the linear table refuses only when it is full *)
      Kernel.Klog.log (Kernel.log t.kernel) Kernel.Klog.Warn
        "carat ioctl add: %s" e;
      Kernel.enospc)
  | M_remove base -> if Engine.remove_region t.engine ~base then 0 else -1
  | M_clear ->
    Engine.clear t.engine;
    0
  | M_set_default b ->
    (* epoch-bumping setter: flips the default action and invalidates
       every inline cache in O(1) *)
    Engine.set_default_allow t.engine b;
    0
  | M_set_mode mode ->
    t.on_deny <- mode;
    (* mode flips change what a (stale) allow would have bypassed, so
       they invalidate the fast tiers like any policy push *)
    Engine.bump_epoch t.engine;
    Engine.lifecycle t.engine Trace.Mode_change ~info:(on_deny_to_int mode);
    Kernel.Klog.printk (Kernel.log t.kernel)
      "CARAT KOP enforcement mode -> %s" (on_deny_to_string mode);
    0
  | M_install rs ->
    if Engine.count t.engine + List.length rs > Engine.capacity t.engine then
      (* the whole batch cannot fit: refuse it before mutating *)
      Kernel.enospc
    else begin
      Engine.add_regions t.engine rs;
      0
    end
  | M_replace (rs, default_allow) ->
    if List.length rs > Engine.capacity t.engine then Kernel.enospc
    else begin
      Engine.set_policy t.engine rs;
      Engine.set_default_allow t.engine default_allow;
      0
    end

(** Apply a control-plane mutation through the registered mutator when
    one is installed, directly otherwise. *)
let apply t m = match t.mutator with Some f -> f m | None -> apply_in_place t m

(** Install/remove the mutation wrapper. The SMP layer registers
    [Smp.Rcu]'s route here; [None] restores the bare {!apply_in_place}. *)
let set_mutator t f = t.mutator <- f

(** Install/remove the guard observation probe (pure observation: the
    guard's decision and cycle charging are unchanged). *)
let set_guard_probe t f = t.guard_probe <- f

(** Replace the whole policy (regions + default action) as one mutation.
    It runs as one scheduler operation, so no other CPU reads the table
    mid-replace. *)
let replace_policy t ?(default_allow = false) rs =
  apply t (M_replace (rs, default_allow))

(** Attach the self-healing layer (idempotent, lazy like the trace ring:
    a run that never enables it allocates nothing and stays
    bit-identical). Repairs are [M_replace] mutations through the
    mutation router, like any operator policy push. *)
let enable_integrity ?config t =
  match t.integrity with
  | Some ig -> ig
  | None ->
    let ig =
      Integrity.create ?config
        ~route:(fun rs d -> ignore (apply t (M_replace (rs, d))))
        t.engine
    in
    t.integrity <- Some ig;
    ig

let integrity t = t.integrity

(** Attach the periodic watchdog driving the integrity audit (idempotent;
    enables integrity if it is not on yet). Workloads tick it with
    {!Kernel.Watchdog.run_pending}/[advance]. *)
let enable_watchdog ?config ?period t =
  match t.watchdog with
  | Some wd -> wd
  | None ->
    let ig = enable_integrity ?config t in
    let wd = Kernel.Watchdog.create ?period (Kernel.machine t.kernel) in
    Kernel.Watchdog.add_check wd ~name:"carat-integrity" (fun () ->
        Integrity.audit ig);
    t.watchdog <- Some wd;
    wd

let watchdog t = t.watchdog

(** Attach the multi-tenant domain layer (idempotent, lazy like trace and
    integrity: a run that never enables it allocates nothing and the
    classic engine path stays bit-identical). *)
let enable_domains ?fast_capacity ?big_capacity t =
  match t.domains with
  | Some dm -> dm
  | None ->
    let dm = Domain.create ?fast_capacity ?big_capacity t.kernel in
    t.domains <- Some dm;
    Kernel.Klog.printk (Kernel.log t.kernel)
      "CARAT KOP policy domains enabled";
    dm

let domains t = t.domains

(** Bind a loaded module (by name) to a policy domain: its guards are
    from now on checked against that domain's policy instead of the
    engine's root table. *)
let bind_module_domain t ~module_name ~domain =
  ignore (enable_domains t);
  Hashtbl.replace t.module_domains module_name domain

let unbind_module_domain t ~module_name =
  Hashtbl.remove t.module_domains module_name

let module_domain t ~module_name =
  Hashtbl.find_opt t.module_domains module_name

(* Argument validation: malformed ioctl arguments are rejected with the
   typed kernel error codes (-EINVAL / -ERANGE / -ENOTTY) rather than
   silently clamped or folded into the generic -1 — a policy tool that
   mis-encodes a region must hear about it, not install a narrower
   region than it asked for. *)
let handle_ioctl t _kernel ~cmd ~arg =
  if cmd = ioctl_add then begin
    if arg < 0 then Kernel.einval
    else begin
      let base, len, prot = read_region_arg t ~arg in
      if base < 0 || len <= 0 then Kernel.einval
      else if len > max_int - base then
        (* [base, base+len) must stay representable: a two's-complement
           negative length read back from user memory shows up here as an
           absurdly large positive one *)
        Kernel.erange
      else if prot land lnot Region.prot_rw <> 0 then Kernel.einval
      else apply t (M_add (Region.v ~tag:"ioctl" ~base ~len ~prot ()))
    end
  end
  else if cmd = ioctl_remove then begin
    if arg < 0 then Kernel.einval
    else begin
      let base = Kernel.read t.kernel ~addr:arg ~size:8 in
      if base < 0 then Kernel.einval else apply t (M_remove base)
    end
  end
  else if cmd = ioctl_clear then apply t M_clear
  else if cmd = ioctl_count then Engine.count t.engine
  else if cmd = ioctl_set_default then apply t (M_set_default (arg <> 0))
  else if cmd = ioctl_stats_checks then (Engine.merged_stats t.engine).Engine.checks
  else if cmd = ioctl_stats_denied then (Engine.merged_stats t.engine).Engine.denied
  else if cmd = ioctl_set_intrinsics then begin
    if arg < 0 then Kernel.einval
    else begin
      t.intrinsic_allowed <- arg;
      0
    end
  end
  else if cmd = ioctl_get_intrinsics then t.intrinsic_allowed
  else if cmd = ioctl_cfi_allow then begin
    if arg < 0 then Kernel.einval
    else begin
      Hashtbl.replace t.cfi_targets arg ();
      0
    end
  end
  else if cmd = ioctl_cfi_default then begin
    t.cfi_default_allow <- arg <> 0;
    0
  end
  else if cmd = ioctl_set_mode then begin
    match on_deny_of_int arg with
    | Some mode -> apply t (M_set_mode mode)
    | None -> Kernel.einval
  end
  else if cmd = ioctl_get_mode then on_deny_to_int t.on_deny
  else if cmd = ioctl_get_stats then begin
    if arg < 0 then Kernel.einval
    else begin
    let st = Engine.merged_stats t.engine in
    let tier = Engine.merged_tier t.engine in
    let recorded, dropped =
      match Engine.trace t.engine with
      | Some tr -> (Trace.recorded tr, Trace.dropped tr)
      | None -> (0, 0)
    in
    let w i v = Kernel.write t.kernel ~addr:(arg + (i * 8)) ~size:8 v in
    w 0 st.Engine.checks;
    w 1 st.Engine.allowed;
    w 2 st.Engine.denied;
    w 3 st.Engine.entries_scanned;
    w 4 tier.Engine.ic_hits;
    w 5 tier.Engine.ic_misses;
    w 6 recorded;
    w 7 dropped;
    0
    end
  end
  else if cmd = ioctl_trace_start then begin
    if arg < 0 then Kernel.einval
    else if arg > trace_capacity_max then Kernel.erange
    else begin
      let tr = enable_trace ?capacity:(if arg > 0 then Some arg else None) t in
      Trace.start tr;
      0
    end
  end
  else if cmd = ioctl_trace_stop then begin
    (match Engine.trace t.engine with
    | Some tr -> Trace.stop tr
    | None -> ());
    0
  end
  else if cmd = ioctl_trace_read then begin
    if arg < 0 then Kernel.einval
    else
      match Engine.trace t.engine with
      | None -> 0
      | Some tr -> (
        match Trace.read_next tr with
        | None -> 0
        | Some e ->
          let w i v = Kernel.write t.kernel ~addr:(arg + (i * 8)) ~size:8 v in
          w 0 e.Trace.seq;
          w 1 e.Trace.cycles;
          w 2 (Trace.kind_to_int e.Trace.kind);
          w 3 e.Trace.site;
          w 4 e.Trace.addr;
          w 5 e.Trace.size;
          w 6 e.Trace.flags;
          w 7 e.Trace.info;
          1)
  end
  else if cmd = ioctl_domain_create then
    (Domain.create_domain ~default_allow:(arg <> 0) (enable_domains t)).Domain.d_id
  else if cmd = ioctl_domain_destroy then begin
    if arg <= 0 then Kernel.einval
    else
      match t.domains with
      | None -> Kernel.einval
      | Some dm -> if Domain.destroy_domain dm arg then 0 else Kernel.einval
  end
  else if cmd = ioctl_install then begin
    if arg < 0 then Kernel.einval
    else begin
      let domain = Kernel.read t.kernel ~addr:arg ~size:8 in
      let n = Kernel.read t.kernel ~addr:(arg + 8) ~size:8 in
      if domain < 0 || n <= 0 then Kernel.einval
      else if n > install_batch_max then Kernel.erange
      else begin
        (* decode and validate the WHOLE batch before mutating anything:
           a malformed record rejects the batch with nothing installed *)
        let rec decode i acc =
          if i >= n then Ok (List.rev acc)
          else begin
            let base, len, prot = read_region_arg t ~arg:(arg + 16 + (i * 24)) in
            if base < 0 || len <= 0 then Error Kernel.einval
            else if len > max_int - base then Error Kernel.erange
            else if prot land lnot Region.prot_rw <> 0 then Error Kernel.einval
            else decode (i + 1) (Region.v ~tag:"ioctl" ~base ~len ~prot () :: acc)
          end
        in
        match decode 0 [] with
        | Error e -> e
        | Ok rs ->
          if domain = 0 then apply t (M_install rs)
          else (
            match t.domains with
            | None -> Kernel.einval
            | Some dm -> Domain.install_regions dm ~domain rs)
      end
    end
  end
  else if cmd = ioctl_domain_stats then begin
    if arg < 0 then Kernel.einval
    else
      match t.domains with
      | None -> Kernel.einval
      | Some dm -> (
        let id = Kernel.read t.kernel ~addr:arg ~size:8 in
        match Domain.find dm id with
        | None -> Kernel.einval
        | Some d ->
          let st = Domain.dom_stats d in
          let w i v = Kernel.write t.kernel ~addr:(arg + (i * 8)) ~size:8 v in
          w 0 (List.length (Domain.dom_regions d));
          w 1 (Domain.dom_epoch d);
          w 2 st.Engine.checks;
          w 3 st.Engine.allowed;
          w 4 st.Engine.denied;
          w 5 (if Domain.dom_structure d = "interval" then 1 else 0);
          w 6 (Domain.dom_shadow_hits d);
          w 7 (Domain.dom_shadow_misses d);
          0)
  end
  else if cmd = ioctl_domain_count then
    (match t.domains with None -> 0 | Some dm -> Domain.count dm)
  else if cmd = ioctl_audit then begin
    match t.integrity with
    | None -> Kernel.einval
    | Some ig -> Integrity.audit ig
  end
  else if cmd = ioctl_selfheal then begin
    if arg < 0 then Kernel.einval
    else
      match t.integrity with
      | None -> Kernel.einval
      | Some ig ->
        let w i v = Kernel.write t.kernel ~addr:(arg + (i * 8)) ~size:8 v in
        w 0 (Integrity.audits ig);
        w 1 (Integrity.detections ig);
        w 2 (Integrity.degradations ig);
        w 3 (Integrity.rebuilds ig);
        w 4 (Integrity.abandoned ig);
        w 5 (Integrity.tier_level ig);
        w 6 (if Engine.ic_enabled t.engine then 1 else 0);
        w 7 (if Integrity.healthy ig then 1 else 0);
        0
  end
  else Kernel.enotty

(** Insert the policy module into [kernel]: registers [carat_guard] and
    [/dev/carat]. Must happen before any protected module is inserted
    (their import of [carat_guard] will not resolve otherwise). *)
let install ?(capacity = Linear_table.default_capacity) ?(default_allow = false)
    ?(on_deny = Panic) ?(site_cache = false) kernel : t =
  let engine = Engine.create ~capacity ~default_allow kernel in
  if site_cache then Engine.enable_site_cache engine;
  let t =
    {
      kernel;
      engine;
      on_deny;
      mutator = None;
      violations = [];
      integrity = None;
      watchdog = None;
      domains = None;
      module_domains = Hashtbl.create 16;
      intrinsic_allowed = 0;
      intrinsic_violations = [];
      cfi_targets = Hashtbl.create 16;
      (* CFI allow-lists are opt-in: an operator who does not configure
         one keeps today's behaviour for indirect calls *)
      cfi_default_allow = true;
      cfi_violations = [];
      guard_probe = None;
    }
  in
  (* the guard's whole invocation — call included — is off the critical
     path of the surrounding module code, so an OoO core overlaps most
     of it (§4.2's explanation of the R350's near-zero cost); the kernel
     applies the machine's speculative-overlap discount to natives
     registered as overlapped *)
  Kernel.register_native ~overlapped:true kernel guard_symbol (fun _k args ->
      (match args with
      | [| addr; size; flags; site |] -> guard t ~site ~addr ~size ~flags
      | [| addr; size; flags |] -> guard t ~site:(-1) ~addr ~size ~flags
      | _ -> Kernel.panic kernel "carat_guard: bad arguments");
      0);
  Kernel.register_native ~overlapped:true kernel intrinsic_guard_symbol
    (fun _k args ->
      (match args with
      | [| id |] -> intrinsic_guard t ~id
      | _ -> Kernel.panic kernel "carat_intrinsic_guard: bad arguments");
      0);
  Kernel.register_native ~overlapped:true kernel cfi_guard_symbol
    (fun _k args ->
      (match args with
      | [| target |] -> cfi_guard t ~target
      | _ -> Kernel.panic kernel "carat_cfi_guard: bad arguments");
      0);
  Kernel.register_device kernel device_name (handle_ioctl t);
  (* module lifecycle events for the trace ring; the hooks read the
     engine's current sink, so a trace attached later still sees them *)
  Kernel.add_load_hook kernel (fun _k lm ->
      Engine.lifecycle engine Trace.Module_load
        ~info:(Hashtbl.hash lm.Kernel.lm_name land 0xffffff));
  Kernel.add_quarantine_hook kernel (fun _k lm ->
      Engine.lifecycle engine Trace.Module_quarantine
        ~info:(Hashtbl.hash lm.Kernel.lm_name land 0xffffff));
  Kernel.Klog.printk (Kernel.log kernel)
    "CARAT KOP policy module loaded (structure=linear, capacity=%d, default=%s)"
    capacity
    (if default_allow then "allow" else "deny");
  t

let engine t = t.engine
let mode t = t.on_deny

let set_on_deny t a =
  t.on_deny <- a;
  (* same invalidation contract as the set-mode ioctl *)
  Engine.bump_epoch t.engine;
  Engine.lifecycle t.engine Trace.Mode_change ~info:(on_deny_to_int a)
let violations t = t.violations
let intrinsic_violations t = t.intrinsic_violations
let cfi_violations t = t.cfi_violations

(** Permit the named intrinsics (kernel-side convenience; the user-space
    path is [ioctl_set_intrinsics]). Unknown names are ignored. *)
let allow_intrinsics t names =
  List.iter
    (fun n ->
      match Kernel.intrinsic_id n with
      | Some id -> t.intrinsic_allowed <- t.intrinsic_allowed lor (1 lsl id)
      | None -> ())
    names

let forbid_all_intrinsics t = t.intrinsic_allowed <- 0

(** Switch CFI to allow-list mode with the given permitted symbols. *)
let set_cfi_allowlist t symbols =
  Hashtbl.reset t.cfi_targets;
  t.cfi_default_allow <- false;
  List.iter
    (fun name ->
      match Kernel.symbol_address t.kernel name with
      | Some addr -> Hashtbl.replace t.cfi_targets addr ()
      | None -> ())
    symbols

(** Convenience: load a whole policy from the kernel side (tests and
    experiment harnesses; the user-space path is the ioctl). *)
let set_policy t rs = Engine.set_policy t.engine rs
