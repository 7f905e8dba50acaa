(** A simulated CPU: private machine model (clock, caches, branch
    predictor) and a per-CPU policy-engine view (stats, tier counters,
    inline cache, trace ring, denial diagnostic).

    The kernel image itself — memory, symbols, modules, devices — is
    shared; {!Sched} swaps the kernel's machine and the engine's current
    view on every context switch, so whatever runs next charges its
    cycles to the right core and hits the right inline cache.

    CPU 0 is the boot CPU: it *adopts* the kernel's existing machine and
    the engine's default view, so a 1-CPU SMP system is the classic
    single-CPU simulation, bit for bit. *)

type t = {
  id : int;
  machine : Machine.Model.t;
  view : Policy.Engine.view;
  rng : Machine.Rng.t;  (** per-CPU workload noise stream *)
  mutable ops : int;  (** scheduler operations completed *)
}

(** The boot CPU: adopts the kernel's machine and the engine's default
    view (single-CPU behaviour unchanged). *)
let boot ?(seed = 0) kernel engine =
  {
    id = 0;
    machine = Kernel.machine kernel;
    view = Policy.Engine.default_view engine;
    rng = Machine.Rng.create (seed lxor 0xC0DE);
    ops = 0;
  }

(** An application CPU: fresh machine model (same preset — homogeneous
    SMP), fresh engine view with its own inline cache when the engine
    runs one. *)
let secondary ?(seed = 0) ~params ~site_cache engine ~id =
  {
    id;
    machine = Machine.Model.create params;
    view = Policy.Engine.new_view ~site_cache engine;
    rng = Machine.Rng.create (seed lxor (0xC0DE + (id * 0x9e37)));
    ops = 0;
  }

let cycles t = Machine.Model.cycles t.machine

(** Make [t] the running CPU: the kernel charges cycles to its machine
    and the policy engine uses its view. *)
let make_current t kernel engine =
  Kernel.set_machine kernel t.machine;
  Policy.Engine.set_current_view engine t.view
