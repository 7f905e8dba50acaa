(** Deterministic round-robin SMP scheduler.

    The simulation has no real concurrency: each CPU's workload is a
    step function that runs one *operation* (one sendmsg, one ioctl, one
    guard probe — whatever the workload's unit is) to completion, and
    the scheduler interleaves those operations. A seeded PRNG draws each
    timeslice quantum (1..[quantum_max] operations), so the interleaving
    is irregular enough to exercise cross-CPU races yet exactly
    reproducible: same seed + same workload = same interleaving, same
    per-CPU cycle counts, same trace streams.

    An operation never yields mid-way, so a policy write made in one
    operation is whole before any other CPU runs again; {!Rcu} relies on
    this. *)

type stats = {
  mutable slices : int;  (** context switches (timeslices started) *)
  mutable ops : int;  (** total operations across all CPUs *)
}

(** Run the per-CPU step functions to completion. [steps.(c) ()] runs
    one operation on CPU [c] and returns [false] when that CPU's
    workload is exhausted. [on_switch c] fires when CPU [c] is placed on
    the (simulated) hardware, before its first operation of the slice.
    Returns the interleave log: the CPU id of every operation, in
    execution order (a workload fingerprint for the determinism
    tests). *)
let run ?(quantum_max = 3) ?(on_switch = ignore) ~seed
    (steps : (unit -> bool) array) : int list * stats =
  let n = Array.length steps in
  if n = 0 then invalid_arg "Sched.run: no cpus";
  let rng = Machine.Rng.create (seed lxor 0x5EED) in
  let live = Array.make n true in
  let remaining = ref n in
  let log = ref [] in
  let stats = { slices = 0; ops = 0 } in
  let cur = ref 0 in
  while !remaining > 0 do
    while not live.(!cur) do
      cur := (!cur + 1) mod n
    done;
    let c = !cur in
    stats.slices <- stats.slices + 1;
    on_switch c;
    let quantum = 1 + Machine.Rng.int rng quantum_max in
    let k = ref 0 in
    while !k < quantum && live.(c) do
      incr k;
      log := c :: !log;
      stats.ops <- stats.ops + 1;
      let more = steps.(c) () in
      if not more then begin
        live.(c) <- false;
        decr remaining
      end
    done;
    cur := (c + 1) mod n
  done;
  (List.rev !log, stats)
