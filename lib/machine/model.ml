(** Cycle cost model for a simulated x86 server.

    The model is deliberately simple but mechanism-faithful: what made
    CARAT KOP cheap on real hardware (paper §4.2) is that guard code is
    (a) cache-hot — the 64-entry region table fits in L1 — and (b)
    perfectly predictable — the region-check branches "generally go the
    same way". We reproduce exactly those two mechanisms with a real cache
    hierarchy and a real gshare predictor, plus an issue-width divisor
    that models superscalar overlap (the R350 hides more of the guard's
    ALU work than the R415).

    Cycle accounting is done in ticks of 1/12 cycle so that fractional
    per-instruction costs (e.g. 1/4 cycle per ALU op on a 4-wide machine)
    stay exact in integer arithmetic. *)

let ticks_per_cycle = 12

type params = {
  name : string;
  description : string;
  freq_ghz : float;
  issue_width : int;  (** simple ALU ops retired per cycle *)
  line_size : int;
  l1_size : int;
  l1_assoc : int;
  l1_latency : int;  (** extra cycles charged on an L1 hit *)
  l2_size : int;
  l2_assoc : int;
  l2_latency : int;
  l3_size : int;
  l3_assoc : int;
  l3_latency : int;
  mem_latency : int;
  predictor_entries_log2 : int;
  predictor_history_bits : int;
  mispredict_penalty : int;
  call_overhead : int;  (** cycles per call/return pair *)
  syscall_overhead : int;  (** user->kernel->user crossing, cycles *)
  mmio_latency : int;  (** uncached device register read, cycles *)
  mmio_write_latency : int;
      (** posted device register write — absorbed by the write buffer,
          far cheaper than a read *)
  speculative_overlap : float;
      (** fraction of off-critical-path work (guard bodies) that remains
          visible after out-of-order overlap; the paper credits
          "improved caching, branch prediction, and speculation" for the
          R350's near-zero guard cost — this is the speculation part *)
}

type t = {
  p : params;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  bp : Predictor.t;
  mutable ticks : int;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable mmio_accesses : int;
}

let create (p : params) : t =
  {
    p;
    l1 =
      Cache.create ~name:"L1d" ~size_bytes:p.l1_size ~assoc:p.l1_assoc
        ~line_size:p.line_size;
    l2 =
      Cache.create ~name:"L2" ~size_bytes:p.l2_size ~assoc:p.l2_assoc
        ~line_size:p.line_size;
    l3 =
      Cache.create ~name:"L3" ~size_bytes:p.l3_size ~assoc:p.l3_assoc
        ~line_size:p.line_size;
    bp =
      Predictor.create ~entries_log2:p.predictor_entries_log2
        ~history_bits:p.predictor_history_bits;
    ticks = 0;
    instructions = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    mmio_accesses = 0;
  }

let cycles t = t.ticks / ticks_per_cycle

(** Elapsed simulated wall-clock time in seconds. *)
let seconds t = float_of_int (cycles t) /. (t.p.freq_ghz *. 1e9)

let add_cycles t c = t.ticks <- t.ticks + (c * ticks_per_cycle)
let add_ticks t k = t.ticks <- t.ticks + k

(** Retire [n] simple ALU/move ops: n/issue_width cycles. *)
let retire t n =
  t.instructions <- t.instructions + n;
  add_ticks t (n * ticks_per_cycle / t.p.issue_width)

(** Cost of touching one line, in ticks. L1 hits are pipelined: an
    out-of-order core issues [issue_width] loads per cycle against a hot
    line, so a hit costs latency/width; misses expose their full
    latency. *)
let hierarchy_cost_ticks t addr =
  if Cache.access t.l1 addr then
    t.p.l1_latency * ticks_per_cycle / t.p.issue_width
  else if Cache.access t.l2 addr then t.p.l2_latency * ticks_per_cycle
  else if Cache.access t.l3 addr then t.p.l3_latency * ticks_per_cycle
  else t.p.mem_latency * ticks_per_cycle

(* Sum of line costs for [addr, lines), accumulated without a ref cell:
   loads sit on the guard fast path, which must not allocate. Lines are
   visited in ascending order, exactly like the loop it replaces. *)
let rec lines_cost_ticks t addr lines l acc =
  if l >= lines then acc
  else
    lines_cost_ticks t addr lines (l + 1)
      (acc + hierarchy_cost_ticks t (addr + (l * t.p.line_size)))

(** A data load of [size] bytes at [addr]; cost depends on which level
    hits, charged per line touched. *)
let load t addr size =
  t.loads <- t.loads + 1;
  t.instructions <- t.instructions + 1;
  let lines = Int.max 1 (Cache.lines_touched t.l1 addr size) in
  add_ticks t (lines_cost_ticks t addr lines 0 0)

(** A data store. With a store buffer, stores retire quickly; cache fill
    still happens (write-allocate) but half the miss latency is hidden. *)
let store t addr size =
  t.stores <- t.stores + 1;
  t.instructions <- t.instructions + 1;
  let lines = Int.max 1 (Cache.lines_touched t.l1 addr size) in
  add_ticks t (lines_cost_ticks t addr lines 0 0 / 2)

(** Conditional branch at site [pc] with outcome [taken]. *)
let branch t ~pc ~taken =
  t.branches <- t.branches + 1;
  t.instructions <- t.instructions + 1;
  if Predictor.branch t.bp ~pc ~taken then
    add_ticks t (ticks_per_cycle / t.p.issue_width)
  else add_cycles t t.p.mispredict_penalty

let call t =
  t.instructions <- t.instructions + 2;
  add_cycles t t.p.call_overhead

let syscall t = add_cycles t t.p.syscall_overhead

let mmio t =
  t.mmio_accesses <- t.mmio_accesses + 1;
  t.instructions <- t.instructions + 1;
  add_cycles t t.p.mmio_latency

let mmio_write t =
  t.mmio_accesses <- t.mmio_accesses + 1;
  t.instructions <- t.instructions + 1;
  add_cycles t t.p.mmio_write_latency

(** Bulk data movement by the core (e.g. the kernel copying a payload
    from user space into an skb): pipelined word copies through the
    cache. Charged at [size/word] loads+stores with streaming behaviour
    approximated by touching each line once. *)
let memcpy t ~dst ~src size =
  let lines_src = Int.max 1 (Cache.lines_touched t.l1 src size) in
  let lines_dst = Int.max 1 (Cache.lines_touched t.l1 dst size) in
  let cost = ref 0 in
  for l = 0 to lines_src - 1 do
    cost := !cost + hierarchy_cost_ticks t (src + (l * t.p.line_size))
  done;
  for l = 0 to lines_dst - 1 do
    cost := !cost + (hierarchy_cost_ticks t (dst + (l * t.p.line_size)) / 2)
  done;
  (* plus the word-by-word retire cost *)
  let words = (size + 7) / 8 in
  retire t (2 * words / 3);
  add_ticks t !cost

(** Run [f], discounting the cycles it accrues to the machine's
    speculative-overlap fraction. Used for guard bodies, whose results
    gate correctness but not the dataflow of the surrounding code — an
    out-of-order core hides most of their cost. *)
let with_overlap t f =
  let t0 = t.ticks in
  let r = f () in
  let spent = t.ticks - t0 in
  let visible =
    int_of_float (float_of_int spent *. t.p.speculative_overlap)
  in
  t.ticks <- t0 + visible;
  r

(** Closure-free variant of {!with_overlap} for hot callers (the guard
    native): bracket the overlapped section with [overlap_start]/
    [overlap_end]. Skipping [overlap_end] on an exception matches
    {!with_overlap}, which also leaves the full cost in place when [f]
    raises. *)
let overlap_start t = t.ticks

let overlap_end t t0 =
  let spent = t.ticks - t0 in
  t.ticks <- t0 + int_of_float (float_of_int spent *. t.p.speculative_overlap)

(** Inter-trial noise: partially pollute caches, as other processes and
    interrupt handlers would. *)
let perturb t rng ~fraction =
  Cache.perturb t.l1 rng ~fraction;
  Cache.perturb t.l2 rng ~fraction:(fraction /. 2.0);
  Cache.perturb t.l3 rng ~fraction:(fraction /. 4.0)

type snapshot = {
  s_cycles : int;
  s_instructions : int;
  s_loads : int;
  s_stores : int;
  s_branches : int;
  s_mmio : int;
}

let snapshot t =
  {
    s_cycles = cycles t;
    s_instructions = t.instructions;
    s_loads = t.loads;
    s_stores = t.stores;
    s_branches = t.branches;
    s_mmio = t.mmio_accesses;
  }

let delta a b =
  {
    s_cycles = b.s_cycles - a.s_cycles;
    s_instructions = b.s_instructions - a.s_instructions;
    s_loads = b.s_loads - a.s_loads;
    s_stores = b.s_stores - a.s_stores;
    s_branches = b.s_branches - a.s_branches;
    s_mmio = b.s_mmio - a.s_mmio;
  }
