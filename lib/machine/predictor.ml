(** Gshare branch predictor: a table of 2-bit saturating counters indexed
    by (branch PC hash) xor (global history). The key behaviour for the
    paper's result: the branches inside [carat_guard] "generally go the
    same way", so after warm-up they predict perfectly and the guard costs
    almost nothing on a wide machine. *)

type t = {
  mask : int;
  counters : Bytes.t;      (** 2-bit counters, one byte each *)
  history_bits : int;
  mutable history : int;
  mutable predicted : int;
  mutable mispredicted : int;
}

let create ~entries_log2 ~history_bits =
  let n = 1 lsl entries_log2 in
  {
    mask = n - 1;
    counters = Bytes.make n '\001';  (* weakly not-taken *)
    history_bits;
    history = 0;
    predicted = 0;
    mispredicted = 0;
  }

let index t pc =
  (* pc is an arbitrary identifier for the branch site; mix then fold *)
  let h = pc * 0x9e3779b9 in
  ((h lsr 7) lxor h lxor t.history) land t.mask

(** Record an executed branch outcome; true = predicted correctly. *)
let branch t ~pc ~taken =
  let i = index t pc in
  let c = Char.code (Bytes.get t.counters i) in
  let prediction = c >= 2 in
  let correct = prediction = taken in
  if correct then t.predicted <- t.predicted + 1
  else t.mispredicted <- t.mispredicted + 1;
  let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set t.counters i (Char.chr c');
  t.history <-
    ((t.history lsl 1) lor (if taken then 1 else 0))
    land ((1 lsl t.history_bits) - 1);
  correct

let accuracy t =
  let total = t.predicted + t.mispredicted in
  if total = 0 then 1.0 else float_of_int t.predicted /. float_of_int total

let reset_stats t =
  t.predicted <- 0;
  t.mispredicted <- 0

let clear t =
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\001';
  t.history <- 0;
  reset_stats t
