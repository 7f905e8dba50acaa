(* The host clock. Host time on a small shared machine moves between
   processes (CPU frequency, noisy neighbours) and between heap layouts
   within one process, so every host number is a calibrated
   minimum:

     (Σ over chunks of each chunk's fastest host ns / Σ ops)
     * cal_ref_ns / (min over runs of a fixed stdlib-only calibration
     kernel)

   The calibration kernel runs before every timed chunk and every timed
   build; [cal_ref_ns] is what it takes on the reference machine, so a
   calibrated number reads as "ns on the reference machine". Minima are
   taken because noise only ever adds time. *)

let cal_ref_ns = 2_300_000.0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Hash-table probes, byte stores into a table larger than L1 and short
   list allocations: the mix the simulator itself spends its time on,
   without touching any simulator code. *)
let cal_table = Hashtbl.create 4096
let cal_bytes = Bytes.make 65536 'a'

let cal_kernel () =
  let acc = ref 0 in
  for i = 0 to 59_999 do
    let k = (i * 7919) land 4095 in
    (match Hashtbl.find_opt cal_table k with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace cal_table k i);
    let b = (i * 131) land 65535 in
    Bytes.set cal_bytes b (Char.chr ((Char.code (Bytes.get cal_bytes b) + i) land 255));
    acc := !acc + List.fold_left ( + ) 0 [ i; k; b ]
  done;
  ignore (Sys.opaque_identity !acc)

type t = {
  mutable cal_min : int;  (** fastest calibration run, ns *)
  best : (int, int * int) Hashtbl.t;
      (** chunk index -> (fastest ns, ops). A chunk index names the same
          simulated work in every pass at one seed. *)
  mutable t0 : int;  (** start of the chunk being timed *)
  mutable builds : float list;  (** raw seconds per timed build *)
}

let create () = { cal_min = max_int; best = Hashtbl.create 64; t0 = 0; builds = [] }

let calibrate t =
  let t0 = now_ns () in
  cal_kernel ();
  t.cal_min <- min t.cal_min (now_ns () - t0)

let scale t = cal_ref_ns /. float_of_int t.cal_min

(** Bracket one timed run of chunk [chunk], [ops] operations. *)
let start t =
  calibrate t;
  t.t0 <- now_ns ()

let stop t ~chunk ~ops =
  let ns = now_ns () - t.t0 in
  match Hashtbl.find_opt t.best chunk with
  | Some (b, _) when b <= ns -> ()
  | _ -> Hashtbl.replace t.best chunk (ns, ops)

(** Uncalibrated ns per op over chunks [0, chunks): the sum of each
    chunk's fastest time over its ops. Summing per-chunk minima, rather
    than taking the single fastest chunk, keeps every chunk's work in the
    number, so it does not hinge on the cheapest traffic mix a seed
    happens to contain. *)
let raw_ns_per_op t ~chunks =
  let ns = ref 0 and ops = ref 0 in
  for c = 0 to chunks - 1 do
    match Hashtbl.find_opt t.best c with
    | Some (b, o) -> ns := !ns + b; ops := !ops + o
    | None -> ()
  done;
  float_of_int !ns /. float_of_int (max 1 !ops)

(** Time one build of a testbed, after compacting the heap so that each
    build starts from the same allocator state. *)
let build t f =
  Gc.compact ();
  calibrate t;
  let t0 = now_ns () in
  let r = f () in
  t.builds <- float_of_int (now_ns () - t0) *. 1e-9 :: t.builds;
  r

let ns_per_op t ~chunks = raw_ns_per_op t ~chunks *. scale t

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let setup_s t = median t.builds *. scale t
