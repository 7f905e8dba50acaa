(* Spans for the traced run, recorded only through the program's public
   hooks and around the benchmark's own calls:

   - [Kernel.set_runner] around the installed KIR runner: one span per
     KIR call, nested calls parented to their caller;
   - [Kernel.resolve] + [Kernel.register_native], keeping the overlapped
     flag, around [carat_guard] and [memcpy];
   - the benchmark's own client loop, policy updates and set-up steps.

   Each span has a name, parent, CPU, simulated start/end ticks and host
   start/end ns. Self time is duration minus what the children
   contributed, kept per layer as spans close, so the per-layer ledger
   needs no span storage; the first [capacity] spans are also kept in
   preallocated arrays for the span file.

   The guard native is called through [Kernel.call_native_overlapped],
   which charges the call overhead before the native runs and then keeps
   only [speculative_overlap] of (overhead + body). A guard span therefore
   contributes that visible share to its parent, computed exactly as the
   kernel computes it; [probe_overlap] checks the arithmetic against the
   kernel on a live call. *)

let layers =
  [|
    "tool"; "net.irq"; "net.sendmsg"; "kernel.memcpy"; "vm.xmit"; "vm.irq";
    "vm.napi_poll"; "vm.other"; "policy.guard"; "policy.update";
  |]

let tool = 0
let net_irq = 1
let net_sendmsg = 2
let memcpy = 3
let vm_xmit = 4
let vm_irq = 5
let vm_napi_poll = 6
let vm_other = 7
let guard = 8
let update = 9
let nlayers = Array.length layers
let is_vm l = l >= vm_xmit && l <= vm_other

let capacity = 50_000
let max_depth = 256

type t = {
  kernel : Kernel.t;
  machines : Machine.Model.t array;  (** CPU i's machine *)
  h_origin : int;
  (* open-span stack *)
  mutable depth : int;
  st_layer : int array;
  st_idx : int array;
  st_t0 : int array;
  st_h0 : int array;
  st_child_ticks : int array;
  st_child_ns : int array;
  st_overlapped : bool array;
  (* per-layer aggregates *)
  calls : int array;  (** spans entered from a different layer *)
  self_ticks : int array;
  self_ns : int array;
  raw_ticks : int array;  (** full duration, before any overlap discount *)
  contrib_ticks : int array;  (** what the spans added to their parents *)
  mutable top_ticks : int;  (** summed contribution of parentless spans *)
  mutable last_contrib : int;
  (* stored spans *)
  mutable count : int;
  s_name : int array;
  s_parent : int array;
  s_cpu : int array;
  s_t0 : int array;
  s_t1 : int array;
  s_h0 : int array;
  s_h1 : int array;
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (** newest first *)
  mutable errors : string list;
}

(* The recorder in use, if any: enter/exit are no-ops without one, so
   the benchmark's own spans cost one branch in untraced runs. *)
let current : t option ref = ref None

let create kernel machines =
  let z () = Array.make max_depth 0 and c () = Array.make capacity 0 in
  let l () = Array.make nlayers 0 in
  {
    kernel;
    machines;
    h_origin = Host.now_ns ();
    depth = 0;
    st_layer = z ();
    st_idx = z ();
    st_t0 = z ();
    st_h0 = z ();
    st_child_ticks = z ();
    st_child_ns = z ();
    st_overlapped = Array.make max_depth false;
    calls = l ();
    self_ticks = l ();
    self_ns = l ();
    raw_ticks = l ();
    contrib_ticks = l ();
    top_ticks = 0;
    last_contrib = 0;
    count = 0;
    s_name = c ();
    s_parent = c ();
    s_cpu = c ();
    s_t0 = c ();
    s_t1 = c ();
    s_h0 = c ();
    s_h1 = c ();
    names = Hashtbl.create 64;
    name_list = [];
    errors = [];
  }

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.replace t.names name i;
    t.name_list <- name :: t.name_list;
    i

let cpu_of t m =
  let rec go i =
    if i >= Array.length t.machines then -1
    else if t.machines.(i) == m then i
    else go (i + 1)
  in
  go 0

let push t ~layer ~name ~overlapped =
  let d = t.depth in
  if d >= max_depth then failwith "span stack overflow";
  let m = Kernel.machine t.kernel in
  let idx = t.count in
  t.count <- idx + 1;
  let h = Host.now_ns () in
  if idx < capacity then begin
    t.s_name.(idx) <- name;
    t.s_parent.(idx) <- (if d > 0 then t.st_idx.(d - 1) else -1);
    t.s_cpu.(idx) <- cpu_of t m;
    t.s_t0.(idx) <- m.Machine.Model.ticks;
    t.s_h0.(idx) <- h - t.h_origin
  end;
  if d = 0 || t.st_layer.(d - 1) <> layer then t.calls.(layer) <- t.calls.(layer) + 1;
  t.st_layer.(d) <- layer;
  t.st_idx.(d) <- idx;
  t.st_t0.(d) <- m.Machine.Model.ticks;
  t.st_h0.(d) <- h;
  t.st_child_ticks.(d) <- 0;
  t.st_child_ns.(d) <- 0;
  t.st_overlapped.(d) <- overlapped;
  t.depth <- d + 1

(* What [Kernel.call_native_overlapped] leaves on the clock for a native
   whose body took [raw] ticks: overhead + body, times the overlap. *)
let visible (m : Machine.Model.t) raw =
  let p = m.Machine.Model.p in
  int_of_float
    (float_of_int (raw + (p.Machine.Model.call_overhead * Machine.Model.ticks_per_cycle))
    *. p.Machine.Model.speculative_overlap)

let pop t =
  let d = t.depth - 1 in
  t.depth <- d;
  let m = Kernel.machine t.kernel in
  let t1 = m.Machine.Model.ticks and h1 = Host.now_ns () in
  let raw = t1 - t.st_t0.(d) and hdur = h1 - t.st_h0.(d) in
  let contrib = if t.st_overlapped.(d) then visible m raw else raw in
  if t.st_overlapped.(d) && t.st_child_ticks.(d) <> 0 then
    t.errors <- "an overlapped native contains child spans" :: t.errors;
  let layer = t.st_layer.(d) in
  t.self_ticks.(layer) <- t.self_ticks.(layer) + contrib - t.st_child_ticks.(d);
  t.self_ns.(layer) <- t.self_ns.(layer) + hdur - t.st_child_ns.(d);
  t.raw_ticks.(layer) <- t.raw_ticks.(layer) + raw;
  t.contrib_ticks.(layer) <- t.contrib_ticks.(layer) + contrib;
  t.last_contrib <- contrib;
  if d > 0 then begin
    t.st_child_ticks.(d - 1) <- t.st_child_ticks.(d - 1) + contrib;
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + hdur
  end
  else t.top_ticks <- t.top_ticks + contrib;
  let idx = t.st_idx.(d) in
  if idx < capacity then begin
    t.s_t1.(idx) <- t1;
    t.s_h1.(idx) <- h1 - t.h_origin
  end

(** Open a span of one of the benchmark's own layers. *)
let enter layer =
  match !current with
  | None -> ()
  | Some t -> push t ~layer ~name:layer ~overlapped:false

let exit () = match !current with None -> () | Some t -> pop t

(* [f] under a span, closed on the way out whatever happens. *)
let wrap t ~layer ~name ~overlapped f =
  push t ~layer ~name ~overlapped;
  match f () with
  | r -> pop t; r
  | exception e -> pop t; raise e

let kir_layer name =
  let has sub =
    let n = String.length name and k = String.length sub in
    let rec go i = i + k <= n && (String.sub name i k = sub || go (i + 1)) in
    go 0
  in
  if has "xmit" then vm_xmit
  else if has "irq_handler" || has "rx_disable" then vm_irq
  else if has "napi_poll" || has "rx_enable" then vm_napi_poll
  else vm_other

(** Start recording on [kernel]: wrap the installed KIR runner and the
    [carat_guard] / [memcpy] natives. Layer names occupy the first name
    ids, so a stored span's name is its layer unless it is a KIR call. *)
let start kernel machines =
  let t = create kernel machines in
  Array.iter (fun n -> ignore (intern t n)) layers;
  (match !(kernel.Kernel.runner) with
  | None -> failwith "kopbench: no KIR runner installed"
  | Some run ->
    Kernel.set_runner kernel (fun k lm (f : Kir.Types.func) args ->
        let d = t.depth in
        let layer =
          if d > 0 && is_vm t.st_layer.(d - 1) then t.st_layer.(d - 1)
          else kir_layer f.Kir.Types.f_name
        in
        wrap t ~layer ~name:(intern t f.Kir.Types.f_name) ~overlapped:false (fun () ->
            run k lm f args)));
  let hook_native sym layer =
    let name = layer in
    match Kernel.resolve kernel sym with
    | Some (Kernel.R_native fn) ->
      Kernel.register_native kernel sym (fun k args ->
          wrap t ~layer ~name ~overlapped:false (fun () -> fn k args))
    | Some (Kernel.R_native_overlapped fn) ->
      Kernel.register_native ~overlapped:true kernel sym (fun k args ->
          wrap t ~layer ~name ~overlapped:true (fun () -> fn k args))
    | _ -> failwith ("kopbench: no native " ^ sym)
  in
  hook_native Policy.Policy_module.guard_symbol guard;
  hook_native "memcpy" memcpy;
  current := Some t;
  t

let stop () = current := None

(** Call the wrapped guard once from outside any span and check that the
    span's contribution is exactly what the kernel left on the clock.
    [addr] must be allowed by the live policy. *)
let probe_overlap t ~addr =
  let m = Kernel.machine t.kernel in
  let before = m.Machine.Model.ticks in
  ignore
    (Kernel.call_symbol t.kernel Policy.Policy_module.guard_symbol
       [| addr; 8; Policy.Region.prot_read; -1 |]);
  let charged = m.Machine.Model.ticks - before in
  (charged, t.last_contrib)

let to_json t ~workload ~seed =
  let n = min t.count capacity in
  let span i =
    Json.Arr
      (List.map
         (fun a -> Json.Num (float_of_int a.(i)))
         [ t.s_name; t.s_parent; t.s_cpu; t.s_t0; t.s_t1; t.s_h0; t.s_h1 ])
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("fields", Json.Arr (List.map (fun s -> Json.Str s)
                   [ "name"; "parent"; "cpu"; "sim_t0_ticks"; "sim_t1_ticks"; "host_t0_ns"; "host_t1_ns" ]));
      ("ticks_per_cycle", Json.Num (float_of_int Machine.Model.ticks_per_cycle));
      ("names", Json.Arr (List.rev_map (fun s -> Json.Str s) t.name_list));
      ("spans_total", Json.Num (float_of_int t.count));
      ("spans_written", Json.Num (float_of_int n));
      ("spans", Json.Arr (List.init n span));
    ]
