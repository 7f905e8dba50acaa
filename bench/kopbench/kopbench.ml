(* kopbench: the repository's benchmark. Four workloads, two clocks
   (simulated cycles, calibrated host time), and a traced per-layer run.
   See README.md in this directory.

     kopbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--spec FILE]
     kopbench compare OLD.json NEW.json [--spec FILE]
     kopbench repeat N [run options]
     kopbench --smoke [--spec FILE]

   Exit codes: 0 success, 1 a correctness check failed (or, for compare
   and repeat, a regression or an over-wide spread), 2 bad usage. *)

let usage () =
  prerr_endline
    "usage: kopbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spec FILE]\n\
    \       kopbench compare OLD.json NEW.json [--spec FILE]\n\
    \       kopbench repeat N [run options]\n\
    \       kopbench --smoke [--spec FILE]";
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  out : string;
  spec : string;
  smoke : bool;
  rest : string list;  (** positional arguments *)
}

let parse args =
  let int_arg name v = match int_of_string_opt v with Some n -> n | None -> prerr_endline ("bad " ^ name ^ ": " ^ v); usage () in
  let rec go o = function
    | [] -> { o with rest = List.rev o.rest }
    | "--workload" :: v :: r -> go { o with workload = Some v } r
    | "--seed" :: v :: r -> go { o with seed = int_arg "--seed" v } r
    | "--seconds" :: v :: r ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> go { o with seconds = Some s } r
      | _ -> prerr_endline ("bad --seconds: " ^ v); usage ())
    | "--trace" :: v :: r -> go { o with trace = int_arg "--trace" v <> 0 } r
    | "--out" :: v :: r -> go { o with out = v } r
    | "--spec" :: v :: r -> go { o with spec = v } r
    | "--smoke" :: r -> go { o with smoke = true } r
    | a :: _ when String.length a > 1 && a.[0] = '-' -> prerr_endline ("unknown option " ^ a); usage ()
    | a :: r -> go { o with rest = a :: o.rest } r
  in
  go
    { workload = None; seed = 1; seconds = None; trace = true; out = "BENCH_kop.json";
      spec = "BENCHMARK.json"; smoke = false; rest = [] }
    args

let load_spec path =
  try Spec.load path
  with Sys_error e | Json.Parse_error e ->
    Printf.eprintf "kopbench: cannot read %s: %s\n" path e;
    exit 2

(* ------------------------------------------------------------------ *)
(* running *)

(* Values checked against the spec: every listed metric must have been
   computed, and be finite. Returns the rows and the problems found. *)
let listed metrics computed =
  let rows, problems =
    List.split
      (List.map
         (fun (m : Spec.metric) ->
           match List.assoc_opt m.Spec.name computed with
           | Some v when Float.is_finite v -> ((m, v), [])
           | Some _ -> ((m, 0.0), [ "metric " ^ m.name ^ " is not finite" ])
           | None -> ((m, 0.0), [ "metric " ^ m.name ^ " was not computed" ]))
         metrics)
  in
  (rows, List.concat problems)

let print_table title rows =
  Printf.printf "  %s\n" title;
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.printf "    %-42s %18s  %s\n" m.Spec.name (Json.number v) m.unit_)
    rows

let print_ledger ledger =
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 ledger in
  Printf.printf "  ledger: simulated cycles per op by layer (traced pass; sums to the total exactly)\n";
  List.iter
    (fun (name, v) ->
      if v <> 0.0 then Printf.printf "    %-42s %14.2f  %5.1f%%\n" name v (100.0 *. v /. total))
    ledger;
  Printf.printf "    %-42s %14.2f\n" "total" total

type outcome = {
  r : Measure.result;
  e2e : (Spec.metric * float) list;
  layers : (Spec.metric * float) list;
  failures : string list;
}

let run_one spec (w : Workloads.t) ~seed ~seconds ~trace ~smoke =
  Printf.printf "\n== %s (seed %d) ==\n%!" w.Workloads.name seed;
  let r =
    try Measure.run w ~seed ~seconds ~trace ~smoke
    with e ->
      {
        Measure.workload = w.Workloads.name;
        failures = [ "uncaught exception: " ^ Printexc.to_string e ];
        attempted = 0;
        failed = 0;
        e2e = [];
        layers = [];
        ledger = [];
        spans = None;
      }
  in
  let e2e, p1 = listed spec.Spec.end_to_end r.Measure.e2e in
  let layers, p2 = if trace then listed spec.Spec.per_layer r.Measure.layers else ([], []) in
  let failures = r.Measure.failures @ p1 @ p2 in
  print_table "end-to-end" e2e;
  if trace then begin
    print_table "per layer" layers;
    print_ledger r.Measure.ledger
  end;
  if w.Workloads.name = "duplex-4cpu" then
    print_endline
      "  open loop in scheduler steps: each step offers 4 arrivals, stamped when due; the\n\
      \  generator is simulated and cannot run late (lateness 0 cycles)";
  (match failures with
  | [] -> print_endline "  checks: all passed"
  | l -> List.iter (Printf.eprintf "kopbench: %s: CHECK FAILED: %s\n%!" w.Workloads.name) l);
  (match r.Measure.spans with
  | Some j -> Json.write_file (Printf.sprintf "BENCH_kop_spans.%s.json" w.Workloads.name) j
  | None -> ());
  (* drop the span tree, or the next workload's host_live_mb would count it *)
  { r = { r with Measure.spans = None }; e2e; layers; failures }

let values rows = Json.Obj (List.map (fun ((m : Spec.metric), v) -> (m.Spec.name, Json.Num v)) rows)

let report ~seed ~seconds outcomes =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ( "workloads",
        Json.Obj
          (List.map
             (fun o ->
               ( o.r.Measure.workload,
                 Json.Obj
                   [
                     ("correct", Json.Bool (o.failures = []));
                     ("attempted", Json.Num (float_of_int o.r.Measure.attempted));
                     ("failed", Json.Num (float_of_int o.r.Measure.failed));
                     ("failures", Json.Arr (List.map (fun s -> Json.Str s) o.failures));
                     ("metrics", values o.e2e);
                     ("per_layer", values o.layers);
                   ] ))
             outcomes) );
    ]

(* The one-line result of a single-workload run, for tools that collect
   runs: end-to-end metrics, or the per-layer ones when traced. *)
let result_line o ~trace =
  let rows = if trace then o.layers else o.e2e in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.failures = []));
         ("attempted", Json.Num (float_of_int (max 1 o.r.Measure.attempted)));
         ("failed", Json.Num (float_of_int o.r.Measure.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun ((m : Spec.metric), v) ->
                  (m.Spec.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
                rows) );
       ])

let run_mode (o : opts) =
  let spec = load_spec o.spec in
  let workloads =
    match o.workload with
    | None -> List.filter_map Workloads.find spec.Spec.workloads
    | Some name -> (
      match Workloads.find name with
      | Some w when List.mem name spec.Spec.workloads -> [ w ]
      | _ -> prerr_endline ("unknown workload " ^ name); usage ())
  in
  let seconds =
    if o.smoke then 0.0 else Option.value o.seconds ~default:(float_of_int spec.Spec.run_seconds)
  in
  let outcomes =
    List.map (fun w -> run_one spec w ~seed:o.seed ~seconds ~trace:o.trace ~smoke:o.smoke) workloads
  in
  Json.write_file o.out (report ~seed:o.seed ~seconds outcomes);
  Printf.printf "\nwrote %s\n" o.out;
  (match (o.workload, outcomes) with
  | Some _, [ one ] -> print_endline (result_line one ~trace:o.trace)
  | _ -> ());
  (spec, outcomes)

(* ------------------------------------------------------------------ *)
(* compare *)

let load_report path =
  try
    List.map
      (fun (w, j) ->
        let obj k = List.map (fun (n, v) -> (n, Json.to_num v)) (Json.to_obj (Json.field k j)) in
        (w, (Json.field "correct" j = Json.Bool true, obj "metrics", obj "per_layer")))
      (Json.to_obj (Json.field "workloads" (Json.read_file path)))
  with Sys_error e | Json.Parse_error e ->
    Printf.eprintf "kopbench: cannot read report %s: %s\n" path e;
    exit 2

let compare_reports spec old_r new_r =
  let regressions = ref 0 in
  Printf.printf "%-12s %-40s %16s %16s %9s  %s\n" "workload" "metric" "old" "new" "delta" "verdict";
  List.iter
    (fun (w, (correct, e2e, layers)) ->
      match List.assoc_opt w old_r with
      | None -> Printf.printf "%-12s (not in the old report)\n" w
      | Some (_, old_e2e, old_layers) ->
        if not correct then begin
          incr regressions;
          Printf.printf "%-12s correctness checks failed in the new report: REGRESSION\n" w
        end;
        let row (m : Spec.metric) ~gated ~old_v ~new_v =
          let worse = Spec.worsening m ~prev:old_v ~next:new_v in
          let regress =
            match m.Spec.bound with
            | Some b when gated -> worse > b
            | _ -> m.name = "error_rate" && new_v > old_v
          in
          if regress then incr regressions;
          let verdict =
            if regress then "REGRESSION"
            else if worse = 0.0 then "same"
            else if worse < 0.0 then "better"
            else if gated then Printf.sprintf "worse, within %g%%" (100.0 *. Option.get m.bound)
            else "worse (no bound)"
          in
          let delta = if old_v = 0.0 then "" else Printf.sprintf "%+.3f%%" (100.0 *. (new_v -. old_v) /. Float.abs old_v) in
          Printf.printf "%-12s %-40s %16s %16s %9s  %s\n" w m.name (Json.number old_v) (Json.number new_v) delta verdict
        in
        List.iter
          (fun (set, old_set, metrics, gated) ->
            List.iter
              (fun (m : Spec.metric) ->
                match (List.assoc_opt m.Spec.name old_set, List.assoc_opt m.Spec.name set) with
                | Some old_v, Some new_v -> row m ~gated ~old_v ~new_v
                | _ -> ())
              metrics)
          [ (e2e, old_e2e, spec.Spec.end_to_end, true); (layers, old_layers, spec.Spec.per_layer, false) ])
    new_r;
  Printf.printf "\n%d regression(s)\n" !regressions;
  !regressions

(* ------------------------------------------------------------------ *)
(* repeat *)

(* Quartiles as Python's statistics.quantiles(data, n=4) computes them
   (the default, exclusive method). *)
let quartiles sorted =
  let n = Array.length sorted in
  if n < 2 then (sorted.(0), sorted.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((sorted.(j - 1) *. (4.0 -. delta)) +. (sorted.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

let repeat_mode (o : opts) n args =
  let spec = load_spec o.spec in
  let failed_runs = ref 0 in
  let reports =
    List.filter_map
      (fun i ->
        let out = Printf.sprintf "BENCH_kop.rep%d.json" i in
        if Sys.file_exists out then Sys.remove out;
        let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--out"; out ]) in
        Printf.printf "repeat: run %d/%d -> %s\n%!" i n out;
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin devnull Unix.stderr in
        Unix.close devnull;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ ->
          incr failed_runs;
          Printf.printf "repeat: run %d failed\n" i);
        if Sys.file_exists out then Some (load_report out) else None)
      (List.init n (fun i -> i + 1))
  in
  if reports = [] then exit 1;
  let flagged = ref 0 in
  Printf.printf "\n%-12s %-40s %16s %16s %16s %9s %8s\n" "workload" "metric" "min" "median" "max"
    "spread" "bound";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (m : Spec.metric) ->
          let vs =
            List.filter_map
              (fun r ->
                match List.assoc_opt w r with
                | Some (_, e2e, layers) -> (
                  match List.assoc_opt m.Spec.name e2e with
                  | Some v -> Some v
                  | None -> List.assoc_opt m.Spec.name layers)
                | None -> None)
              reports
          in
          if vs <> [] then begin
            let a = Array.of_list vs in
            Array.sort Float.compare a;
            let med = Host.median vs in
            let q1, q3 = quartiles a in
            let spread = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
            (* set-up time is gated on its median only: between processes
               it can spread wider than any allowed bound *)
            let over =
              match m.bound with Some b -> spread > b && m.name <> "setup_s" | None -> false
            in
            if over then incr flagged;
            Printf.printf "%-12s %-40s %16s %16s %16s %8.3f%% %8s%s\n" w m.name
              (Json.number a.(0)) (Json.number med) (Json.number a.(Array.length a - 1))
              (100.0 *. spread)
              (match m.bound with Some b -> Printf.sprintf "%g%%" (100.0 *. b) | None -> "-")
              (if over then "  SPREAD EXCEEDS BOUND" else "")
          end)
        (spec.Spec.end_to_end @ spec.Spec.per_layer))
    (List.hd reports);
  Printf.printf "\n%d run(s) failed, %d metric(s) spread beyond their bound\n" !failed_runs !flagged;
  if !failed_runs > 0 || !flagged > 0 then 1 else 0

(* ------------------------------------------------------------------ *)

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match o.rest with
  | [ "compare"; old_path; new_path ] ->
    let spec = load_spec o.spec in
    exit (if compare_reports spec (load_report old_path) (load_report new_path) > 0 then 1 else 0)
  | "repeat" :: n :: _ -> (
    match int_of_string_opt n with
    | Some n when n >= 1 ->
      (* forward everything after "repeat N" to each run *)
      let rec after = function "repeat" :: _ :: r -> r | _ :: r -> after r | [] -> [] in
      exit (repeat_mode o n (after (List.tl (Array.to_list Sys.argv))))
    | _ -> usage ())
  | [] when o.smoke ->
    (* tier-1 smoke: tiny counts, every workload, the traced run, the
       checks, compare of the report against itself, and a second seed
       that must move the simulated numbers and still pass *)
    let o = { o with out = "BENCH_kop.smoke.json"; trace = true } in
    let spec, outcomes = run_mode o in
    let _, reseeded =
      run_mode { o with seed = o.seed + 1; trace = false; out = "BENCH_kop.smoke2.json" }
    in
    let tx_pps x = List.assoc "tx_pps" (List.map (fun ((m : Spec.metric), v) -> (m.Spec.name, v)) x.e2e) in
    let unmoved =
      List.filter (fun (a, b) -> tx_pps a = tx_pps b) (List.combine outcomes reseeded)
    in
    List.iter
      (fun (a, _) -> Printf.eprintf "kopbench: %s: a second seed left tx_pps unchanged\n" a.r.Measure.workload)
      unmoved;
    let correct = List.for_all (fun x -> x.failures = []) (outcomes @ reseeded) in
    let r = load_report o.out in
    if (not correct) || unmoved <> [] || compare_reports spec r r > 0 then exit 1
  | [] ->
    let _, outcomes = run_mode o in
    if List.exists (fun x -> x.failures <> []) outcomes then exit 1
  | _ -> usage ()
