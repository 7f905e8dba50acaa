(* BENCHMARK.json is the single source of metric names, units,
   directions and regression bounds; the benchmark computes values and
   looks everything else up here, so the file and the program cannot
   drift apart silently (a listed metric the program does not compute
   is an error). *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  run_seconds : int;
  end_to_end : metric list;
  per_layer : metric list;
}

let metric ~bounded j =
  let better = Json.to_str (Json.field "better" j) in
  if better <> "higher" && better <> "lower" then
    raise (Json.Parse_error ("bad \"better\": " ^ better));
  {
    name = Json.to_str (Json.field "name" j);
    unit_ = Json.to_str (Json.field "unit" j);
    higher_is_better = better = "higher";
    bound = (if bounded then Some (Json.to_num (Json.field "bound" j)) else None);
  }

let load path =
  let j = Json.read_file path in
  {
    workloads =
      List.map (fun w -> Json.to_str (Json.field "name" w)) (Json.to_list (Json.field "workloads" j));
    run_seconds = int_of_float (Json.to_num (Json.field "run_seconds" j));
    end_to_end = List.map (metric ~bounded:true) (Json.to_list (Json.field "end_to_end" j));
    per_layer = List.map (metric ~bounded:false) (Json.to_list (Json.field "per_layer" j));
  }

(* Signed relative change of [next] against [prev], positive = worse. *)
let worsening m ~prev ~next =
  if prev = next then 0.0
  else
    let d = (next -. prev) /. Float.abs (if prev = 0.0 then 1.0 else prev) in
    if m.higher_is_better then -.d else d
