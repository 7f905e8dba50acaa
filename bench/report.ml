(* The one report path of the gated bench targets. A target records its
   gate failures as they happen; [finish] writes its fields, the
   failures and a [gates_passed] verdict to BENCH_<target>.json with
   kopbench's JSON writer, then prints each failure as
   "<target>: FAIL: ..." in order and exits 1 if there was any. *)

type t = { target : string; mutable failures : string list (* newest first *) }

let create target = { target; failures = [] }
let fail r fmt = Printf.ksprintf (fun s -> r.failures <- s :: r.failures) fmt

(* named fields; Json.number refuses nan and infinities *)
let number x = if Float.is_finite x then Json.Num x else Json.Null
let num k x = (k, number x)
let int k n = (k, Json.Num (float_of_int n))
let str k s = (k, Json.Str s)
let bool k b = (k, Json.Bool b)
let obj k fields = (k, Json.Obj fields)
let nums k xs = (k, Json.Arr (List.map number xs))

(* one object per element of [xs] *)
let table k f xs = (k, Json.Arr (List.map (fun x -> Json.Obj (f x)) xs))

let finish r fields =
  let failures = List.rev r.failures in
  let path = Printf.sprintf "BENCH_%s.json" r.target in
  let verdict =
    [ ("failures", Json.Arr (List.map (fun s -> Json.Str s) failures));
      bool "gates_passed" (failures = []) ]
  in
  Json.write_file path (Json.Obj (fields @ verdict));
  Printf.printf "  wrote %s\n" path;
  if failures <> [] then begin
    List.iter (Printf.eprintf "%s: FAIL: %s\n" r.target) failures;
    exit 1
  end
