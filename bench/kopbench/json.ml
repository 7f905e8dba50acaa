(* Just enough JSON for the benchmark's own files: BENCHMARK.json, the
   BENCH_kop*.json reports and the span dumps. The toolchain has no JSON
   library, and these files are small. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Shortest decimal that reads back as the same float, so a measured
   value keeps all its digits without printing noise digits. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Json.number: not finite"
  else if Float.is_integer x && Float.abs x < 9e15 then
    Printf.sprintf "%.0f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num x -> Buffer.add_string b (number x)
  | Str s -> Buffer.add_string b (escape s)
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (escape k);
        Buffer.add_string b ": ";
        write b v)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code =
            match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse s

let write_file path v =
  let oc = open_out_bin path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

let field k = function
  | Obj l -> (
    match List.assoc_opt k l with
    | Some x -> x
    | None -> raise (Parse_error ("missing key " ^ k)))
  | _ -> raise (Parse_error "expected an object")

let to_num = function Num x -> x | _ -> raise (Parse_error "expected a number")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Parse_error "expected an array")
let to_obj = function Obj l -> l | _ -> raise (Parse_error "expected an object")
