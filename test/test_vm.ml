(* VM: width-aware arithmetic, interpreter semantics, control flow,
   error paths. *)

open Carat_kop
open Kir.Types

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- arith ---------- *)

let test_truncate () =
  checki "i8 wrap" 0x34 (Vm.Arith.truncate I8 0x1234);
  checki "i16 wrap" 0x5678 (Vm.Arith.truncate I16 0x345678);
  checki "i32 wrap" 0xFFFFFFFF (Vm.Arith.truncate I32 (-1));
  checki "i64 identity" (-1) (Vm.Arith.truncate I64 (-1))

let test_signed_views () =
  checki "i8 -1" (-1) (Vm.Arith.to_signed I8 0xFF);
  checki "i8 127" 127 (Vm.Arith.to_signed I8 0x7F);
  checki "i16 min" (-32768) (Vm.Arith.to_signed I16 0x8000);
  checki "i32 -2" (-2) (Vm.Arith.to_signed I32 0xFFFFFFFE);
  checki "i64 passthrough" (-5) (Vm.Arith.to_signed I64 (-5))

let test_binops () =
  checki "add wrap i8" 0 (Vm.Arith.binop I8 Add 0xFF 1);
  checki "sub" 5 (Vm.Arith.binop I64 Sub 8 3);
  checki "mul wrap i16" 0 (Vm.Arith.binop I16 Mul 0x100 0x100);
  checki "sdiv signed i8" (-2) (Vm.Arith.to_signed I8 (Vm.Arith.binop I8 Sdiv 0xFC 2));
  checki "srem" 1 (Vm.Arith.binop I64 Srem 7 3);
  checki "and" 0b100 (Vm.Arith.binop I64 And 0b110 0b101);
  checki "or" 0b111 (Vm.Arith.binop I64 Or 0b110 0b101);
  checki "xor" 0b011 (Vm.Arith.binop I64 Xor 0b110 0b101);
  checki "shl" 16 (Vm.Arith.binop I64 Shl 1 4);
  checki "shl out of range" 0 (Vm.Arith.binop I64 Shl 1 64);
  checki "lshr i32" 0x7FFFFFFF (Vm.Arith.binop I32 Lshr 0xFFFFFFFF 1);
  checki "ashr i8 sign fill" 0xFF (Vm.Arith.binop I8 Ashr 0x80 7)

let test_division_by_zero () =
  (match Vm.Arith.binop I64 Sdiv 1 0 with
  | exception Vm.Arith.Division_by_zero -> ()
  | _ -> Alcotest.fail "sdiv by zero");
  match Vm.Arith.binop I64 Srem 1 0 with
  | exception Vm.Arith.Division_by_zero -> ()
  | _ -> Alcotest.fail "srem by zero"

let test_compare () =
  let t cond ty a b = Vm.Arith.compare_values ty cond a b in
  checkb "eq" true (t Eq I64 5 5);
  checkb "ne" true (t Ne I64 5 6);
  checkb "slt signed i8" true (t Slt I8 0xFF 0) (* -1 < 0 *);
  checkb "ult unsigned i8" false (t Ult I8 0xFF 0) (* 255 !< 0 *);
  checkb "sge" true (t Sge I32 0 0xFFFFFFFF) (* 0 >= -1 *);
  checkb "ugt" true (t Ugt I32 0xFFFFFFFF 0);
  checkb "sle" true (t Sle I64 (-3) (-3));
  checkb "uge eq" true (t Uge I16 7 7)

let prop_arith_add_commutes =
  QCheck.Test.make ~name:"add commutes at every width" ~count:300
    QCheck.(triple (oneofl [I8; I16; I32; I64]) int int)
    (fun (ty, a, b) ->
      Vm.Arith.binop ty Add a b = Vm.Arith.binop ty Add b a)

let prop_arith_sub_inverse =
  QCheck.Test.make ~name:"x + y - y = x (mod width)" ~count:300
    QCheck.(triple (oneofl [I8; I16; I32]) int int)
    (fun (ty, x, y) ->
      let s = Vm.Arith.binop ty Add x y in
      Vm.Arith.binop ty Sub s y = Vm.Arith.truncate ty x)

(* ---------- interpreter ---------- *)

(* a kernel with no policy module: plain execution *)
let fresh () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let vm = Vm.Interp.install kernel in
  (kernel, vm)

let load_module kernel m =
  match Kernel.insmod kernel m with
  | Ok lm -> lm
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e)

let simple_fn name build =
  let b = Kir.Builder.create (name ^ "_mod") in
  build b;
  Kir.Builder.modul b

let test_factorial () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "fact" (fun b ->
        ignore
          (Kir.Builder.start_func b "fact" ~params:[ ("%n", I64) ]
             ~ret:(Some I64));
        let base = Kir.Builder.icmp b Sle I64 (Reg "%n") (Imm 1) in
        let bb = Kir.Builder.new_block b ~hint:"base" () in
        let rb = Kir.Builder.new_block b ~hint:"rec" () in
        Kir.Builder.cond_br b base ~if_true:bb ~if_false:rb;
        Kir.Builder.position_at b bb;
        Kir.Builder.ret b (Some (Imm 1));
        Kir.Builder.position_at b rb;
        let n1 = Kir.Builder.sub b I64 (Reg "%n") (Imm 1) in
        let r = Option.get (Kir.Builder.call b "fact" [ n1 ]) in
        let p = Kir.Builder.mul b I64 (Reg "%n") r in
        Kir.Builder.ret b (Some p))
  in
  ignore (load_module kernel m);
  checki "10!" 3628800 (Kernel.call_symbol kernel "fact" [| 10 |]);
  checki "0!" 1 (Kernel.call_symbol kernel "fact" [| 0 |])

let test_memory_roundtrip () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "mem" (fun b ->
        ignore
          (Kir.Builder.start_func b "put_get"
             ~params:[ ("%p", I64); ("%v", I64) ]
             ~ret:(Some I64));
        Kir.Builder.store b I64 (Reg "%v") (Reg "%p");
        let r = Kir.Builder.load b I64 (Reg "%p") in
        Kir.Builder.ret b (Some r))
  in
  ignore (load_module kernel m);
  let buf = Kernel.kmalloc kernel ~size:8 in
  checki "store/load" 0xDEAD (Kernel.call_symbol kernel "put_get" [| buf; 0xDEAD |]);
  checki "persisted" 0xDEAD (Kernel.read kernel ~addr:buf ~size:8)

let test_narrow_memory () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "narrow" (fun b ->
        ignore
          (Kir.Builder.start_func b "wr8"
             ~params:[ ("%p", I64); ("%v", I64) ]
             ~ret:None);
        Kir.Builder.store b I8 (Reg "%v") (Reg "%p");
        Kir.Builder.ret b None)
  in
  ignore (load_module kernel m);
  let buf = Kernel.kmalloc kernel ~size:8 in
  Kernel.write kernel ~addr:buf ~size:8 0;
  ignore (Kernel.call_symbol kernel "wr8" [| buf; 0x1FF |]);
  checki "truncated to byte" 0xFF (Kernel.read kernel ~addr:buf ~size:8)

let test_globals_resolution () =
  let kernel, _ = fresh () in
  let b = Kir.Builder.create "glob" in
  ignore (Kir.Builder.declare_global b "x" ~size:8 ~init:"\042");
  ignore (Kir.Builder.start_func b "get_x" ~params:[] ~ret:(Some I64));
  let v = Kir.Builder.load b I8 (Sym "x") in
  Kir.Builder.ret b (Some v);
  ignore (load_module kernel (Kir.Builder.modul b));
  checki "initialized global" 42 (Kernel.call_symbol kernel "get_x" [||])

let test_select_switch () =
  let kernel, _ = fresh () in
  let b = Kir.Builder.create "ctrl" in
  ignore (Kir.Builder.start_func b "pick" ~params:[ ("%c", I64) ] ~ret:(Some I64));
  let cnd = Kir.Builder.icmp b Ne I64 (Reg "%c") (Imm 0) in
  let s = Kir.Builder.select b cnd (Imm 111) (Imm 222) in
  Kir.Builder.ret b (Some s);
  ignore (Kir.Builder.start_func b "route" ~params:[ ("%k", I64) ] ~ret:(Some I64));
  let b1 = Kir.Builder.new_block b () in
  let b2 = Kir.Builder.new_block b () in
  let bd = Kir.Builder.new_block b () in
  Kir.Builder.switch b (Reg "%k") [ (1, b1); (2, b2) ] ~default:bd;
  Kir.Builder.position_at b b1;
  Kir.Builder.ret b (Some (Imm 10));
  Kir.Builder.position_at b b2;
  Kir.Builder.ret b (Some (Imm 20));
  Kir.Builder.position_at b bd;
  Kir.Builder.ret b (Some (Imm 99));
  ignore (load_module kernel (Kir.Builder.modul b));
  checki "select true" 111 (Kernel.call_symbol kernel "pick" [| 5 |]);
  checki "select false" 222 (Kernel.call_symbol kernel "pick" [| 0 |]);
  checki "switch 1" 10 (Kernel.call_symbol kernel "route" [| 1 |]);
  checki "switch 2" 20 (Kernel.call_symbol kernel "route" [| 2 |]);
  checki "switch default" 99 (Kernel.call_symbol kernel "route" [| 7 |])

let test_alloca_frames () =
  let kernel, _ = fresh () in
  let b = Kir.Builder.create "frames" in
  ignore (Kir.Builder.start_func b "inner" ~params:[] ~ret:(Some I64));
  let p = Kir.Builder.alloca b 16 in
  Kir.Builder.store b I64 (Imm 7) p;
  let v = Kir.Builder.load b I64 p in
  Kir.Builder.ret b (Some v);
  ignore (Kir.Builder.start_func b "outer" ~params:[] ~ret:(Some I64));
  let q = Kir.Builder.alloca b 16 in
  Kir.Builder.store b I64 (Imm 3) q;
  let r = Option.get (Kir.Builder.call b "inner" []) in
  let w = Kir.Builder.load b I64 q in
  let s = Kir.Builder.add b I64 r w in
  Kir.Builder.ret b (Some s);
  ignore (load_module kernel (Kir.Builder.modul b));
  (* inner's frame must not clobber outer's *)
  checki "frames isolated" 10 (Kernel.call_symbol kernel "outer" [||])

let test_indirect_call () =
  let kernel, _ = fresh () in
  let b = Kir.Builder.create "indirect" in
  ignore (Kir.Builder.start_func b "target" ~params:[ ("%x", I64) ] ~ret:(Some I64));
  let d = Kir.Builder.mul b I64 (Reg "%x") (Imm 2) in
  Kir.Builder.ret b (Some d);
  ignore (Kir.Builder.start_func b "trampoline" ~params:[ ("%x", I64) ] ~ret:(Some I64));
  Kir.Builder.emit b
    (Callind { dst = Some "%r"; fn = Sym "target"; args = [ Reg "%x" ] });
  Kir.Builder.ret b (Some (Reg "%r"));
  ignore (load_module kernel (Kir.Builder.modul b));
  checki "indirect doubles" 14 (Kernel.call_symbol kernel "trampoline" [| 7 |])

let test_divide_error_panics () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "div" (fun b ->
        ignore
          (Kir.Builder.start_func b "div"
             ~params:[ ("%a", I64); ("%b", I64) ]
             ~ret:(Some I64));
        let q = Kir.Builder.binop b Sdiv I64 (Reg "%a") (Reg "%b") in
        Kir.Builder.ret b (Some q))
  in
  ignore (load_module kernel m);
  checki "normal division" 4 (Kernel.call_symbol kernel "div" [| 8; 2 |]);
  match Kernel.call_symbol kernel "div" [| 8; 0 |] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "no panic on divide error"

let test_stack_overflow_panics () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "deep" (fun b ->
        ignore (Kir.Builder.start_func b "deep" ~params:[] ~ret:(Some I64));
        ignore (Kir.Builder.alloca b 8192);
        let r = Option.get (Kir.Builder.call b "deep" []) in
        Kir.Builder.ret b (Some r))
  in
  ignore (load_module kernel m);
  match Kernel.call_symbol kernel "deep" [||] with
  | exception Kernel.Panic info ->
    checkb "mentions stack" true
      (String.length info.Kernel.reason > 0)
  | _ -> Alcotest.fail "no stack overflow"

let test_step_budget () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Interp.install ~max_steps:1000 kernel);
  let m =
    simple_fn "spin" (fun b ->
        ignore (Kir.Builder.start_func b "spin" ~params:[] ~ret:(Some I64));
        let head = Kir.Builder.new_block b () in
        Kir.Builder.br b head;
        Kir.Builder.position_at b head;
        Kir.Builder.br b head)
  in
  ignore (load_module kernel m);
  match Kernel.call_symbol kernel "spin" [||] with
  | exception Vm.Interp.Vm_error _ -> ()
  | _ -> Alcotest.fail "infinite loop not stopped"

let test_unreachable_panics () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "unr" (fun b ->
        ignore (Kir.Builder.start_func b "unr" ~params:[] ~ret:None);
        Kir.Builder.set_term b Unreachable)
  in
  ignore (load_module kernel m);
  match Kernel.call_symbol kernel "unr" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "unreachable executed silently"

let test_inline_asm_panics_at_runtime () =
  (* unsigned kernel accepts the module; executing the asm still traps *)
  let kernel, _ = fresh () in
  let m =
    simple_fn "asm" (fun b ->
        ignore (Kir.Builder.start_func b "poke" ~params:[] ~ret:None);
        Kir.Builder.inline_asm b "wrmsr";
        Kir.Builder.ret b None)
  in
  ignore (load_module kernel m);
  match Kernel.call_symbol kernel "poke" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "inline asm executed"

let test_bad_arity_call () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "id" (fun b ->
        ignore (Kir.Builder.start_func b "id" ~params:[ ("%x", I64) ] ~ret:(Some I64));
        Kir.Builder.ret b (Some (Reg "%x")))
  in
  ignore (load_module kernel m);
  match Kernel.call_symbol kernel "id" [| 1; 2 |] with
  | exception Vm.Interp.Vm_error _ -> ()
  | _ -> Alcotest.fail "bad arity accepted"

let test_cycles_accumulate () =
  let kernel, _ = fresh () in
  let m =
    simple_fn "busy" (fun b ->
        ignore (Kir.Builder.start_func b "busy" ~params:[ ("%n", I64) ] ~ret:(Some I64));
        Kir.Builder.mov_to b "%acc" I64 (Imm 0);
        Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%n") ~step:(Imm 1)
          (fun i ->
            let s = Kir.Builder.add b I64 (Reg "%acc") i in
            Kir.Builder.mov_to b "%acc" I64 s);
        Kir.Builder.ret b (Some (Reg "%acc")))
  in
  ignore (load_module kernel m);
  (* warm caches and predictor once, then compare warm runs *)
  ignore (Kernel.call_symbol kernel "busy" [| 100 |]);
  let c0 = Machine.Model.cycles (Kernel.machine kernel) in
  checki "sum" 4950 (Kernel.call_symbol kernel "busy" [| 100 |]);
  let c1 = Machine.Model.cycles (Kernel.machine kernel) in
  checkb "cycles charged" true (c1 - c0 > 100);
  (* longer run costs proportionally more *)
  let c2 = Machine.Model.cycles (Kernel.machine kernel) in
  ignore (Kernel.call_symbol kernel "busy" [| 1000 |]);
  let c3 = Machine.Model.cycles (Kernel.machine kernel) in
  checkb "scales with iterations" true (c3 - c2 > 3 * (c1 - c0))

(* The compiled engine's runner finds a cached function without building
   a key or an option: a warm call of a one-block function allocates only
   its frame, the compiled body's own arrays and the kernel's call
   bracket — 17 minor words, pinned. *)
let test_compiled_call_words () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Engine.install ~kind:Vm.Engine.Compiled kernel);
  let m =
    simple_fn "inc" (fun b ->
        ignore
          (Kir.Builder.start_func b "inc" ~params:[ ("%x", I64) ]
             ~ret:(Some I64));
        let r = Kir.Builder.add b I64 (Reg "%x") (Imm 1) in
        Kir.Builder.ret b (Some r))
  in
  ignore (load_module kernel m);
  let r = Option.get (Kernel.resolve kernel "inc") in
  let args = [| 41 |] in
  checki "compiled result" 42 (Kernel.call_resolved kernel r args);
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Kernel.call_resolved kernel r args : int)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int calls in
  Alcotest.(check (float 0.0)) "minor words per compiled call" 17.0 words

(* ---------- tracer ---------- *)

let test_tracer_captures () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let vm = Vm.Interp.install kernel in
  let m =
    simple_fn "traced" (fun b ->
        ignore (Kir.Builder.start_func b "twice" ~params:[ ("%x", I64) ] ~ret:(Some I64));
        let d = Kir.Builder.mul b I64 (Reg "%x") (Imm 2) in
        Kir.Builder.ret b (Some d))
  in
  ignore (load_module kernel m);
  let get = Vm.Interp.trace_to_buffer vm in
  checki "result unaffected" 10 (Kernel.call_symbol kernel "twice" [| 5 |]);
  let events = get () in
  checki "two events (mul + ret)" 2 (List.length events);
  (match events with
  | [ e1; e2 ] ->
    Alcotest.(check string) "func" "twice" e1.Vm.Interp.ev_func;
    checkb "mul printed" true
      (String.length e1.Vm.Interp.ev_instr > 3);
    checkb "ret printed" true
      (String.sub e2.Vm.Interp.ev_instr 0 3 = "ret")
  | _ -> Alcotest.fail "wrong shape");
  (* tracing must not change cost accounting *)
  Vm.Interp.set_tracer vm None;
  let m0 = Kernel.machine kernel in
  let c0 = Machine.Model.cycles m0 in
  ignore (Kernel.call_symbol kernel "twice" [| 5 |]);
  let untraced = Machine.Model.cycles m0 - c0 in
  let (_ : unit -> Vm.Interp.trace_event list) = Vm.Interp.trace_to_buffer vm in
  let c1 = Machine.Model.cycles m0 in
  ignore (Kernel.call_symbol kernel "twice" [| 5 |]);
  let traced = Machine.Model.cycles m0 - c1 in
  checki "same cycles with tracing" untraced traced

let test_tracer_capacity () =
  let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
  let vm = Vm.Interp.install kernel in
  let m =
    simple_fn "spin" (fun b ->
        ignore (Kir.Builder.start_func b "work" ~params:[] ~ret:(Some I64));
        Kir.Builder.mov_to b "%acc" I64 (Imm 0);
        Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Imm 1000) ~step:(Imm 1)
          (fun i ->
            let s = Kir.Builder.add b I64 (Reg "%acc") i in
            Kir.Builder.mov_to b "%acc" I64 s);
        Kir.Builder.ret b (Some (Reg "%acc")))
  in
  ignore (load_module kernel m);
  let get = Vm.Interp.trace_to_buffer ~capacity:50 vm in
  ignore (Kernel.call_symbol kernel "work" [||]);
  checki "bounded" 50 (List.length (get ()))

(* ---------- differential testing ---------- *)

(* random arithmetic expression trees, evaluated both by a reference
   OCaml evaluator (via Vm.Arith, unit-tested above) and by compiling to
   KIR and running the interpreter; results must agree bit-for-bit *)
type expr =
  | Const of int
  | Arg of int (* 0 or 1 *)
  | Bin of binop * expr * expr
  | Cmp of cond * expr * expr
  | Sel of expr * expr * expr

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun c -> Const (c - 500)) (int_bound 1000);
              map (fun i -> Arg i) (int_bound 1) ]
        else
          frequency
            [
              (1, map (fun c -> Const (c - 500)) (int_bound 1000));
              (1, map (fun i -> Arg i) (int_bound 1));
              ( 4,
                map3
                  (fun op a b -> Bin (op, a, b))
                  (oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; Lshr ])
                  (self (n / 2)) (self (n / 2)) );
              ( 2,
                map3
                  (fun c a b -> Cmp (c, a, b))
                  (oneofl [ Eq; Ne; Slt; Ult; Sge; Ule ])
                  (self (n / 2)) (self (n / 2)) );
              ( 1,
                map3
                  (fun c (a, b) () -> Sel (c, a, b))
                  (self (n / 3))
                  (pair (self (n / 3)) (self (n / 3)))
                  unit );
            ]))

(* reference semantics: all operations at I64 via Vm.Arith *)
let rec eval_ref args = function
  | Const c -> c
  | Arg i -> args.(i)
  | Bin (op, a, b) ->
    let bv = eval_ref args b in
    let bv = match op with Shl | Lshr -> bv land 63 | _ -> bv in
    Vm.Arith.binop I64 op (eval_ref args a) bv
  | Cmp (c, a, b) ->
    if Vm.Arith.compare_values I64 c (eval_ref args a) (eval_ref args b)
    then 1
    else 0
  | Sel (c, a, b) ->
    if eval_ref args c <> 0 then eval_ref args a else eval_ref args b

(* compile to KIR *)
let rec emit_expr b = function
  | Const c -> Imm c
  | Arg 0 -> Reg "%a0"
  | Arg _ -> Reg "%a1"
  | Bin (op, x, y) ->
    let vx = emit_expr b x in
    let vy = emit_expr b y in
    let vy =
      match op with
      | Shl | Lshr -> Kir.Builder.and_ b I64 vy (Imm 63)
      | _ -> vy
    in
    Kir.Builder.binop b op I64 vx vy
  | Cmp (c, x, y) ->
    let vx = emit_expr b x in
    let vy = emit_expr b y in
    Kir.Builder.icmp b c I64 vx vy
  | Sel (c, x, y) ->
    let vc = emit_expr b c in
    let vx = emit_expr b x in
    let vy = emit_expr b y in
    Kir.Builder.select b vc vx vy

let prop_differential =
  QCheck.Test.make ~name:"interpreter agrees with reference semantics"
    ~count:150
    QCheck.(
      make
        Gen.(tup3 gen_expr (int_bound 10000) (int_bound 10000)))
    (fun (e, x, y) ->
      let b = Kir.Builder.create "diff" in
      ignore
        (Kir.Builder.start_func b "f"
           ~params:[ ("%a0", I64); ("%a1", I64) ]
           ~ret:(Some I64));
      let v = emit_expr b e in
      Kir.Builder.ret b (Some v);
      let m = Kir.Builder.modul b in
      Kir.Verify.check_exn m;
      let kernel = Kernel.create ~require_signature:false Machine.Presets.r350 in
      ignore (Vm.Interp.install kernel);
      (match Kernel.insmod kernel m with Ok _ -> () | Error _ -> assert false);
      let got = Kernel.call_symbol kernel "f" [| x; y |] in
      got = eval_ref [| x; y |] e)

(* the same program transformed with guards computes the same result *)
let prop_guards_preserve_semantics =
  QCheck.Test.make ~name:"guard injection preserves program results"
    ~count:60
    QCheck.(make Gen.(tup2 gen_expr (int_bound 1000)))
    (fun (e, x) ->
      let build () =
        let b = Kir.Builder.create "sem" in
        ignore (Kir.Builder.declare_global b "g" ~size:64);
        ignore
          (Kir.Builder.start_func b "f"
             ~params:[ ("%a0", I64); ("%a1", I64) ]
             ~ret:(Some I64));
        let v = emit_expr b e in
        (* run the value through memory so guards actually fire *)
        Kir.Builder.store b I64 v (Sym "g");
        let back = Kir.Builder.load b I64 (Sym "g") in
        Kir.Builder.ret b (Some back);
        Kir.Builder.modul b
      in
      let run m =
        let kernel =
          Kernel.create ~require_signature:false Machine.Presets.r350
        in
        ignore (Vm.Interp.install kernel);
        Kernel.register_native kernel "carat_guard" (fun _ _ -> 0);
        (match Kernel.insmod kernel m with Ok _ -> () | Error _ -> assert false);
        Kernel.call_symbol kernel "f" [| x; 7 |]
      in
      let plain = build () in
      let guarded = build () in
      ignore (Passes.Guard_injection.run guarded);
      run plain = run guarded)

let () =
  Alcotest.run "vm"
    [
      ( "arith",
        [
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "signed views" `Quick test_signed_views;
          Alcotest.test_case "binops" `Quick test_binops;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "compare" `Quick test_compare;
          QCheck_alcotest.to_alcotest prop_arith_add_commutes;
          QCheck_alcotest.to_alcotest prop_arith_sub_inverse;
        ] );
      ( "interp",
        [
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "narrow store" `Quick test_narrow_memory;
          Alcotest.test_case "globals" `Quick test_globals_resolution;
          Alcotest.test_case "select/switch" `Quick test_select_switch;
          Alcotest.test_case "alloca frames" `Quick test_alloca_frames;
          Alcotest.test_case "indirect call" `Quick test_indirect_call;
          Alcotest.test_case "cycles accumulate" `Quick test_cycles_accumulate;
          Alcotest.test_case "compiled call allocation" `Quick
            test_compiled_call_words;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "captures events" `Quick test_tracer_captures;
          Alcotest.test_case "capacity bound" `Quick test_tracer_capacity;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_guards_preserve_semantics;
        ] );
      ( "faults",
        [
          Alcotest.test_case "divide error" `Quick test_divide_error_panics;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow_panics;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "unreachable" `Quick test_unreachable_panics;
          Alcotest.test_case "inline asm at runtime" `Quick test_inline_asm_panics_at_runtime;
          Alcotest.test_case "bad arity" `Quick test_bad_arity_call;
        ] );
    ]
