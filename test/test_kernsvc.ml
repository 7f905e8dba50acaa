(* Kernel services (kernfs + msgq) and their protection by region
   policies — the paper's §5 file/IPC extension, end to end. *)

open Carat_kop
open Kir.Types


let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let fresh () =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Interp.install k);
  k

(* ---------- kernfs mechanics ---------- *)

let test_create_and_contents () =
  let k = fresh () in
  let fs = Kernsvc.Kernfs.create k in
  let ino =
    Kernsvc.Kernfs.create_file fs ~name:"/etc/motd"
      ~mode:(Kernsvc.Kernfs.mode_read lor Kernsvc.Kernfs.mode_write)
      ~capacity:128
  in
  Kernsvc.Kernfs.write_contents fs ~ino "welcome to the node\n";
  checks "contents" "welcome to the node\n" (Kernsvc.Kernfs.read_contents fs ~ino);
  checki "lookup" ino (Kernsvc.Kernfs.lookup fs "/etc/motd")

let test_vfs_natives () =
  let k = fresh () in
  let fs = Kernsvc.Kernfs.create k in
  let ino =
    Kernsvc.Kernfs.create_file fs ~name:"f"
      ~mode:(Kernsvc.Kernfs.mode_read lor Kernsvc.Kernfs.mode_write)
      ~capacity:64
  in
  let buf = Kernel.kmalloc k ~size:64 in
  Kernel.write_string k ~addr:buf "hello";
  checki "vfs_write" 5 (Kernel.call_symbol k "vfs_write" [| ino; 0; buf; 5 |]);
  checki "size attr" 5 (Kernel.call_symbol k "vfs_getattr" [| ino; 1 |]);
  let out = Kernel.kmalloc k ~size:64 in
  checki "vfs_read" 5 (Kernel.call_symbol k "vfs_read" [| ino; 0; out; 64 |]);
  checks "round trip" "hello" (Kernel.read_string k ~addr:out ~len:5)

let test_vfs_permissions () =
  let k = fresh () in
  let fs = Kernsvc.Kernfs.create k in
  let ro =
    Kernsvc.Kernfs.create_file fs ~name:"ro" ~mode:Kernsvc.Kernfs.mode_read
      ~capacity:32
  in
  let buf = Kernel.kmalloc k ~size:32 in
  checki "write denied by mode" (-1)
    (Kernel.call_symbol k "vfs_write" [| ro; 0; buf; 4 |]);
  checki "capacity enforced" (-1)
    (Kernel.call_symbol k "vfs_write" [| ro; 0; buf; 4096 |])

let test_vfs_chmod_refuses_setuid () =
  let k = fresh () in
  let fs = Kernsvc.Kernfs.create k in
  let ino =
    Kernsvc.Kernfs.create_file fs ~name:"bin" ~mode:Kernsvc.Kernfs.mode_read
      ~capacity:16
  in
  ignore
    (Kernel.call_symbol k "vfs_chmod"
       [| ino; Kernsvc.Kernfs.mode_setuid lor 0o755 |]);
  checki "setuid stripped by the API" 0o755 (Kernsvc.Kernfs.mode_of fs ~ino)

let test_vfs_read_clamping () =
  let k = fresh () in
  let fs = Kernsvc.Kernfs.create k in
  let ino =
    Kernsvc.Kernfs.create_file fs ~name:"f"
      ~mode:(Kernsvc.Kernfs.mode_read lor Kernsvc.Kernfs.mode_write)
      ~capacity:64
  in
  Kernsvc.Kernfs.write_contents fs ~ino "hello";
  let out = Kernel.kmalloc k ~size:64 in
  (* reads past the end return 0 bytes, never a negative count *)
  checki "off = size reads 0" 0
    (Kernel.call_symbol k "vfs_read" [| ino; 5; out; 16 |]);
  checki "off > size reads 0" 0
    (Kernel.call_symbol k "vfs_read" [| ino; 9; out; 16 |]);
  checki "len 0 reads 0" 0
    (Kernel.call_symbol k "vfs_read" [| ino; 0; out; 0 |]);
  (* a request larger than the remaining bytes is clamped to size - off *)
  checki "short read clamps to size - off" 3
    (Kernel.call_symbol k "vfs_read" [| ino; 2; out; 64 |]);
  checks "clamped tail" "llo" (Kernel.read_string k ~addr:out ~len:3)

(* ---------- /proc/carat over kernfs ---------- *)

let procfs_cell () =
  let k = fresh () in
  let pm =
    Policy.Policy_module.install ~site_cache:true
      ~on_deny:Policy.Policy_module.Audit k
  in
  Trace.start (Policy.Policy_module.enable_trace ~capacity:64 pm);
  Policy.Policy_module.set_policy pm
    [
      Policy.Region.v ~tag:"win" ~base:0xA000 ~len:4096
        ~prot:Policy.Region.prot_rw ();
    ];
  let fs = Kernsvc.Kernfs.create k in
  let proc = Kernsvc.Procfs.install fs pm in
  (k, pm, fs, proc)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let checkb = Alcotest.check Alcotest.bool

let test_procfs_stats_and_trace () =
  let _k, pm, _fs, proc = procfs_cell () in
  ignore (Policy.Policy_module.guard pm ~site:4 ~addr:0xA010 ~size:8 ~flags:1);
  ignore (Policy.Policy_module.guard pm ~site:5 ~addr:0x40 ~size:8 ~flags:2);
  let stats = Kernsvc.Procfs.read_stats proc in
  checkb "stats header" true (contains stats "carat_trace: guard statistics");
  checkb "counts one allow and one deny" true
    (contains stats "checks 2 allows 1 denies 1");
  checkb "per-region tag resolved" true (contains stats "win");
  let trace = Kernsvc.Procfs.read_trace proc in
  checkb "trace has the deny" true (contains trace "DENY");
  checkb "trace has the policy push" true (contains trace "policy-add");
  (* refresh picks up new traffic *)
  ignore (Policy.Policy_module.guard pm ~site:4 ~addr:0xA018 ~size:8 ~flags:1);
  let stats2 = Kernsvc.Procfs.read_stats proc in
  checkb "refresh sees new checks" true (contains stats2 "checks 3")

let test_procfs_files_are_vfs_readable () =
  (* the rendered files go through the same clamped vfs_read as any
     other kernfs file *)
  let k, _pm, fs, proc = procfs_cell () in
  let _ = Kernsvc.Procfs.read_stats proc in
  let ino = Kernsvc.Kernfs.lookup fs "carat/stats" in
  let size = Kernel.call_symbol k "vfs_getattr" [| ino; 1 |] in
  checkb "stats file non-empty" true (size > 0);
  let out = Kernel.kmalloc k ~size:256 in
  checki "read past end returns 0" 0
    (Kernel.call_symbol k "vfs_read" [| ino; size + 10; out; 64 |]);
  let got = Kernel.call_symbol k "vfs_read" [| ino; 0; out; 12 |] in
  checki "partial read honours len" 12 got;
  checks "prefix" "carat_trace:" (Kernel.read_string k ~addr:out ~len:12)

let test_fs_errors () =
  let k = fresh () in
  let fs = Kernsvc.Kernfs.create k in
  (match Kernsvc.Kernfs.lookup fs "/nope" with
  | exception Kernsvc.Kernfs.No_such_file _ -> ()
  | _ -> Alcotest.fail "phantom file");
  ignore (Kernsvc.Kernfs.create_file fs ~name:"x" ~mode:7 ~capacity:8);
  match Kernsvc.Kernfs.create_file fs ~name:"x" ~mode:7 ~capacity:8 with
  | exception Kernsvc.Kernfs.Fs_error _ -> ()
  | _ -> Alcotest.fail "duplicate name"

(* ---------- msgq mechanics ---------- *)

let test_mq_fifo () =
  let k = fresh () in
  let mq = Kernsvc.Msgq.create k in
  let q = Kernsvc.Msgq.create_queue mq ~capacity:4 ~slot_size:32 in
  checki "send a" 1 (Kernsvc.Msgq.send mq q "a");
  checki "send bb" 2 (Kernsvc.Msgq.send mq q "bb");
  checki "depth" 2 (Kernsvc.Msgq.depth mq q);
  Alcotest.(check (option string)) "recv a" (Some "a")
    (Kernsvc.Msgq.recv mq q ~maxlen:32);
  Alcotest.(check (option string)) "recv bb" (Some "bb")
    (Kernsvc.Msgq.recv mq q ~maxlen:32);
  Alcotest.(check (option string)) "empty" None
    (Kernsvc.Msgq.recv mq q ~maxlen:32)

let test_mq_full_and_oversize () =
  let k = fresh () in
  let mq = Kernsvc.Msgq.create k in
  let q = Kernsvc.Msgq.create_queue mq ~capacity:2 ~slot_size:8 in
  checki "fits" 3 (Kernsvc.Msgq.send mq q "abc");
  checki "fits" 3 (Kernsvc.Msgq.send mq q "def");
  checki "full" (-1) (Kernsvc.Msgq.send mq q "ghi");
  checki "oversize" (-1) (Kernsvc.Msgq.send mq q "123456789")

let test_mq_wraps () =
  let k = fresh () in
  let mq = Kernsvc.Msgq.create k in
  let q = Kernsvc.Msgq.create_queue mq ~capacity:2 ~slot_size:16 in
  for i = 0 to 9 do
    let msg = Printf.sprintf "m%d" i in
    checki "send" (String.length msg) (Kernsvc.Msgq.send mq q msg);
    Alcotest.(check (option string)) "recv" (Some msg)
      (Kernsvc.Msgq.recv mq q ~maxlen:16)
  done

let test_mq_two_queues_isolated () =
  let k = fresh () in
  let mq = Kernsvc.Msgq.create k in
  let q1 = Kernsvc.Msgq.create_queue mq ~capacity:4 ~slot_size:16 in
  let q2 = Kernsvc.Msgq.create_queue mq ~capacity:4 ~slot_size:16 in
  ignore (Kernsvc.Msgq.send mq q1 "one");
  ignore (Kernsvc.Msgq.send mq q2 "two");
  Alcotest.(check (option string)) "q1" (Some "one")
    (Kernsvc.Msgq.recv mq q1 ~maxlen:16);
  Alcotest.(check (option string)) "q2" (Some "two")
    (Kernsvc.Msgq.recv mq q2 ~maxlen:16)

(* ---------- kernel timers ---------- *)

(* a module exposing a counting callback *)
let timer_module () =
  let b = Kir.Builder.create "tick_mod" in
  Kir.Builder.declare_extern b "timer_arm" ~arity:3;
  Kir.Builder.declare_extern b "timer_cancel" ~arity:1;
  ignore (Kir.Builder.declare_global b "ticks" ~size:8);
  ignore (Kir.Builder.start_func b "on_tick" ~params:[ ("%id", I64) ] ~ret:(Some I64));
  let n = Kir.Builder.load b I64 (Sym "ticks") in
  let n1 = Kir.Builder.add b I64 n (Imm 1) in
  Kir.Builder.store b I64 n1 (Sym "ticks");
  Kir.Builder.ret b (Some (Imm 0));
  ignore (Kir.Builder.start_func b "go" ~params:[ ("%delay", I64); ("%period", I64) ] ~ret:(Some I64));
  let id = Option.get (Kir.Builder.call b "timer_arm" [ Sym "on_tick"; Reg "%delay"; Reg "%period" ]) in
  Kir.Builder.ret b (Some id);
  ignore (Kir.Builder.start_func b "stop" ~params:[ ("%id", I64) ] ~ret:(Some I64));
  let r = Option.get (Kir.Builder.call b "timer_cancel" [ Reg "%id" ]) in
  Kir.Builder.ret b (Some r);
  Kir.Builder.modul b

let setup_timers () =
  let k = fresh () in
  let timers = Kernsvc.Ktimer.create k in
  (match Kernel.insmod k (timer_module ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  (k, timers)

let ticks k =
  let addr = Option.get (Kernel.symbol_address k "ticks") in
  Kernel.read k ~addr ~size:8

let test_timer_oneshot () =
  let k, timers = setup_timers () in
  let id = Kernel.call_symbol k "go" [| 1000; 0 |] in
  Alcotest.(check bool) "armed" true (id > 0);
  checki "not yet" 0 (Kernsvc.Ktimer.run_pending timers);
  checki "fires once" 1 (Kernsvc.Ktimer.advance timers ~cycles:2000);
  checki "module saw it" 1 (ticks k);
  checki "does not refire" 0 (Kernsvc.Ktimer.advance timers ~cycles:10_000);
  checki "no active timers left" 0 (List.length (Kernsvc.Ktimer.active timers))

let test_timer_periodic_and_cancel () =
  let k, timers = setup_timers () in
  (* period far above the callback's own cost so the count is exact *)
  let id = Kernel.call_symbol k "go" [| 100_000; 100_000 |] in
  ignore (Kernsvc.Ktimer.advance timers ~cycles:350_000);
  checki "three periods" 3 (ticks k);
  checki "cancel ok" 0 (Kernel.call_symbol k "stop" [| id |]);
  checki "cancel twice fails" (-1) (Kernel.call_symbol k "stop" [| id |]);
  ignore (Kernsvc.Ktimer.advance timers ~cycles:500_000);
  checki "no more ticks" 3 (ticks k)

let test_timer_ordering () =
  let k, timers = setup_timers () in
  ignore (Kernel.call_symbol k "go" [| 5000; 0 |]);
  ignore (Kernel.call_symbol k "go" [| 1000; 0 |]);
  checki "only the early one" 1 (Kernsvc.Ktimer.advance timers ~cycles:2000);
  checki "then the late one" 1 (Kernsvc.Ktimer.advance timers ~cycles:4000);
  checki "both delivered" 2 (ticks k)

let test_timer_bad_target () =
  let k, _ = setup_timers () in
  checki "non-function address rejected" (-1)
    (Kernel.call_symbol k "timer_arm" [| 0xDEAD; 10; 0 |])

let test_timer_budget () =
  let k, timers = setup_timers () in
  (* a zero-period... use period 1: fires every cycle; budget caps it *)
  ignore (Kernel.call_symbol k "go" [| 0; 1 |]);
  Machine.Model.add_cycles (Kernel.machine k) 1_000_000;
  let fired = Kernsvc.Ktimer.run_pending ~max_fires:16 timers in
  checki "budget respected" 16 fired

let test_timer_callback_guarded () =
  (* a protected module's timer callback violating policy panics from
     interrupt context *)
  let k = Kernel.create ~require_signature:true Machine.Presets.r350 in
  ignore (Vm.Interp.install k);
  let pm = Policy.Policy_module.install k in
  (* policy covers nothing the callback touches *)
  Policy.Policy_module.set_policy pm
    [ Policy.Region.v ~tag:"nothing" ~base:0x10 ~len:0x10 ~prot:0 () ];
  let timers = Kernsvc.Ktimer.create k in
  let m = timer_module () in
  ignore (Passes.Pipeline.compile m);
  (match Kernel.insmod k m with Ok _ -> () | Error _ -> assert false);
  ignore (Kernel.call_symbol k "go" [| 100; 0 |]);
  match Kernsvc.Ktimer.advance timers ~cycles:1000 with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "guarded callback ran unchecked"

(* ---------- protection: the §5 scenarios ---------- *)

(* a protected module with raw read/write entry points and API-using
   entry points *)
let make_module () =
  let b = Kir.Builder.create "fs_mod" in
  List.iter
    (fun (name, arity) -> Kir.Builder.declare_extern b name ~arity)
    [ ("vfs_read", 4); ("vfs_write", 4); ("mq_recv", 3); ("kmalloc", 1) ];
  (* raw_poke(addr, v): the bypass a buggy/malicious module would use *)
  ignore
    (Kir.Builder.start_func b "raw_poke"
       ~params:[ ("%a", I64); ("%v", I64) ]
       ~ret:(Some I64));
  Kir.Builder.store b I64 (Reg "%v") (Reg "%a");
  Kir.Builder.ret b (Some (Imm 0));
  ignore
    (Kir.Builder.start_func b "raw_peek" ~params:[ ("%a", I64) ]
       ~ret:(Some I64));
  let v = Kir.Builder.load b I64 (Reg "%a") in
  Kir.Builder.ret b (Some v);
  (* api_read(ino): reads a file through the VFS, returns first byte *)
  ignore
    (Kir.Builder.start_func b "api_read" ~params:[ ("%ino", I64) ]
       ~ret:(Some I64));
  let buf =
    match Kir.Builder.call b "kmalloc" [ Imm 64 ] with
    | Some v -> v
    | None -> assert false
  in
  ignore (Kir.Builder.call b "vfs_read" [ Reg "%ino"; Imm 0; buf; Imm 64 ]);
  let first = Kir.Builder.load b I8 buf in
  Kir.Builder.ret b (Some first);
  let m = Kir.Builder.modul b in
  ignore (Passes.Pipeline.compile m);
  m

let setup_protected () =
  let k = Kernel.create ~require_signature:true Machine.Presets.r350 in
  let vm = Vm.Interp.install k in
  let pm =
    Policy.Policy_module.install ~on_deny:Policy.Policy_module.Panic k
  in
  let fs = Kernsvc.Kernfs.create k in
  let mq = Kernsvc.Msgq.create k in
  (match Kernel.insmod k (make_module ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  (k, vm, pm, fs, mq)

(* policy: module area + its stack + kernel heap EXCEPT the protected
   objects, whose regions come first (first match wins) *)
let protection_policy (vm : Vm.Interp.state) guarded =
  guarded
  @ [
      Policy.Region.v ~tag:"module-stack" ~base:vm.Vm.Interp.stack_base
        ~len:vm.Vm.Interp.stack_size ~prot:Policy.Region.prot_rw ();
      Policy.Region.v ~tag:"module-area" ~base:Kernel.Layout.module_base
        ~len:Kernel.Layout.module_area_size ~prot:Policy.Region.prot_rw ();
      Policy.Region.v ~tag:"kernel" ~base:Kernel.Layout.kernel_base
        ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_rw ();
    ]

let test_inode_tamper_blocked () =
  let k, vm, pm, fs, _ = setup_protected () in
  let ino =
    Kernsvc.Kernfs.create_file fs ~name:"/bin/agent"
      ~mode:Kernsvc.Kernfs.mode_read ~capacity:32
  in
  Policy.Policy_module.set_policy pm
    (protection_policy vm [ Kernsvc.Kernfs.metadata_region fs ]);
  (* API access still works (core kernel is not guarded) *)
  Kernsvc.Kernfs.write_contents fs ~ino "ELF!";
  checki "api read ok" (Char.code 'E') (Kernel.call_symbol k "api_read" [| ino |]);
  (* direct inode write — setting the setuid bit — trips the guard *)
  let inode = Kernsvc.Kernfs.inode_vaddr fs ino in
  (match
     Kernel.call_symbol k "raw_poke"
       [| inode; Kernsvc.Kernfs.mode_setuid lor 0o777 |]
   with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "inode tampered");
  checki "mode intact" Kernsvc.Kernfs.mode_read (Kernsvc.Kernfs.mode_of fs ~ino)

let test_inode_snoop_blocked () =
  let k, vm, pm, fs, _ = setup_protected () in
  let ino =
    Kernsvc.Kernfs.create_file fs ~name:"/etc/shadow"
      ~mode:Kernsvc.Kernfs.mode_read ~capacity:64
  in
  Kernsvc.Kernfs.write_contents fs ~ino "root:secret";
  Policy.Policy_module.set_policy pm
    (protection_policy vm
       [
         Kernsvc.Kernfs.metadata_region fs;
         (* data extent unreadable for this module too *)
         Kernsvc.Kernfs.data_region fs ~ino ~prot:0;
       ]);
  let inode = Kernsvc.Kernfs.inode_vaddr fs ino in
  match Kernel.call_symbol k "raw_peek" [| inode + 32 |] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "inode metadata read allowed"

let test_msgq_snoop_blocked () =
  let k, vm, pm, _, mq = setup_protected () in
  let q = Kernsvc.Msgq.create_queue mq ~capacity:4 ~slot_size:32 in
  ignore (Kernsvc.Msgq.send mq q "scheduler-credential");
  Policy.Policy_module.set_policy pm
    (protection_policy vm [ Kernsvc.Msgq.queue_region q ~prot:0 ]);
  (* reading the slot memory directly trips the guard *)
  (match Kernel.call_symbol k "raw_peek" [| q.Kernsvc.Msgq.base + 40 |] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "queue snooped");
  ()

let test_msgq_granted_queue_works () =
  (* a module may be granted one queue and not another *)
  let k, vm, pm, _, mq = setup_protected () in
  let mine = Kernsvc.Msgq.create_queue mq ~capacity:4 ~slot_size:32 in
  let theirs = Kernsvc.Msgq.create_queue mq ~capacity:4 ~slot_size:32 in
  ignore (Kernsvc.Msgq.send mq mine "for-you");
  ignore (Kernsvc.Msgq.send mq theirs "not-yours");
  Policy.Policy_module.set_policy pm
    (protection_policy vm
       [
         Kernsvc.Msgq.queue_region mine ~prot:Policy.Region.prot_rw;
         Kernsvc.Msgq.queue_region theirs ~prot:0;
       ]);
  (* direct read of my own queue's slot: allowed *)
  let slot = Kernsvc.Msgq.slot_vaddr mine 0 in
  checki "my slot readable" (String.length "for-you")
    (Kernel.call_symbol k "raw_peek" [| slot |]);
  (* the other queue is not *)
  match
    Kernel.call_symbol k "raw_peek" [| Kernsvc.Msgq.slot_vaddr theirs 0 |]
  with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "foreign queue read"

let () =
  Alcotest.run "kernsvc"
    [
      ( "kernfs",
        [
          Alcotest.test_case "create/contents" `Quick test_create_and_contents;
          Alcotest.test_case "vfs natives" `Quick test_vfs_natives;
          Alcotest.test_case "vfs permissions" `Quick test_vfs_permissions;
          Alcotest.test_case "chmod strips setuid" `Quick test_vfs_chmod_refuses_setuid;
          Alcotest.test_case "vfs_read clamping" `Quick test_vfs_read_clamping;
          Alcotest.test_case "errors" `Quick test_fs_errors;
        ] );
      ( "/proc/carat",
        [
          Alcotest.test_case "stats and trace files" `Quick
            test_procfs_stats_and_trace;
          Alcotest.test_case "vfs-readable with clamping" `Quick
            test_procfs_files_are_vfs_readable;
        ] );
      ( "msgq",
        [
          Alcotest.test_case "fifo" `Quick test_mq_fifo;
          Alcotest.test_case "full/oversize" `Quick test_mq_full_and_oversize;
          Alcotest.test_case "wraps" `Quick test_mq_wraps;
          Alcotest.test_case "isolation" `Quick test_mq_two_queues_isolated;
        ] );
      ( "timers",
        [
          Alcotest.test_case "one-shot" `Quick test_timer_oneshot;
          Alcotest.test_case "periodic + cancel" `Quick test_timer_periodic_and_cancel;
          Alcotest.test_case "ordering" `Quick test_timer_ordering;
          Alcotest.test_case "bad target" `Quick test_timer_bad_target;
          Alcotest.test_case "fire budget" `Quick test_timer_budget;
          Alcotest.test_case "guarded callback" `Quick test_timer_callback_guarded;
        ] );
      ( "protection",
        [
          Alcotest.test_case "inode tamper" `Quick test_inode_tamper_blocked;
          Alcotest.test_case "inode snoop" `Quick test_inode_snoop_blocked;
          Alcotest.test_case "msgq snoop" `Quick test_msgq_snoop_blocked;
          Alcotest.test_case "granted queue" `Quick test_msgq_granted_queue_works;
        ] );
    ]
