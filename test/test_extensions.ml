(* §5 extensions: privileged-intrinsic guarding and CFI for indirect
   calls — KIR support, the passes, the policy module's extra tables,
   and end-to-end enforcement. *)

open Carat_kop
open Kir.Types

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fresh ?(require_signature = false) () =
  let k = Kernel.create ~require_signature Machine.Presets.r350 in
  ignore (Vm.Interp.install k);
  k

(* a module using intrinsics and an indirect call *)
let spicy_module () =
  let b = Kir.Builder.create "spicy" in
  ignore (Kir.Builder.start_func b "stamp" ~params:[] ~ret:(Some I64));
  let t =
    match Kir.Builder.intrinsic b ~want_result:true "rdtsc" [] with
    | Some v -> v
    | None -> assert false
  in
  Kir.Builder.ret b (Some t);
  ignore
    (Kir.Builder.start_func b "poke_msr"
       ~params:[ ("%msr", I64); ("%v", I64) ]
       ~ret:(Some I64));
  ignore (Kir.Builder.intrinsic b "wrmsr" [ Reg "%msr"; Reg "%v" ]);
  Kir.Builder.ret b (Some (Imm 0));
  ignore
    (Kir.Builder.start_func b "trampoline" ~params:[ ("%fp", I64) ]
       ~ret:(Some I64));
  Kir.Builder.emit b
    (Callind { dst = Some "%r"; fn = Reg "%fp"; args = [] });
  Kir.Builder.ret b (Some (Reg "%r"));
  Kir.Builder.modul b

(* ---------- KIR-level support ---------- *)

let test_intrinsic_roundtrip () =
  let m = spicy_module () in
  let text = Kir.Printer.to_string m in
  let m' = Kir.Parser.parse_string text in
  Alcotest.(check string) "round-trip" text (Kir.Printer.to_string m');
  checkb "verifies" true (Kir.Verify.is_valid m')

let test_vm_executes_intrinsics () =
  let k = fresh () in
  let m = spicy_module () in
  (match Kernel.insmod k m with Ok _ -> () | Error _ -> assert false);
  let t1 = Kernel.call_symbol k "stamp" [||] in
  Machine.Model.add_cycles (Kernel.machine k) 100;
  let t2 = Kernel.call_symbol k "stamp" [||] in
  checkb "rdtsc monotone" true (t2 > t1);
  ignore (Kernel.call_symbol k "poke_msr" [| 0x1A0; 0xBEEF |]);
  checki "wrmsr visible" 0xBEEF (Kernel.read_msr k 0x1A0)

let test_vm_cli_hlt () =
  let k = fresh () in
  let b = Kir.Builder.create "parker" in
  ignore (Kir.Builder.start_func b "park" ~params:[] ~ret:(Some I64));
  ignore (Kir.Builder.intrinsic b "cli" []);
  ignore (Kir.Builder.intrinsic b "hlt" []);
  Kir.Builder.ret b (Some (Imm 0));
  (match Kernel.insmod k (Kir.Builder.modul b) with Ok _ -> () | Error _ -> assert false);
  match Kernel.call_symbol k "park" [||] with
  | exception Kernel.Panic info ->
    checkb "parked" true
      (String.length info.Kernel.reason > 0)
  | _ -> Alcotest.fail "hlt with irqs off did not park"

let test_registry_agreement () =
  (* an intrinsic's id and the kernel's name for that id round-trip *)
  List.iteri
    (fun i name ->
      Alcotest.(check (option int))
        (name ^ " id") (Some i)
        (Passes.Intrinsic_guard.id_of_intrinsic name);
      Alcotest.(check (option string))
        (name ^ " name") (Some name) (Kernel.intrinsic_name i))
    Passes.Intrinsic_guard.known

let test_attest_counts_intrinsics () =
  let m = spicy_module () in
  ignore (Passes.Attest.run ~strict:false m);
  Alcotest.(check (option string)) "count" (Some "2")
    (meta_find m Passes.Attest.meta_intrinsics)

(* ---------- the passes ---------- *)

let test_intrinsic_guard_pass () =
  let m = spicy_module () in
  let r = Passes.Intrinsic_guard.run m in
  checkb "changed" true r.Passes.Pass.changed;
  checki "two guards" 2 (Passes.Intrinsic_guard.count_guards m);
  checkb "fully guarded" true (Passes.Intrinsic_guard.fully_guarded m);
  checkb "extern declared" true
    (List.mem_assoc Passes.Intrinsic_guard.guard_symbol m.externs);
  match Passes.Intrinsic_guard.run m with
  | exception Passes.Pass.Pass_failed _ -> ()
  | _ -> Alcotest.fail "double intrinsic-guard accepted"

let test_intrinsic_guard_rejects_unknown () =
  let b = Kir.Builder.create "weird" in
  ignore (Kir.Builder.start_func b "f" ~params:[] ~ret:None);
  ignore (Kir.Builder.intrinsic b "vmlaunch" []);
  Kir.Builder.ret b None;
  match Passes.Intrinsic_guard.run (Kir.Builder.modul b) with
  | exception Passes.Pass.Pass_failed ("intrinsic-guard", _) -> ()
  | _ -> Alcotest.fail "unknown intrinsic certified"

let test_cfi_guard_pass () =
  let m = spicy_module () in
  let r = Passes.Cfi_guard.run m in
  checkb "changed" true r.Passes.Pass.changed;
  checki "one guard" 1 (Passes.Cfi_guard.count_guards m);
  checkb "fully guarded" true (Passes.Cfi_guard.fully_guarded m);
  match Passes.Cfi_guard.run m with
  | exception Passes.Pass.Pass_failed _ -> ()
  | _ -> Alcotest.fail "double cfi-guard accepted"

let test_pipeline_extensions_signed () =
  let m = spicy_module () in
  ignore
    (Passes.Pipeline.compile ~guard_intrinsics:true ~guard_cfi:true m);
  checkb "verifies" true
    (Passes.Signing.verify ~key:Passes.Pipeline.default_key m = Ok ());
  (* tampering with the extension metadata breaks the signature *)
  meta_set m Passes.Intrinsic_guard.meta_count "0";
  match Passes.Signing.verify ~key:Passes.Pipeline.default_key m with
  | Error (Passes.Signing.Bad_signature _) -> ()
  | _ -> Alcotest.fail "extension meta not covered by signature"

(* ---------- runtime enforcement ---------- *)

let setup_guarded ?(on_deny = Policy.Policy_module.Audit) () =
  let k = fresh ~require_signature:true () in
  let pm = Policy.Policy_module.install ~on_deny k in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  let m = spicy_module () in
  ignore (Passes.Pipeline.compile ~guard_intrinsics:true ~guard_cfi:true m);
  (match Kernel.insmod k m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  (k, pm)

let test_intrinsics_denied_by_default () =
  let k, pm = setup_guarded () in
  ignore (Kernel.call_symbol k "stamp" [||]);
  checki "violation recorded" 1
    (List.length (Policy.Policy_module.intrinsic_violations pm));
  checkb "logged" true
    (Kernel.Klog.contains (Kernel.log k) "forbidden privileged intrinsic rdtsc")

let test_intrinsics_allowed_when_granted () =
  let k, pm = setup_guarded () in
  Policy.Policy_module.allow_intrinsics pm [ "rdtsc" ];
  ignore (Kernel.call_symbol k "stamp" [||]);
  checki "no violation" 0
    (List.length (Policy.Policy_module.intrinsic_violations pm));
  (* wrmsr still denied (in log-only mode it is recorded but executes;
     panic mode is what actually stops it — tested separately) *)
  ignore (Kernel.call_symbol k "poke_msr" [| 0x1A0; 1 |]);
  checki "wrmsr denied" 1
    (List.length (Policy.Policy_module.intrinsic_violations pm))

let test_intrinsic_panic_mode () =
  let k, pm = setup_guarded ~on_deny:Policy.Policy_module.Panic () in
  ignore pm;
  match Kernel.call_symbol k "poke_msr" [| 0x1A0; 1 |] with
  | exception Kernel.Panic info ->
    checkb "mentions intrinsic" true
      (String.length info.Kernel.reason > 0)
  | _ -> Alcotest.fail "no panic on denied intrinsic"

let test_intrinsic_ioctl_bitmap () =
  let k, pm = setup_guarded () in
  (* allow rdtsc (bit 0) via the ioctl path *)
  checki "set" 0
    (Kernel.ioctl k ~dev:"carat"
       ~cmd:Policy.Policy_module.ioctl_set_intrinsics ~arg:0b1);
  checki "get" 0b1
    (Kernel.ioctl k ~dev:"carat"
       ~cmd:Policy.Policy_module.ioctl_get_intrinsics ~arg:0);
  ignore (Kernel.call_symbol k "stamp" [||]);
  checki "rdtsc allowed via ioctl" 0
    (List.length (Policy.Policy_module.intrinsic_violations pm))

let test_cfi_default_allows () =
  let k, pm = setup_guarded () in
  let target = Option.get (Kernel.symbol_address k "stamp") in
  (* intrinsics must be allowed for stamp to run *)
  Policy.Policy_module.allow_intrinsics pm [ "rdtsc" ];
  let r = Kernel.call_symbol k "trampoline" [| target |] in
  checkb "called through" true (r > 0);
  checki "no cfi violations" 0
    (List.length (Policy.Policy_module.cfi_violations pm))

let test_cfi_allowlist_blocks () =
  let k, pm = setup_guarded () in
  Policy.Policy_module.allow_intrinsics pm [ "rdtsc" ];
  (* only the module's own export is allowed; the kernel's get_cycles
     (a zero-arg symbol, so the log-only fall-through stays harmless)
     is not *)
  Policy.Policy_module.set_cfi_allowlist pm [ "stamp" ];
  let stamp = Option.get (Kernel.symbol_address k "stamp") in
  ignore (Kernel.call_symbol k "trampoline" [| stamp |]);
  checki "allowed target ok" 0
    (List.length (Policy.Policy_module.cfi_violations pm));
  let forbidden = Option.get (Kernel.symbol_address k "get_cycles") in
  ignore (Kernel.call_symbol k "trampoline" [| forbidden |]);
  checki "forbidden target recorded" 1
    (List.length (Policy.Policy_module.cfi_violations pm));
  checkb "logged" true
    (Kernel.Klog.contains (Kernel.log k) "forbidden indirect call")

let test_cfi_ioctl () =
  let k, pm = setup_guarded () in
  Policy.Policy_module.allow_intrinsics pm [ "rdtsc" ];
  (* default-deny via ioctl, then allow stamp's address via ioctl *)
  checki "set default deny" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_cfi_default
       ~arg:0);
  let stamp = Option.get (Kernel.symbol_address k "stamp") in
  ignore (Kernel.call_symbol k "trampoline" [| stamp |]);
  checki "denied before allow" 1
    (List.length (Policy.Policy_module.cfi_violations pm));
  checki "allow target" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_cfi_allow
       ~arg:stamp);
  ignore (Kernel.call_symbol k "trampoline" [| stamp |]);
  checki "allowed after ioctl" 1
    (List.length (Policy.Policy_module.cfi_violations pm))

let test_driver_diag_under_extension () =
  (* the driver's rdtsc diagnostic: blocked when intrinsics are guarded
     and not granted; works once granted *)
  let k = fresh ~require_signature:true () in
  let pm =
    Policy.Policy_module.install ~on_deny:Policy.Policy_module.Audit k
  in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  let dev = Nic.Device.create k in
  let m = Nic.Driver_gen.generate ~module_scale:1 () in
  ignore (Passes.Pipeline.compile ~guard_intrinsics:true m);
  (match Kernel.insmod k m with Ok _ -> () | Error e ->
    Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  ignore (Kernel.call_symbol k "e1000e_probe" [| Nic.Device.mmio_base dev; 8 |]);
  ignore (Kernel.call_symbol k "e1000e_diag_latency" [||]);
  checki "denied without grant" 2
    (List.length (Policy.Policy_module.intrinsic_violations pm));
  Policy.Policy_module.allow_intrinsics pm [ "rdtsc" ];
  let dt = Kernel.call_symbol k "e1000e_diag_latency" [||] in
  checkb "diagnostic measures the write" true (dt > 0);
  checki "no new violations" 2
    (List.length (Policy.Policy_module.intrinsic_violations pm))

let test_unextended_pipeline_leaves_intrinsics_free () =
  (* faithful-to-paper default: intrinsics usable without checks *)
  let k = fresh ~require_signature:true () in
  let pm =
    Policy.Policy_module.install ~on_deny:Policy.Policy_module.Audit k
  in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  let m = spicy_module () in
  ignore (Passes.Pipeline.compile m);
  (match Kernel.insmod k m with Ok _ -> () | Error _ -> assert false);
  ignore (Kernel.call_symbol k "poke_msr" [| 0x1A0; 0x42 |]);
  checki "msr written, no questions asked" 0x42 (Kernel.read_msr k 0x1A0);
  checki "no violations possible" 0
    (List.length (Policy.Policy_module.intrinsic_violations pm))

let () =
  Alcotest.run "extensions"
    [
      ( "kir-intrinsics",
        [
          Alcotest.test_case "round-trip" `Quick test_intrinsic_roundtrip;
          Alcotest.test_case "vm executes" `Quick test_vm_executes_intrinsics;
          Alcotest.test_case "cli+hlt parks" `Quick test_vm_cli_hlt;
          Alcotest.test_case "registry agreement" `Quick test_registry_agreement;
          Alcotest.test_case "attest counts" `Quick test_attest_counts_intrinsics;
        ] );
      ( "passes",
        [
          Alcotest.test_case "intrinsic guard" `Quick test_intrinsic_guard_pass;
          Alcotest.test_case "unknown intrinsic" `Quick test_intrinsic_guard_rejects_unknown;
          Alcotest.test_case "cfi guard" `Quick test_cfi_guard_pass;
          Alcotest.test_case "extensions signed" `Quick test_pipeline_extensions_signed;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "denied by default" `Quick test_intrinsics_denied_by_default;
          Alcotest.test_case "granted selectively" `Quick test_intrinsics_allowed_when_granted;
          Alcotest.test_case "panic mode" `Quick test_intrinsic_panic_mode;
          Alcotest.test_case "ioctl bitmap" `Quick test_intrinsic_ioctl_bitmap;
          Alcotest.test_case "cfi default allow" `Quick test_cfi_default_allows;
          Alcotest.test_case "cfi allowlist" `Quick test_cfi_allowlist_blocks;
          Alcotest.test_case "cfi ioctl" `Quick test_cfi_ioctl;
          Alcotest.test_case "driver diagnostic" `Quick test_driver_diag_under_extension;
          Alcotest.test_case "paper default unguarded" `Quick test_unextended_pipeline_leaves_intrinsics_free;
        ] );
    ]
