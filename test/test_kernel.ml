(* Kernel sim: memory, layout, translation, allocation, symbols, module
   loading, ioctl devices, panic, klog. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fresh ?(require_signature = false) ?(require_certificate = false) () =
  Kernel.create ~require_signature ~require_certificate Machine.Presets.r350

(* ---------- physical memory ---------- *)

let test_memory_rw () =
  let m = Kernel.Memory.create ~size:4096 in
  Kernel.Memory.write m 0 ~size:8 0x1122334455667788;
  checki "read back" 0x1122334455667788 (Kernel.Memory.read m 0 ~size:8);
  checki "little endian low byte" 0x88 (Kernel.Memory.read_u8 m 0);
  checki "partial read" 0x7788 (Kernel.Memory.read m 0 ~size:2)

let test_memory_bounds () =
  let m = Kernel.Memory.create ~size:64 in
  (match Kernel.Memory.read m 60 ~size:8 with
  | exception Kernel.Memory.Bad_phys_access _ -> ()
  | _ -> Alcotest.fail "oob read");
  (match Kernel.Memory.write m (-1) ~size:1 0 with
  | exception Kernel.Memory.Bad_phys_access _ -> ()
  | _ -> Alcotest.fail "negative write");
  (* the end of this access wraps past max_int *)
  match Kernel.Memory.read m (max_int - 3) ~size:8 with
  | exception Kernel.Memory.Bad_phys_access _ -> ()
  | _ -> Alcotest.fail "read ending past max_int"

let test_memory_blit () =
  let m = Kernel.Memory.create ~size:128 in
  Kernel.Memory.blit_string m ~dst:10 "hello";
  Alcotest.(check string) "read_string" "hello"
    (Kernel.Memory.read_string m ~src:10 ~len:5);
  Kernel.Memory.blit m ~src:10 ~dst:20 ~len:5;
  Alcotest.(check string) "copied" "hello"
    (Kernel.Memory.read_string m ~src:20 ~len:5);
  Kernel.Memory.fill m ~dst:10 ~len:5 'x';
  Alcotest.(check string) "filled" "xxxxx"
    (Kernel.Memory.read_string m ~src:10 ~len:5)

(* ---------- demand paging ---------- *)

let page = Kernel.Memory.page_size
let chunk = Kernel.Memory.chunk_size
let leaf = Kernel.Memory.(chunk_size * leaf_chunks)

(* The reference model: one flat, eagerly zeroed buffer, accessed byte by
   byte — the representation [Memory] had before it was paged. *)
module Flat = struct
  exception Oob

  let check b addr size =
    if addr < 0 || size < 0 || addr + size > Bytes.length b then raise Oob

  let read b addr size =
    check b addr size;
    let v = ref 0 in
    for i = 0 to size - 1 do
      v := !v lor (Char.code (Bytes.get b (addr + i)) lsl (8 * i))
    done;
    !v land max_int

  let write b addr size v =
    check b addr size;
    for i = 0 to size - 1 do
      Bytes.set b (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
    done

  let blit b ~src ~dst ~len =
    check b src len;
    check b dst len;
    Bytes.blit b src b dst len

  let fill b ~dst ~len c =
    check b dst len;
    Bytes.fill b dst len c

  let blit_string b ~dst s =
    check b dst (String.length s);
    Bytes.blit_string s 0 b dst (String.length s)

  let read_string b ~src ~len =
    check b src len;
    Bytes.sub_string b src len

  (* maximal runs of differing bytes, one byte at a time *)
  let diff_ranges b snap =
    let n = min (Bytes.length b) (Bytes.length snap) in
    let rec go i start acc =
      if i = n then List.rev (if start >= 0 then (start, n - start) :: acc else acc)
      else if Bytes.get b i <> Bytes.get snap i then
        go (i + 1) (if start >= 0 then start else i) acc
      else go (i + 1) (-1) (if start >= 0 then (start, i - start) :: acc else acc)
    in
    go 0 (-1) []
end

type mem_op =
  | Read of int * int
  | Write of int * int * int
  | Blit of int * int * int
  | Fill of int * int * char
  | Blit_string of int * string
  | Read_string of int * int
  | Snapshot
  | Diff

let show_op = function
  | Read (a, s) -> Printf.sprintf "read %d/%d" a s
  | Write (a, s, v) -> Printf.sprintf "write %d/%d %d" a s v
  | Blit (s, d, l) -> Printf.sprintf "blit %d->%d/%d" s d l
  | Fill (d, l, c) -> Printf.sprintf "fill %d/%d %C" d l c
  | Blit_string (d, s) -> Printf.sprintf "blit_string %d/%d" d (String.length s)
  | Read_string (s, l) -> Printf.sprintf "read_string %d/%d" s l
  | Snapshot -> "snapshot"
  | Diff -> "diff"

type outcome =
  | Int of int
  | Str of string
  | Ranges of (int * int) list
  | Done
  | Out_of_range

let gen_mem_case =
  let open QCheck.Gen in
  (* page multiples, sizes that end mid-page or mid-chunk, and one that
     spans three directory leaves *)
  let* size =
    oneofl
      [ page; 3 * page; (3 * page) + 100; (2 * page) - 1; 100; 5000; (2 * leaf) + 700 ]
  in
  (* addresses cluster on page, chunk and leaf boundaries, and stray past
     both ends *)
  let near unit = map2 (fun k d -> (k * unit) + d) (int_bound ((size / unit) + 1)) (int_range (-9) 9) in
  let addr =
    frequency
      [ (3, int_range (-9) (size + 9)); (3, near page); (3, near chunk); (1, near leaf) ]
  in
  let len =
    frequency
      [ (4, int_bound 16); (3, int_bound ((2 * page) + 100)); (1, return (-1)) ]
  in
  let op =
    frequency
      [
        (4, map2 (fun a s -> Read (a, s)) addr (oneofl [ 1; 2; 4; 8; 3; 0 ]));
        (4, map3 (fun a s v -> Write (a, s, v)) addr (oneofl [ 1; 2; 4; 8; 3; 0 ]) int);
        (3, map3 (fun s d l -> Blit (s, d, l)) addr addr len);
        (* a short range: a blit that overlaps itself, in either direction *)
        (2, map3 (fun s d l -> Blit (s, s + d, l)) addr (int_range (-20) 20) len);
        (2, map3 (fun d l c -> Fill (d, l, c)) addr len (oneofl [ '\000'; 'x'; '\255' ]));
        ( 2,
          map2
            (fun d l -> Blit_string (d, String.init (max l 0) (fun i -> Char.chr (i land 0xff))))
            addr len );
        (2, map2 (fun s l -> Read_string (s, l)) addr len);
        (1, return Snapshot);
        (2, return Diff);
      ]
  in
  pair (return size) (list_size (int_range 1 40) op)

let prop_paged_matches_flat =
  QCheck.Test.make ~count:300 ~name:"paged memory matches a flat reference"
    (QCheck.make gen_mem_case ~print:(fun (size, ops) ->
         Printf.sprintf "size %d: %s" size (String.concat "; " (List.map show_op ops))))
    (fun (size, ops) ->
      let m = Kernel.Memory.create ~size and b = Bytes.make size '\000' in
      let snaps = ref (Kernel.Memory.snapshot m, Bytes.copy b) in
      let run op =
        let paged f = try f () with Kernel.Memory.Bad_phys_access _ -> Out_of_range in
        let flat f = try f () with Flat.Oob -> Out_of_range in
        let open Kernel.Memory in
        match op with
        | Read (a, s) -> (paged (fun () -> Int (read m a ~size:s)), flat (fun () -> Int (Flat.read b a s)))
        | Write (a, s, v) ->
          ( paged (fun () -> write m a ~size:s v; Done),
            flat (fun () -> Flat.write b a s v; Done) )
        | Blit (s, d, l) ->
          ( paged (fun () -> blit m ~src:s ~dst:d ~len:l; Done),
            flat (fun () -> Flat.blit b ~src:s ~dst:d ~len:l; Done) )
        | Fill (d, l, c) ->
          ( paged (fun () -> fill m ~dst:d ~len:l c; Done),
            flat (fun () -> Flat.fill b ~dst:d ~len:l c; Done) )
        | Blit_string (d, s) ->
          ( paged (fun () -> blit_string m ~dst:d s; Done),
            flat (fun () -> Flat.blit_string b ~dst:d s; Done) )
        | Read_string (s, l) ->
          ( paged (fun () -> Str (read_string m ~src:s ~len:l)),
            flat (fun () -> Str (Flat.read_string b ~src:s ~len:l)) )
        | Snapshot ->
          let ps = snapshot m and fs = Bytes.copy b in
          snaps := (ps, fs);
          (Str (Bytes.to_string ps), Str (Bytes.to_string fs))
        | Diff ->
          let ps, fs = !snaps in
          (Ranges (diff_ranges m ps), Ranges (Flat.diff_ranges b fs))
      in
      List.for_all (fun op -> let p, f = run op in p = f) ops
      && Kernel.Memory.read_string m ~src:0 ~len:size = Bytes.to_string b
      && Kernel.Memory.resident_bytes m <= ((size + chunk - 1) / chunk) * chunk)

let test_fresh_kernel_resident () =
  checki "fresh kernel materialises no page" 0
    (Kernel.Memory.resident_bytes (Kernel.memory (fresh ())))

let test_zero_memset_stays_shared () =
  let k = fresh () in
  let len = 3 * page in
  let va = Kernel.kmalloc k ~size:len in
  let before = Kernel.Memory.resident_bytes (Kernel.memory k) in
  ignore (Kernel.call_symbol k "memset" [| va; 0; len |]);
  checki "zero memset over untouched pages" before
    (Kernel.Memory.resident_bytes (Kernel.memory k));
  Alcotest.(check string) "still reads zero" (String.make len '\000')
    (Kernel.read_string k ~addr:va ~len);
  ignore (Kernel.call_symbol k "memset" [| va + page - 2; 7; 4 |]);
  checki "non-zero memset materialises the two chunks it spans" (before + (2 * chunk))
    (Kernel.Memory.resident_bytes (Kernel.memory k))

(* A fresh 64 MiB memory is its directory plus the shared zero leaf and
   zero chunk; a first store adds one private leaf (its slots and a
   header) and one private chunk (its bytes, a padding word and a
   header). *)
let test_fresh_memory_footprint () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let m = Kernel.Memory.create ~size:(64 lsl 20) in
  let fresh = words m in
  checkb (Printf.sprintf "fresh 64 MiB memory: %d words <= 1,000" fresh) true (fresh <= 1_000);
  Kernel.Memory.write m 0x123_4560 ~size:8 42;
  checki "one store adds one leaf and one chunk"
    (Kernel.Memory.leaf_chunks + 1 + (chunk / 8) + 2)
    (words m - fresh);
  checki "reads back" 42 (Kernel.Memory.read m 0x123_4560 ~size:8)

let test_testbed_resident_bounded () =
  (* the fig7 set-up: R350, guarded driver, 0.0004 stall, 128 B packets *)
  let config =
    {
      Testbed.default_config with
      machine = Machine.Presets.r350;
      technique = Testbed.Carat;
      stall_prob = 0.0004;
    }
  in
  let tb = Testbed.create ~config () in
  ignore (Testbed.run_pktgen tb { Net.Pktgen.default_config with count = 100; size = 128 });
  let k = Testbed.kernel tb in
  let used = (Kernel.phys_used k + page - 1) / page * page in
  let resident = Kernel.Memory.resident_bytes (Kernel.memory k) in
  checkb "something was written" true (resident > 0);
  checkb
    (Printf.sprintf "resident %d <= phys_used %d rounded to a page" resident used)
    true (resident <= used)

let test_memory_hot_path_allocation_free () =
  let m = Kernel.Memory.create ~size:(4 * page) in
  (* a chunk's first store allocates it; materialise them all up front *)
  Kernel.Memory.fill m ~dst:0 ~len:(4 * page) 'a';
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let a = page + ((i * 8) land (page - 8)) in
    Kernel.Memory.write m a ~size:8 i;
    Kernel.Memory.write m a ~size:4 (Kernel.Memory.read m a ~size:8);
    Kernel.Memory.write m a ~size:2 (Kernel.Memory.read m a ~size:4);
    Kernel.Memory.write m a ~size:1 (Kernel.Memory.read m a ~size:2);
    ignore (Kernel.Memory.read m a ~size:1 : int);
    (* across a page boundary, disjoint and overlapping both ways *)
    Kernel.Memory.blit m ~src:(page - 100) ~dst:((3 * page) - 50) ~len:300;
    Kernel.Memory.blit m ~src:(page - 100) ~dst:(page - 60) ~len:300;
    Kernel.Memory.blit m ~src:(page - 60) ~dst:(page - 100) ~len:300
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

(* ---------- layout ---------- *)

let test_layout_predicates () =
  checkb "user" true (Kernel.Layout.is_user_addr 0x5000);
  checkb "not user" false (Kernel.Layout.is_user_addr Kernel.Layout.kernel_base);
  checkb "kernel" true (Kernel.Layout.is_kernel_addr Kernel.Layout.direct_map_base);
  checkb "module" true (Kernel.Layout.is_module_addr Kernel.Layout.module_base);
  checkb "mmio" true (Kernel.Layout.is_mmio_addr Kernel.Layout.mmio_base);
  checki "direct map round trip" 0x1234
    (Kernel.Layout.phys_of_direct_map (Kernel.Layout.direct_map_of_phys 0x1234))

(* ---------- virtual access ---------- *)

let test_direct_map_access () =
  let k = fresh () in
  let va = Kernel.kmalloc k ~size:64 in
  Kernel.write k ~addr:va ~size:8 0xABCD;
  checki "read back" 0xABCD (Kernel.read k ~addr:va ~size:8);
  (* the same bytes are visible through DMA (no cost, same phys) *)
  checki "dma view" 0xABCD (Kernel.dma_read k ~addr:va ~size:8)

let test_kernel_image_access () =
  let k = fresh () in
  let va = Kernel.Layout.kernel_data_base + 0x100 in
  Kernel.write k ~addr:va ~size:4 0x42;
  checki "image data" 0x42 (Kernel.read k ~addr:va ~size:4)

let test_fault_on_unmapped () =
  let k = fresh () in
  match Kernel.read k ~addr:0x0DEA_D000_0000_0000 ~size:8 with
  | exception Kernel.Fault _ -> ()
  | _ -> Alcotest.fail "unmapped read succeeded"

(* An access whose end lies past [max_int] wraps negative if summed;
   every range check must refuse it, so it faults instead of reaching
   physical memory. So does a negative size. *)
let test_fault_past_max_int () =
  let k = fresh () in
  let faults what f =
    match f () with
    | exception Kernel.Fault _ -> ()
    | _ -> Alcotest.failf "%s succeeded" what
  in
  let addr = max_int - 3 in
  faults "read" (fun () -> Kernel.read k ~addr ~size:8);
  faults "write" (fun () -> Kernel.write k ~addr ~size:8 1);
  faults "dma_read" (fun () -> Kernel.dma_read k ~addr ~size:8);
  faults "dma_write" (fun () -> Kernel.dma_write k ~addr ~size:8 1);
  faults "read_string" (fun () -> Kernel.read_string k ~addr ~len:8);
  faults "write_string" (fun () -> Kernel.write_string k ~addr "12345678");
  let va = Kernel.kmalloc k ~size:64 in
  faults "negative size" (fun () -> Kernel.read k ~addr:(va + 8) ~size:(-8));
  let ua = Kernel.map_user k ~size:64 in
  faults "negative size, mapped" (fun () -> Kernel.read k ~addr:(ua + 8) ~size:(-8));
  faults "wrapping, mapped" (fun () -> Kernel.read k ~addr:ua ~size:max_int)

(* Once its pages and cache sets are filled, a RAM access builds nothing
   on the host heap: no translation result, no boxed value. *)
let test_access_path_allocation_free () =
  let k = fresh () in
  let va = Kernel.kmalloc k ~size:4096 in
  let ua = Kernel.map_user k ~size:64 and ub = Kernel.map_user k ~size:64 in
  for i = 0 to 511 do
    Kernel.write k ~addr:(va + (i * 8)) ~size:8 i;
    ignore (Kernel.read k ~addr:(va + (i * 8)) ~size:8 : int)
  done;
  Kernel.write k ~addr:ua ~size:8 0;
  Kernel.write k ~addr:ub ~size:8 0;
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    let a = va + ((i * 8) land 4095) in
    Kernel.write k ~addr:a ~size:8 (Kernel.read k ~addr:a ~size:8 + 1)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words, 100k direct-map read+write pairs" 0.0 words;
  let sum = ref 0 in
  for i = 0 to 511 do
    sum := !sum + Kernel.dma_read k ~addr:(va + (i * 8)) ~size:8
  done;
  checki "every increment landed" ((511 * 512 / 2) + 100_000) !sum;
  (* two user mappings in turn: each switch misses the one-entry
     mapping cache and scans the mapping list *)
  let w0 = Gc.minor_words () in
  for i = 0 to 49_999 do
    let a = if i land 1 = 0 then ua else ub in
    Kernel.write k ~addr:a ~size:8 (Kernel.read k ~addr:a ~size:8 + 1)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words, 50k mapped read+write pairs" 0.0 words;
  checki "mapped increments landed" 50_000
    (Kernel.read k ~addr:ua ~size:8 + Kernel.read k ~addr:ub ~size:8)

let test_user_mapping () =
  let k = fresh () in
  let ua = Kernel.map_user k ~size:4096 in
  checkb "in user half" true (Kernel.Layout.is_user_addr ua);
  Kernel.write k ~addr:ua ~size:8 77;
  checki "user rw" 77 (Kernel.read k ~addr:ua ~size:8)

let test_module_alloc_distinct () =
  let k = fresh () in
  let a = Kernel.module_alloc k ~size:128 in
  let b = Kernel.module_alloc k ~size:128 in
  checkb "distinct" true (a <> b);
  checkb "module area" true (Kernel.Layout.is_module_addr a);
  Kernel.write k ~addr:a ~size:8 1;
  Kernel.write k ~addr:b ~size:8 2;
  checki "no aliasing" 1 (Kernel.read k ~addr:a ~size:8)

let test_kmalloc_alignment () =
  let k = fresh () in
  let a = Kernel.kmalloc k ~size:10 in
  let b = Kernel.kmalloc k ~size:10 in
  checki "64B aligned" 0 (a land 63);
  checki "64B aligned 2" 0 (b land 63);
  checkb "no overlap" true (b >= a + 10)

let test_out_of_memory_panics () =
  let k = Kernel.create ~require_signature:false ~phys_size:(8 * 1024 * 1024)
      Machine.Presets.r350 in
  match Kernel.kmalloc k ~size:(32 * 1024 * 1024) with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "oom not detected"

(* The kmalloc native answers NULL for a size no allocation can satisfy
   and leaves the allocator as it was: a negative size would move the
   bump pointer back, one near max_int would wrap the bound, and a
   negative first-fit extent would match any free block. *)
let test_kmalloc_impossible_sizes () =
  let k = fresh () in
  let kmalloc size = Kernel.call_symbol k "kmalloc" [| size |] in
  let a = kmalloc 4096 in
  let b = kmalloc 64 in
  let refused what size =
    let used = Kernel.phys_used k and free = k.Kernel.kfree_list in
    checki (what ^ ": NULL") 0 (kmalloc size);
    checki (what ^ ": phys_used unchanged") used (Kernel.phys_used k);
    checkb (what ^ ": free list unchanged") true (k.Kernel.kfree_list = free)
  in
  refused "negative" (-4096);
  refused "near max_int" (max_int - 100);
  let c = kmalloc 64 in
  checkb "next block above every earlier one" true (c > a && c >= b + 64);
  checki "kfree" 0 (Kernel.call_symbol k "kfree" [| a |]);
  checkb "freed block on the free list" true (k.Kernel.kfree_list <> []);
  refused "negative, block free" (-64);
  checki "freed block reused first-fit" a (kmalloc 64);
  (match Kernel.kmalloc k ~size:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Kernel.kmalloc took a negative size");
  checkb "kernel alive" true (Kernel.panic_state k = None)

(* ---------- mmio ---------- *)

let test_ioremap_dispatch () =
  let k = fresh () in
  let last_write = ref (0, 0, 0) in
  let r =
    Kernel.ioremap k ~name:"dev" ~size:4096
      ~read:(fun off size -> off * 100 + size)
      ~write:(fun off size v -> last_write := (off, size, v))
  in
  let base = r.Kernel.mmio_virt in
  checkb "in mmio window" true (Kernel.Layout.is_mmio_addr base);
  checki "read handler" (8 * 100 + 4) (Kernel.read k ~addr:(base + 8) ~size:4);
  Kernel.write k ~addr:(base + 16) ~size:4 0xBEEF;
  Alcotest.(check (triple int int int)) "write handler" (16, 4, 0xBEEF) !last_write

let test_mmio_costs_more_than_ram () =
  let k = fresh () in
  let r = Kernel.ioremap k ~name:"d" ~size:64 ~read:(fun _ _ -> 0)
      ~write:(fun _ _ _ -> ()) in
  let heap = Kernel.kmalloc k ~size:64 in
  ignore (Kernel.read k ~addr:heap ~size:8) (* warm *);
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  ignore (Kernel.read k ~addr:heap ~size:8);
  let ram = Machine.Model.cycles m - c0 in
  let c1 = Machine.Model.cycles m in
  ignore (Kernel.read k ~addr:r.Kernel.mmio_virt ~size:4);
  let mmio = Machine.Model.cycles m - c1 in
  checkb "mmio slower" true (mmio > ram + 50)

(* ---------- symbols ---------- *)

let test_native_symbols () =
  let k = fresh () in
  Kernel.register_native k "triple" (fun _ args -> args.(0) * 3);
  checki "native call" 21 (Kernel.call_symbol k "triple" [| 7 |])

let test_symbol_address_stability () =
  let k = fresh () in
  Kernel.register_native k "f" (fun _ _ -> 0);
  let a1 = Option.get (Kernel.symbol_address k "f") in
  let a2 = Option.get (Kernel.symbol_address k "f") in
  checki "stable" a1 a2;
  Alcotest.(check (option string)) "reverse map" (Some "f")
    (Kernel.symbol_of_address k a1);
  checkb "missing symbol" true (Kernel.symbol_address k "nope" = None)

let test_call_missing_symbol_panics () =
  let k = fresh () in
  match Kernel.call_symbol k "ghost" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "missing symbol call"

(* ---------- module loading ---------- *)

let tiny_module ?(name = "tiny") () =
  let b = Kir.Builder.create name in
  ignore (Kir.Builder.declare_global b "state" ~size:16);
  ignore (Kir.Builder.start_func b "ping" ~params:[] ~ret:(Some Kir.Types.I64));
  Kir.Builder.ret b (Some (Kir.Types.Imm 1));
  Kir.Builder.modul b

let test_insmod_basic () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  (match Kernel.insmod k (tiny_module ()) with
  | Ok lm ->
    Alcotest.(check string) "name" "tiny" lm.Kernel.lm_name;
    checki "ping" 1 (Kernel.call_symbol k "ping" [||]);
    checkb "logged" true (Kernel.Klog.contains (Kernel.log k) "module tiny loaded")
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e))

let test_insmod_requires_signature () =
  let k = fresh ~require_signature:true () in
  match Kernel.insmod k (tiny_module ()) with
  | Error (Kernel.Signature_rejected Passes.Signing.Unsigned) -> ()
  | Ok _ -> Alcotest.fail "unsigned module accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_signed_ok () =
  let k = fresh ~require_signature:true () in
  ignore (Vm.Interp.install k);
  Kernel.register_native k "carat_guard" (fun _ _ -> 0);
  let m = tiny_module () in
  ignore (Passes.Pipeline.compile m);
  match Kernel.insmod k m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "signed rejected: %s" (Kernel.load_error_to_string e)

let test_insmod_requires_certificate () =
  let k = fresh ~require_certificate:true () in
  ignore (Vm.Interp.install k);
  Kernel.register_native k "carat_guard" (fun _ _ -> 0);
  (* a compiled module carries a valid certificate: accepted *)
  let m = tiny_module () in
  ignore (Passes.Pipeline.compile m);
  (match Kernel.insert_module k m with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "certified rejected: %s" (Kernel.load_error_to_string e));
  (* signed but never certified (baseline pipeline): missing *)
  let m2 = tiny_module ~name:"uncert" () in
  ignore
    (Passes.Pass.run_pipeline_checked (Passes.Pipeline.baseline_sign ()) m2);
  (match Kernel.insert_module k m2 with
  | Error (Kernel.Certificate_rejected Analysis.Certify.Cert_missing) -> ()
  | Ok _ -> Alcotest.fail "uncertified module accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e));
  (* tampered after certification, then re-signed: the signature is
     fine but the certificate digest no longer matches the body *)
  let m3 = tiny_module ~name:"stale" () in
  ignore (Passes.Pipeline.compile m3);
  (match m3.Kir.Types.funcs with
  | f :: _ ->
    f.Kir.Types.blocks <-
      f.Kir.Types.blocks
      @ [ { Kir.Types.b_label = "patch"; body = []; term = Kir.Types.Ret None } ]
  | [] -> ());
  ignore
    (Passes.Signing.sign ~key:Passes.Pipeline.default_key ~signer:"evil" m3);
  (match Kernel.insert_module k m3 with
  | Error (Kernel.Certificate_rejected (Analysis.Certify.Cert_stale _)) -> ()
  | Ok _ -> Alcotest.fail "stale certificate accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e));
  (* same tamper, but with enforcement off: loads fine *)
  let k2 = fresh () in
  ignore (Vm.Interp.install k2);
  Kernel.register_native k2 "carat_guard" (fun _ _ -> 0);
  let m4 = tiny_module ~name:"lax" () in
  ignore (Passes.Pipeline.compile m4);
  m4.Kir.Types.meta <-
    List.filter
      (fun (key, _) -> key <> Passes.Attest.meta_cert)
      m4.Kir.Types.meta;
  match Kernel.insert_module k2 m4 with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "permissive kernel rejected: %s"
      (Kernel.load_error_to_string e)

let test_insmod_unresolved_import () =
  let k = fresh () in
  let b = Kir.Builder.create "needy" in
  Kir.Builder.declare_extern b "does_not_exist" ~arity:0;
  ignore (Kir.Builder.start_func b "f" ~params:[] ~ret:None);
  Kir.Builder.call_unit b "does_not_exist" [];
  Kir.Builder.ret b None;
  match Kernel.insmod k (Kir.Builder.modul b) with
  | Error (Kernel.Unresolved_import "does_not_exist") -> ()
  | Ok _ -> Alcotest.fail "unresolved import accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_symbol_collision () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  (match Kernel.insmod k (tiny_module ()) with Ok _ -> () | Error _ -> assert false);
  match Kernel.insmod k (tiny_module ~name:"tiny2" ()) with
  | Error (Kernel.Symbol_collision _) -> ()
  | Ok _ -> Alcotest.fail "collision accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_invalid_ir () =
  let k = fresh () in
  let m = tiny_module () in
  (* corrupt: jump to a missing label *)
  (match m.Kir.Types.funcs with
  | f :: _ -> f.Kir.Types.blocks <-
      [ { Kir.Types.b_label = "entry"; body = []; term = Kir.Types.Br "gone" } ]
  | [] -> ());
  match Kernel.insmod k m with
  | Error (Kernel.Verification_failed _) -> ()
  | Ok _ -> Alcotest.fail "invalid IR accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_runs_init () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let b = Kir.Builder.create "initful" in
  ignore (Kir.Builder.declare_global b "flag" ~size:8);
  ignore (Kir.Builder.start_func b "init_module" ~params:[] ~ret:(Some Kir.Types.I64));
  Kir.Builder.store b Kir.Types.I64 (Kir.Types.Imm 123) (Kir.Types.Sym "flag");
  Kir.Builder.ret b (Some (Kir.Types.Imm 0));
  (match Kernel.insmod k (Kir.Builder.modul b) with
  | Ok lm ->
    let addr = List.assoc "flag" lm.Kernel.lm_globals in
    checki "init ran" 123 (Kernel.read k ~addr ~size:8)
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e))

let test_global_init_and_writability () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let b = Kir.Builder.create "gmod" in
  ignore (Kir.Builder.declare_global b "data" ~size:8 ~init:"AB");
  ignore (Kir.Builder.start_func b "f" ~params:[] ~ret:None);
  Kir.Builder.ret b None;
  (match Kernel.insmod k (Kir.Builder.modul b) with
  | Ok lm ->
    let addr = List.assoc "data" lm.Kernel.lm_globals in
    checki "init byte 0" (Char.code 'A') (Kernel.read k ~addr ~size:1);
    checki "init byte 1" (Char.code 'B') (Kernel.read k ~addr:(addr + 1) ~size:1);
    checki "zero filled" 0 (Kernel.read k ~addr:(addr + 2) ~size:1)
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e))

let test_rmmod () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let lm = Result.get_ok (Kernel.insmod k (tiny_module ())) in
  checkb "unloads" true (Kernel.rmmod k lm = Ok ());
  (match Kernel.call_symbol k "ping" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "symbol survived rmmod");
  checkb "double unload" true (Kernel.rmmod k lm = Error Kernel.Already_dead)

let test_rmmod_refused_with_locks () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let b = Kir.Builder.create "locky" in
  Kir.Builder.declare_extern b "spin_lock" ~arity:1;
  ignore (Kir.Builder.start_func b "grab" ~params:[] ~ret:(Some Kir.Types.I64));
  Kir.Builder.call_unit b "spin_lock" [ Kir.Types.Imm 0 ];
  Kir.Builder.ret b (Some (Kir.Types.Imm 0));
  let lm = Result.get_ok (Kernel.insmod k (Kir.Builder.modul b)) in
  ignore (Kernel.call_symbol k "grab" [||]);
  (match Kernel.rmmod k lm with
  | Error (Kernel.Locks_held 1) -> ()
  | _ -> Alcotest.fail "unload with held lock allowed");
  checkb "warned" true
    (Kernel.Klog.contains (Kernel.log k) "forced unload would deadlock")

(* ---------- natives ---------- *)

let test_native_memcpy_memset () =
  let k = fresh () in
  let a = Kernel.kmalloc k ~size:64 and b = Kernel.kmalloc k ~size:64 in
  Kernel.write_string k ~addr:a "carat-kop";
  ignore (Kernel.call_symbol k "memcpy" [| b; a; 9 |]);
  Alcotest.(check string) "memcpy" "carat-kop" (Kernel.read_string k ~addr:b ~len:9);
  ignore (Kernel.call_symbol k "memset" [| b; Char.code '!'; 4 |]);
  Alcotest.(check string) "memset" "!!!!t-kop" (Kernel.read_string k ~addr:b ~len:9)

let test_native_get_cycles_monotone () =
  let k = fresh () in
  let c1 = Kernel.call_symbol k "get_cycles" [||] in
  Machine.Model.add_cycles (Kernel.machine k) 100;
  let c2 = Kernel.call_symbol k "get_cycles" [||] in
  checkb "monotone" true (c2 > c1)

let test_native_ndelay () =
  let k = fresh () in
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  ignore (Kernel.call_symbol k "ndelay" [| 1000 |]);
  let dt = Machine.Model.cycles m - c0 in
  (* 1000 ns at 2.8 GHz = 2800 cycles *)
  checkb "delay about right" true (dt > 2500 && dt < 3500)

(* ---------- devices & ioctl ---------- *)

let test_ioctl_dispatch () =
  let k = fresh () in
  Kernel.register_device k "widget" (fun _ ~cmd ~arg -> cmd * 10 + arg);
  checki "dispatched" 42 (Kernel.ioctl k ~dev:"widget" ~cmd:4 ~arg:2);
  checki "missing device" (-1) (Kernel.ioctl k ~dev:"nope" ~cmd:0 ~arg:0)

let test_ioctl_charges_syscall () =
  let k = fresh () in
  Kernel.register_device k "w" (fun _ ~cmd:_ ~arg:_ -> 0);
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  ignore (Kernel.ioctl k ~dev:"w" ~cmd:1 ~arg:0);
  checkb "syscall cost" true
    (Machine.Model.cycles m - c0
    >= Machine.Presets.r350.Machine.Model.syscall_overhead)

(* ---------- panic & log ---------- *)

let test_panic_carries_log_tail () =
  let k = fresh () in
  Kernel.Klog.printk (Kernel.log k) "something happened";
  (match Kernel.panic k "test reason" with
  | exception Kernel.Panic info ->
    checkb "reason" true (info.Kernel.reason = "test reason");
    checkb "tail present" true (List.length info.Kernel.log_tail > 0)
  | _ -> Alcotest.fail "no exception");
  (* kernel is dead now *)
  (match Kernel.call_symbol k "get_cycles" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "dead kernel accepted a call");
  match Kernel.insmod k (tiny_module ()) with
  | Error Kernel.Kernel_is_panicked -> ()
  | _ -> Alcotest.fail "dead kernel accepted insmod"

let test_panic_idempotent () =
  let k = fresh () in
  (match Kernel.panic k "first fault" with
  | exception Kernel.Panic info ->
    checkb "first reason" true (info.Kernel.reason = "first fault")
  | _ -> Alcotest.fail "no exception");
  (* a second panic — e.g. raised from a crash handler — must preserve
     the original diagnosis, not overwrite it *)
  (match Kernel.panic k "secondary crash" with
  | exception Kernel.Panic info ->
    checkb "original preserved" true (info.Kernel.reason = "first fault")
  | _ -> Alcotest.fail "no exception");
  match Kernel.panic_state k with
  | Some info ->
    checkb "state keeps original" true (info.Kernel.reason = "first fault")
  | None -> Alcotest.fail "no panic state"

(* ---------- quarantine ---------- *)

let test_quarantine_basics () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  match Kernel.insmod k (tiny_module ()) with
  | Error _ -> Alcotest.fail "insmod"
  | Ok lm ->
    checki "live call" 1 (Kernel.call_symbol k "ping" [||]);
    Kernel.quarantine_module k lm ~reason:"test quarantine";
    checki "one record" 1 (List.length (Kernel.quarantine_records k));
    (* quarantining twice is a no-op *)
    Kernel.quarantine_module k lm ~reason:"again";
    checki "still one record" 1 (List.length (Kernel.quarantine_records k));
    (* symbols are unlinked: calls return -EIO instead of running *)
    checki "call returns eio" Kernel.eio (Kernel.call_symbol k "ping" [||]);
    checkb "tombstone present" true (Kernel.quarantined_symbol k "ping" <> None);
    checkb "unlinked" true (Kernel.lookup_symbol k "ping" = None);
    checkb "kernel alive" true (Kernel.panic_state k = None);
    (* rmmod reclaims the name; a repaired module can come back *)
    (match Kernel.rmmod k lm with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "rmmod of quarantined module");
    checkb "tombstone purged" true (Kernel.quarantined_symbol k "ping" = None);
    (match Kernel.insmod k (tiny_module ()) with
    | Ok _ -> checki "replacement runs" 1 (Kernel.call_symbol k "ping" [||])
    | Error _ -> Alcotest.fail "reinsert after rmmod")

(* ---------- snapshot / diff ---------- *)

let test_memory_diff () =
  let m = Kernel.Memory.create ~size:256 in
  let snap = Kernel.Memory.snapshot m in
  checkb "no diff when untouched" true (Kernel.Memory.diff_ranges m snap = []);
  Kernel.Memory.write m 10 ~size:2 0xFFFF;
  Kernel.Memory.write_u8 m 100 1;
  match Kernel.Memory.diff_ranges m snap with
  | [ (10, 2); (100, 1) ] -> ()
  | d ->
    Alcotest.failf "unexpected diff: %s"
      (String.concat ";"
         (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) d))

(* ---------- watchdog ---------- *)

let test_watchdog_fires_on_deadline () =
  let k = fresh () in
  let machine = Kernel.machine k in
  let wd = Kernel.Watchdog.create ~period:1_000 machine in
  let runs = ref 0 in
  Kernel.Watchdog.add_check wd ~name:"probe" (fun () ->
      incr runs;
      0);
  checki "period readable" 1_000 (Kernel.Watchdog.period wd);
  (* before the deadline: nothing fires, no cost *)
  checki "early run_pending is a no-op" 0
    (Kernel.Watchdog.advance wd ~cycles:10);
  checki "no fire yet" 0 (Kernel.Watchdog.fires wd);
  checki "check not run" 0 !runs;
  (* past the deadline: one fire, the check runs, overhead is charged *)
  let before = Machine.Model.cycles machine in
  ignore (Kernel.Watchdog.advance wd ~cycles:1_000);
  checki "one fire" 1 (Kernel.Watchdog.fires wd);
  checki "check ran once" 1 !runs;
  checkb "interrupt overhead charged" true
    (Machine.Model.cycles machine >= before + 1_000 + 110)

let test_watchdog_coalesces_missed_periods () =
  let k = fresh () in
  let wd = Kernel.Watchdog.create ~period:1_000 (Kernel.machine k) in
  let runs = ref 0 in
  Kernel.Watchdog.add_check wd ~name:"probe" (fun () ->
      incr runs;
      0);
  (* ten periods of idle time, one catch-up opportunity: a real softirq
     coalesces back-to-back missed expiries into one *)
  ignore (Kernel.Watchdog.advance wd ~cycles:10_000);
  checki "one coalesced fire" 1 (Kernel.Watchdog.fires wd);
  checki "check ran once" 1 !runs;
  (* the deadline re-armed from now, so the next period fires again *)
  ignore (Kernel.Watchdog.advance wd ~cycles:1_200);
  checki "re-armed" 2 (Kernel.Watchdog.fires wd)

let test_watchdog_problems_and_disable () =
  let k = fresh () in
  let wd = Kernel.Watchdog.create ~period:1_000 (Kernel.machine k) in
  Kernel.Watchdog.add_check wd ~name:"broken" (fun () -> 3);
  Kernel.Watchdog.add_check wd ~name:"fine" (fun () -> 0);
  (* run_now skips the deadline test and sums across checks *)
  checki "run_now totals problems" 3 (Kernel.Watchdog.run_now wd);
  checki "accumulated" 3 (Kernel.Watchdog.problems wd);
  checki "no periodic fire from run_now" 0 (Kernel.Watchdog.fires wd);
  (match Kernel.Watchdog.checks wd with
  | [ a; b ] ->
    Alcotest.(check string) "registration order" "broken" a.Kernel.Watchdog.ck_name;
    checki "per-check problems" 3 a.Kernel.Watchdog.ck_problems;
    checki "clean check clean" 0 b.Kernel.Watchdog.ck_problems
  | _ -> Alcotest.fail "two checks expected");
  Kernel.Watchdog.disable wd;
  checki "disabled: no fire" 0 (Kernel.Watchdog.advance wd ~cycles:5_000);
  checki "still zero fires" 0 (Kernel.Watchdog.fires wd);
  Kernel.Watchdog.enable wd;
  ignore (Kernel.Watchdog.advance wd ~cycles:1);
  checki "enabled again fires" 1 (Kernel.Watchdog.fires wd)

let test_klog_ring () =
  let log = Kernel.Klog.create ~capacity:4 () in
  for i = 1 to 10 do
    Kernel.Klog.printk log "entry %d" i
  done;
  checki "bounded" 4 (List.length (Kernel.Klog.entries log));
  checkb "has newest" true (Kernel.Klog.contains log "entry 10");
  checkb "dropped oldest" false (Kernel.Klog.contains log "entry 2");
  let tail = Kernel.Klog.tail log 2 in
  Alcotest.(check (list string)) "tail order" [ "entry 9"; "entry 10" ] tail;
  Kernel.Klog.clear log;
  checki "cleared" 0 (List.length (Kernel.Klog.entries log))

let () =
  Alcotest.run "kernel"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "blit" `Quick test_memory_blit;
          QCheck_alcotest.to_alcotest prop_paged_matches_flat;
          Alcotest.test_case "fresh kernel resident" `Quick test_fresh_kernel_resident;
          Alcotest.test_case "zero memset stays shared" `Quick
            test_zero_memset_stays_shared;
          Alcotest.test_case "fresh memory footprint" `Quick test_fresh_memory_footprint;
          Alcotest.test_case "testbed resident bounded" `Quick
            test_testbed_resident_bounded;
          Alcotest.test_case "hot path allocation-free" `Quick
            test_memory_hot_path_allocation_free;
        ] );
      ( "layout",
        [ Alcotest.test_case "predicates" `Quick test_layout_predicates ] );
      ( "address-space",
        [
          Alcotest.test_case "direct map" `Quick test_direct_map_access;
          Alcotest.test_case "kernel image" `Quick test_kernel_image_access;
          Alcotest.test_case "fault unmapped" `Quick test_fault_on_unmapped;
          Alcotest.test_case "fault past max_int" `Quick test_fault_past_max_int;
          Alcotest.test_case "access path allocation-free" `Quick
            test_access_path_allocation_free;
          Alcotest.test_case "user mapping" `Quick test_user_mapping;
          Alcotest.test_case "module allocs" `Quick test_module_alloc_distinct;
          Alcotest.test_case "kmalloc alignment" `Quick test_kmalloc_alignment;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory_panics;
          Alcotest.test_case "kmalloc impossible sizes" `Quick
            test_kmalloc_impossible_sizes;
        ] );
      ( "mmio",
        [
          Alcotest.test_case "ioremap dispatch" `Quick test_ioremap_dispatch;
          Alcotest.test_case "mmio cost" `Quick test_mmio_costs_more_than_ram;
        ] );
      ( "symbols",
        [
          Alcotest.test_case "native" `Quick test_native_symbols;
          Alcotest.test_case "addresses" `Quick test_symbol_address_stability;
          Alcotest.test_case "missing panics" `Quick test_call_missing_symbol_panics;
        ] );
      ( "modules",
        [
          Alcotest.test_case "insmod basic" `Quick test_insmod_basic;
          Alcotest.test_case "unsigned rejected" `Quick test_insmod_requires_signature;
          Alcotest.test_case "signed accepted" `Quick test_insmod_signed_ok;
          Alcotest.test_case "certificate gate" `Quick
            test_insmod_requires_certificate;
          Alcotest.test_case "unresolved import" `Quick test_insmod_unresolved_import;
          Alcotest.test_case "symbol collision" `Quick test_insmod_symbol_collision;
          Alcotest.test_case "invalid IR" `Quick test_insmod_invalid_ir;
          Alcotest.test_case "init_module runs" `Quick test_insmod_runs_init;
          Alcotest.test_case "global init" `Quick test_global_init_and_writability;
          Alcotest.test_case "rmmod" `Quick test_rmmod;
          Alcotest.test_case "rmmod lock refusal" `Quick test_rmmod_refused_with_locks;
        ] );
      ( "natives",
        [
          Alcotest.test_case "memcpy/memset" `Quick test_native_memcpy_memset;
          Alcotest.test_case "get_cycles" `Quick test_native_get_cycles_monotone;
          Alcotest.test_case "ndelay" `Quick test_native_ndelay;
        ] );
      ( "devices",
        [
          Alcotest.test_case "ioctl dispatch" `Quick test_ioctl_dispatch;
          Alcotest.test_case "ioctl syscall cost" `Quick test_ioctl_charges_syscall;
        ] );
      ( "panic",
        [
          Alcotest.test_case "panic flow" `Quick test_panic_carries_log_tail;
          Alcotest.test_case "panic idempotent" `Quick test_panic_idempotent;
          Alcotest.test_case "klog ring" `Quick test_klog_ring;
        ] );
      ( "quarantine",
        [ Alcotest.test_case "basics" `Quick test_quarantine_basics ] );
      ( "watchdog",
        [
          Alcotest.test_case "fires on deadline" `Quick
            test_watchdog_fires_on_deadline;
          Alcotest.test_case "coalesces missed periods" `Quick
            test_watchdog_coalesces_missed_periods;
          Alcotest.test_case "problems + disable" `Quick
            test_watchdog_problems_and_disable;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "diff ranges" `Quick test_memory_diff ] );
    ]
