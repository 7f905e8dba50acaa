(* Policy engine: regions, the linear table, alternative structures
   (equivalence-tested against the linear reference), the engine, and the
   policy module with its ioctl interface. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fresh () = Kernel.create ~require_signature:false Machine.Presets.r350

let region ?(tag = "") ?(prot = Policy.Region.prot_rw) base len =
  Policy.Region.v ~tag ~base ~len ~prot ()

(* ---------- regions ---------- *)

let test_region_contains () =
  let r = region 100 50 in
  checkb "inside" true (Policy.Region.contains r ~addr:100 ~size:50);
  checkb "strict inside" true (Policy.Region.contains r ~addr:120 ~size:8);
  checkb "below" false (Policy.Region.contains r ~addr:99 ~size:2);
  checkb "spills over" false (Policy.Region.contains r ~addr:145 ~size:8);
  checkb "just past" false (Policy.Region.contains r ~addr:150 ~size:1);
  checkb "negative size" false (Policy.Region.contains r ~addr:150 ~size:(-1));
  (* a region ending exactly at max_int, probed by accesses whose end
     reaches it, and by one whose end wraps past it *)
  let top = region (max_int - 100) 100 in
  checkb "ends at max_int" true (Policy.Region.contains top ~addr:(max_int - 8) ~size:8);
  checkb "empty at max_int" true (Policy.Region.contains top ~addr:max_int ~size:0);
  checkb "one past max_int" false
    (Policy.Region.contains top ~addr:(max_int - 7) ~size:8);
  checkb "ends past max_int" false
    (Policy.Region.contains top ~addr:(max_int - 3) ~size:8);
  checkb "size max_int" false (Policy.Region.contains top ~addr:(max_int - 3) ~size:max_int)

let test_region_permits () =
  let ro = region ~prot:Policy.Region.prot_read 0 10 in
  checkb "read ok" true (Policy.Region.permits ro ~flags:Policy.Region.prot_read);
  checkb "write denied" false (Policy.Region.permits ro ~flags:Policy.Region.prot_write);
  checkb "rw denied" false (Policy.Region.permits ro ~flags:Policy.Region.prot_rw);
  let none = region ~prot:0 0 10 in
  checkb "deny-all region" false (Policy.Region.permits none ~flags:Policy.Region.prot_read)

let test_region_overlaps () =
  checkb "overlap" true (Policy.Region.overlaps (region 0 10) (region 5 10));
  checkb "nested" true (Policy.Region.overlaps (region 0 100) (region 10 5));
  checkb "adjacent" false (Policy.Region.overlaps (region 0 10) (region 10 10));
  checkb "disjoint" false (Policy.Region.overlaps (region 0 10) (region 50 10))

let test_region_validation () =
  (match region 0 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero length accepted");
  match region (-5) 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative base accepted"

let test_canonical_policies () =
  checki "two regions" 2 (List.length Policy.Region.kernel_only);
  checki "padded to 64" 64 (List.length (Policy.Region.kernel_only_padded 64));
  (* padded keeps semantics: kernel allowed, user denied *)
  let find addr rs = List.find_opt (fun r -> Policy.Region.contains r ~addr ~size:8) rs in
  let p = Policy.Region.kernel_only_padded 64 in
  (match find Kernel.Layout.direct_map_base p with
  | Some r -> checkb "kernel allowed" true (Policy.Region.permits r ~flags:3)
  | None -> Alcotest.fail "kernel unmatched");
  match find 0x100_0000_0000 p with
  | Some r -> checkb "user denied" false (Policy.Region.permits r ~flags:1)
  | None -> Alcotest.fail "user unmatched"

(* ---------- linear table ---------- *)

let test_linear_add_capacity () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:4 in
  for i = 0 to 3 do
    checkb "added" true (Policy.Linear_table.add t (region (i * 1000) 100) = Ok ())
  done;
  checkb "full" true (Result.is_error (Policy.Linear_table.add t (region 9000 1)));
  checki "count" 4 (Policy.Linear_table.count t)

let test_linear_first_match_wins () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:8 in
  ignore (Policy.Linear_table.add t (region ~tag:"first" 100 100));
  ignore (Policy.Linear_table.add t (region ~tag:"second" 100 100));
  match (Policy.Linear_table.lookup t ~addr:120 ~size:4).Policy.Structure.matched with
  | Some r -> Alcotest.(check string) "first wins" "first" r.Policy.Region.tag
  | None -> Alcotest.fail "no match"

let test_linear_remove_preserves_order () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:8 in
  ignore (Policy.Linear_table.add t (region ~tag:"a" 0 10));
  ignore (Policy.Linear_table.add t (region ~tag:"b" 100 10));
  ignore (Policy.Linear_table.add t (region ~tag:"c" 200 10));
  checkb "removed" true (Policy.Linear_table.remove t ~base:100);
  checkb "missing remove" false (Policy.Linear_table.remove t ~base:100);
  Alcotest.(check (list string)) "order kept" [ "a"; "c" ]
    (List.map (fun r -> r.Policy.Region.tag) (Policy.Linear_table.regions t))

let test_linear_scan_counts () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:64 in
  for i = 0 to 9 do
    ignore (Policy.Linear_table.add t (region (i * 1000) 100))
  done;
  checki "match at pos 7 scans 8" 8
    (Policy.Linear_table.lookup t ~addr:7000 ~size:4).Policy.Structure.scanned;
  checki "miss scans all" 10
    (Policy.Linear_table.lookup t ~addr:999_999 ~size:4).Policy.Structure.scanned

(* ---------- structure equivalence (qcheck) ---------- *)

(* random NON-overlapping region sets, which all structures accept *)
let gen_disjoint_regions =
  QCheck.Gen.(
    let* n = int_range 1 20 in
    let* lens = list_repeat n (int_range 1 50) in
    let* gaps = list_repeat n (int_range 1 50) in
    let* prots = list_repeat n (int_range 0 3) in
    let rec build base lens gaps prots acc =
      match (lens, gaps, prots) with
      | l :: ls, g :: gs, p :: ps ->
        build (base + l + g) ls gs ps (region ~prot:p base l :: acc)
      | _ -> List.rev acc
    in
    return (build 1000 lens gaps prots []))

let gen_probe = QCheck.Gen.(tup2 (int_range 0 3000) (int_range 1 8))

let build ?capacity k kind regions =
  match Policy.Ablation.build ?capacity k kind regions with
  | Ok a -> a
  | Error e -> Alcotest.failf "%s build: %s" (Policy.Ablation.to_string kind) e

(* verdicts carry the matched region, so agreeing verdicts means the same
   first match *)
let equivalence_prop kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s agrees with linear" (Policy.Ablation.to_string kind))
    ~count:100
    (QCheck.make QCheck.Gen.(tup2 gen_disjoint_regions (list_size (int_range 1 20) gen_probe)))
    (fun (regions, probes) ->
      let k = fresh () in
      let reference = build k Policy.Ablation.Linear regions in
      let candidate = build k kind regions in
      List.for_all
        (fun (addr, size) ->
          let check a =
            Policy.Ablation.check a ~addr ~size ~flags:Policy.Region.prot_read
          in
          check reference = check candidate)
        probes)

let prop_sorted_equiv = equivalence_prop Policy.Ablation.Sorted
let prop_splay_equiv = equivalence_prop Policy.Ablation.Splay
let prop_rbtree_equiv = equivalence_prop Policy.Ablation.Rbtree
let prop_cached_equiv = equivalence_prop Policy.Ablation.Cached
let prop_itree_equiv = equivalence_prop Policy.Ablation.Itree

(* rbtree structural invariants hold under random insertion *)
let prop_rbtree_invariants =
  QCheck.Test.make ~name:"rbtree invariants" ~count:100
    (QCheck.make gen_disjoint_regions) (fun regions ->
      let k = fresh () in
      let t = Policy.Rb_tree.create k ~capacity:64 in
      List.iter (fun r -> ignore (Policy.Rb_tree.add t r)) regions;
      Policy.Rb_tree.validate t = Ok ()
      && Policy.Rb_tree.count t = List.length regions
      &&
      (* in-order traversal is sorted by base *)
      let bases =
        List.map (fun r -> r.Policy.Region.base) (Policy.Rb_tree.regions t)
      in
      bases = List.sort compare bases)

let test_rbtree_rejects_overlap () =
  let k = fresh () in
  let t = Policy.Rb_tree.create k ~capacity:8 in
  ignore (Policy.Rb_tree.add t (region 0 100));
  checkb "overlap rejected" true
    (Result.is_error (Policy.Rb_tree.add t (region 50 100)))

let test_rbtree_logarithmic_scan () =
  let k = fresh () in
  let t = Policy.Rb_tree.create k ~capacity:64 in
  for i = 0 to 63 do
    ignore (Policy.Rb_tree.add t (region (i * 1000) 100))
  done;
  (match Policy.Rb_tree.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid tree: %s" e);
  let worst = ref 0 in
  for i = 0 to 63 do
    let out = Policy.Rb_tree.lookup t ~addr:((i * 1000) + 50) ~size:4 in
    checkb "found" true (out.Policy.Structure.matched <> None);
    if out.Policy.Structure.scanned > !worst then
      worst := out.Policy.Structure.scanned
  done;
  (* a valid red-black tree of 64 nodes is at most 2*log2(65) ~ 12 deep *)
  checkb "logarithmic depth" true (!worst <= 12)

let test_sorted_rejects_overlap () =
  let k = fresh () in
  let t = Policy.Sorted_table.create k ~capacity:8 in
  ignore (Policy.Sorted_table.add t (region 0 100));
  checkb "overlap rejected" true
    (Result.is_error (Policy.Sorted_table.add t (region 50 100)))

let test_splay_rejects_overlap () =
  let k = fresh () in
  let t = Policy.Splay_tree.create k ~capacity:8 in
  ignore (Policy.Splay_tree.add t (region 0 100));
  checkb "overlap rejected" true
    (Result.is_error (Policy.Splay_tree.add t (region 50 100)))

let test_splay_popularity () =
  let k = fresh () in
  let t = Policy.Splay_tree.create k ~capacity:32 in
  for i = 0 to 15 do
    ignore (Policy.Splay_tree.add t (region (i * 1000) 100))
  done;
  (* hit region 12 repeatedly: it splays to the root, later probes scan 1 *)
  ignore (Policy.Splay_tree.lookup t ~addr:12050 ~size:4);
  let second = Policy.Splay_tree.lookup t ~addr:12050 ~size:4 in
  checki "root hit" 1 second.Policy.Structure.scanned

let test_cached_hit_rate () =
  let k = fresh () in
  let t = Policy.Lookup_cache.create k ~capacity:16 in
  for i = 0 to 9 do
    ignore (Policy.Lookup_cache.add t (region (i * 1000) 100))
  done;
  for _ = 1 to 50 do
    ignore (Policy.Lookup_cache.lookup t ~addr:9050 ~size:4)
  done;
  checkb "mostly hits" true (Policy.Lookup_cache.hit_rate t > 0.9)

let test_bloom_no_false_negative_for_allowed () =
  let k = fresh () in
  let t = Policy.Bloom_front.create k ~capacity:16 in
  ignore (Policy.Bloom_front.add t (region 0x10000 0x1000));
  (* first query goes the slow path and seeds the filter; all later
     queries to the same page must still be allowed *)
  for _ = 1 to 20 do
    checkb "allowed" true
      ((Policy.Bloom_front.lookup t ~addr:0x10100 ~size:8).Policy.Structure.matched <> None)
  done;
  checkb "fp estimate sane" true (Policy.Bloom_front.fp_possible t < 0.01)

(* A filter entry admits every access in its page, so only a page every
   access of which first match allows read-write may enter the filter:
   not one the matched region covers only in part, and not one where an
   earlier region carves out a narrower rule. *)
let test_bloom_caches_whole_pages_only () =
  let k = fresh () in
  let t = Policy.Bloom_front.create k ~capacity:16 in
  ignore (Policy.Bloom_front.add t (region ~tag:"part" 0x10000 0x100));
  ignore (Policy.Bloom_front.add t (region ~tag:"ro" ~prot:Policy.Region.prot_read 0x20000 0x100));
  ignore (Policy.Bloom_front.add t (region ~tag:"page" 0x20000 0x1000));
  let tag addr =
    match (Policy.Bloom_front.lookup t ~addr ~size:8).Policy.Structure.matched with
    | Some r -> r.Policy.Region.tag
    | None -> "no match"
  in
  Alcotest.(check string) "part of a page" "part" (tag 0x10010);
  Alcotest.(check string) "rest of that page" "no match" (tag 0x10800);
  Alcotest.(check string) "rw rule under a carve-out" "page" (tag 0x20800);
  Alcotest.(check string) "the carve-out" "ro" (tag 0x20010)

(* A cache hit answers the cached region, so a region that an earlier
   region overlaps must never be cached: here a write at 0x500 matches
   the rw region, and a write into the deny hole listed before it must
   still hit the hole. *)
let test_cached_keeps_first_match () =
  let k = fresh () in
  let t = Policy.Lookup_cache.create k ~capacity:16 in
  ignore (Policy.Lookup_cache.add t (region ~tag:"hole" ~prot:0 0x1000 0x1000));
  ignore (Policy.Lookup_cache.add t (region ~tag:"rw" 0 0x10000));
  ignore (Policy.Lookup_cache.lookup t ~addr:0x500 ~size:8);
  match (Policy.Lookup_cache.lookup t ~addr:0x1500 ~size:8).Policy.Structure.matched with
  | Some r -> Alcotest.(check string) "the hole answers" "hole" r.Policy.Region.tag
  | None -> Alcotest.fail "no match"

(* ---------- engine ---------- *)

let test_engine_default_deny () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  (match Policy.Engine.check e ~addr:0x1234 ~size:8 ~flags:1 with
  | Policy.Engine.Denied None -> ()
  | _ -> Alcotest.fail "default deny");
  let st = Policy.Engine.stats e in
  checki "denied counted" 1 st.Policy.Engine.denied

(* An 8-byte access at [max_int - 3] ends past [max_int]. Under the
   paper's two-region policy the kernel high half ends exactly at
   [max_int], so the access matches no region and the default denies it
   on every tier: the linear walk, the span cache and a domain promoted
   to the interval tree. *)
let test_engine_denies_end_past_max_int () =
  let k = fresh () in
  let addr = max_int - 3 and w = Policy.Region.prot_write in
  let e = Policy.Engine.create k in
  Policy.Engine.set_policy e Policy.Region.kernel_only;
  (match Policy.Engine.check e ~addr ~size:8 ~flags:w with
  | Policy.Engine.Denied None -> ()
  | _ -> Alcotest.fail "linear walk allowed an access ending past max_int");
  let ic = Policy.Engine.create k in
  Policy.Engine.set_policy ic Policy.Region.kernel_only;
  Policy.Engine.enable_site_cache ic;
  for _ = 1 to 2 do
    checkb "span cache denies" false
      (Policy.Engine.check_fast ic ~site:3 ~addr ~size:8 ~flags:w)
  done;
  (* the last conforming access fills the site with the high half's
     span; the access past it must still miss and be denied *)
  checkb "span cache allows up to max_int" true
    (Policy.Engine.check_fast ic ~site:3 ~addr:(max_int - 8) ~size:8 ~flags:w);
  checkb "and denies again past it" false
    (Policy.Engine.check_fast ic ~site:3 ~addr ~size:8 ~flags:w);
  let dm = Policy.Domain.create ~fast_capacity:4 k in
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  checki "install" 0
    (Policy.Domain.install_regions dm ~domain:id
       (Policy.Region.kernel_only_padded 8));
  Alcotest.(check string) "interval tier" "interval" (Policy.Domain.dom_structure d);
  checkb "interval tier allows up to max_int" true
    (Policy.Domain.check dm ~domain:id ~addr:(max_int - 8) ~size:8 ~flags:w);
  checkb "interval tier denies" false
    (Policy.Domain.check dm ~domain:id ~addr ~size:8 ~flags:w)

let test_engine_default_allow () =
  let k = fresh () in
  let e = Policy.Engine.create ~default_allow:true k in
  match Policy.Engine.check e ~addr:0x1234 ~size:8 ~flags:1 with
  | Policy.Engine.Allowed None -> ()
  | _ -> Alcotest.fail "default allow"

let test_engine_permission_mismatch () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  ignore (Policy.Engine.add_region e (region ~prot:Policy.Region.prot_read 100 100));
  (match Policy.Engine.check e ~addr:150 ~size:4 ~flags:Policy.Region.prot_read with
  | Policy.Engine.Allowed (Some _) -> ()
  | _ -> Alcotest.fail "read should pass");
  match Policy.Engine.check e ~addr:150 ~size:4 ~flags:Policy.Region.prot_write with
  | Policy.Engine.Denied (Some _) -> ()
  | _ -> Alcotest.fail "write should fail"

(* One cost model: an ablation check of the linear table charges what
   the engine's exact check charges on the same policy, from a fresh
   kernel each — cycle for cycle, with the same verdicts and stats. *)
let test_ablation_engine_parity () =
  let rule =
    Policy.Region.v ~tag:"kernel" ~base:Kernel.Layout.kernel_base
      ~len:0x2FFF_FFFF_FFFF_FFFF ~prot:Policy.Region.prot_rw ()
  in
  let probes =
    List.concat
      (List.init 3 (fun i ->
           [
             (Kernel.Layout.direct_map_base + (i * 8), Policy.Region.prot_read);
             (Kernel.Layout.direct_map_base + 0x400, Policy.Region.prot_write);
             (0x2000_0010, Policy.Region.prot_rw) (* a padding region *);
             (0x1000, Policy.Region.prot_read) (* no region: default deny *);
           ]))
  in
  (* a fresh kernel, the checker [make] builds on it and the stats it
     counts in: the per-probe verdicts and cycle deltas, then the stats *)
  let run make =
    let k = fresh () in
    let check, stats = make k in
    let m = Kernel.machine k in
    let deltas =
      List.map
        (fun (addr, flags) ->
          let c0 = Machine.Model.cycles m in
          let v = check ~addr ~flags in
          (v, Machine.Model.cycles m - c0))
        probes
    in
    (deltas, stats)
  in
  List.iter
    (fun (n, first) ->
      let policy =
        if first then rule :: Policy.Region.padding (n - 1)
        else Policy.Region.padding (n - 1) @ [ rule ]
      in
      let e_deltas, e_stats =
        run (fun k ->
            let e = Policy.Engine.create k in
            Policy.Engine.set_policy e policy;
            ( (fun ~addr ~flags -> Policy.Engine.check e ~addr ~size:8 ~flags),
              Policy.Engine.stats e ))
      and a_deltas, a_stats =
        run (fun k ->
            let a = build k Policy.Ablation.Linear policy in
            ( (fun ~addr ~flags -> Policy.Ablation.check a ~addr ~size:8 ~flags),
              Policy.Ablation.stats a ))
      in
      let what =
        Printf.sprintf "n=%d, rule %s" n (if first then "first" else "last")
      in
      checkb (what ^ ": verdicts and cycle deltas") true (e_deltas = a_deltas);
      checkb (what ^ ": stats") true (e_stats = a_stats))
    [ (2, true); (2, false); (64, true); (64, false) ]

let test_engine_set_policy () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  Policy.Engine.set_policy e Policy.Region.kernel_only;
  checki "two rules" 2 (Policy.Engine.count e);
  Policy.Engine.set_policy e (Policy.Region.kernel_only_padded 16);
  checki "replaced" 16 (Policy.Engine.count e)

(* The paper's exact walk builds nothing per 8-entry group: a warm
   allowed check allocates its outcome record, the [Some] holding the
   matched region and the [Allowed] verdict, whatever the table size. *)
let test_exact_check_allocation_flat () =
  let words n =
    let k = fresh () in
    let e = Policy.Engine.create k in
    Policy.Engine.set_policy e (Policy.Region.kernel_only_padded n);
    let addr = Kernel.Layout.direct_map_base + 64 in
    for _ = 1 to 200 do
      ignore (Policy.Engine.check e ~addr ~size:8 ~flags:1)
    done;
    let checks = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to checks do
      ignore (Policy.Engine.check e ~addr ~size:8 ~flags:1)
    done;
    (Gc.minor_words () -. w0) /. float_of_int checks
  in
  let w2 = words 2 and w64 = words 64 in
  Alcotest.(check (float 0.01)) "same words on 2 and 64 regions" w2 w64;
  checkb (Printf.sprintf "at most 7 words per check (%.2f)" w64) true (w64 <= 7.0)

let test_engine_cost_grows_with_scan_depth () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  Policy.Engine.set_policy e (Policy.Region.kernel_only_padded 64);
  let machine = Kernel.machine k in
  let addr = Kernel.Layout.direct_map_base + 64 in
  (* warm *)
  for _ = 1 to 200 do
    ignore (Policy.Engine.check e ~addr ~size:8 ~flags:1)
  done;
  let c0 = Machine.Model.cycles machine in
  for _ = 1 to 500 do
    ignore (Policy.Engine.check e ~addr ~size:8 ~flags:1)
  done;
  let deep = Machine.Model.cycles machine - c0 in
  let e2 = Policy.Engine.create k in
  Policy.Engine.set_policy e2 Policy.Region.kernel_only;
  for _ = 1 to 200 do
    ignore (Policy.Engine.check e2 ~addr ~size:8 ~flags:1)
  done;
  let c1 = Machine.Model.cycles machine in
  for _ = 1 to 500 do
    ignore (Policy.Engine.check e2 ~addr ~size:8 ~flags:1)
  done;
  let shallow = Machine.Model.cycles machine - c1 in
  checkb "64-region scan costs more" true (deep > shallow)

(* ---------- policy module ---------- *)

let setup_pm ?(on_deny = Policy.Policy_module.Audit) () =
  let k = fresh () in
  let pm = Policy.Policy_module.install ~on_deny k in
  (k, pm)

let test_guard_allows () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  checki "guard returns" 0
    (Kernel.call_symbol k "carat_guard" [| Kernel.Layout.direct_map_base + 8; 8; 1 |]);
  checki "no violations" 0 (List.length (Policy.Policy_module.violations pm))

let test_guard_denies_and_logs () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  ignore (Kernel.call_symbol k "carat_guard" [| 0x4000; 8; 2 |]);
  checki "violation recorded" 1 (List.length (Policy.Policy_module.violations pm));
  checkb "logged" true
    (Kernel.Klog.contains (Kernel.log k) "CARAT KOP: forbidden write")

let test_guard_panics_in_panic_mode () =
  let k, pm = setup_pm ~on_deny:Policy.Policy_module.Panic () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  match Kernel.call_symbol k "carat_guard" [| 0x4000; 8; 1 |] with
  | exception Kernel.Panic info ->
    checkb "reason mentions guard" true
      (String.length info.Kernel.reason > 0)
  | _ -> Alcotest.fail "no panic"

let test_ioctl_roundtrip () =
  let k, pm = setup_pm () in
  let arg = Kernel.map_user k ~size:32 in
  Kernel.write k ~addr:arg ~size:8 0xA000;
  Kernel.write k ~addr:(arg + 8) ~size:8 0x100;
  Kernel.write k ~addr:(arg + 16) ~size:8 3;
  checki "add ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_add ~arg);
  checki "count" 1
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  (* the added region actually governs the guard *)
  checki "guard passes" 0 (Kernel.call_symbol k "carat_guard" [| 0xA010; 8; 1 |]);
  (* remove it again *)
  Kernel.write k ~addr:arg ~size:8 0xA000;
  checki "remove ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_remove ~arg);
  checki "count 0" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  ignore (Kernel.call_symbol k "carat_guard" [| 0xA010; 8; 1 |]);
  checki "denied after removal" 1 (List.length (Policy.Policy_module.violations pm))

let test_ioctl_bad_region () =
  let k, _ = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let arg = Kernel.map_user k ~size:32 in
  let set base len prot =
    Kernel.write k ~addr:arg ~size:8 base;
    Kernel.write k ~addr:(arg + 8) ~size:8 len;
    Kernel.write k ~addr:(arg + 16) ~size:8 prot
  in
  set 0xA000 0 Policy.Region.prot_rw (* zero length *);
  checki "zero-length add" Kernel.einval (io Policy.Policy_module.ioctl_add arg);
  (* a two's-complement negative length reads back from user memory as a
     huge positive one: the overflow check catches it as -ERANGE *)
  set 0xA000 (-8) Policy.Region.prot_rw;
  checki "negative length" Kernel.erange (io Policy.Policy_module.ioctl_add arg);
  set max_int 0x100 Policy.Region.prot_rw (* base + len overflows *);
  checki "base+len overflow" Kernel.erange
    (io Policy.Policy_module.ioctl_add arg);
  set 0xA000 0x100 0xF0 (* bits outside prot_rw *);
  checki "bad prot bits" Kernel.einval (io Policy.Policy_module.ioctl_add arg);
  checki "count unchanged" 0 (io Policy.Policy_module.ioctl_count 0)

(* Each validated ioctl answers a malformed argument with the matching
   typed error code, and an unknown command with -ENOTTY — regression
   locks for the /dev/carat argument-validation surface. *)
let test_ioctl_validation () =
  let k, pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  checki "add: bad pointer" Kernel.einval (io ioctl_add (-8));
  checki "remove: bad pointer" Kernel.einval (io ioctl_remove (-8));
  let arg = Kernel.map_user k ~size:32 in
  Kernel.write k ~addr:arg ~size:8 0xDEAD000;
  checki "remove: no such region" (-1) (io ioctl_remove arg);
  checki "set-intrinsics: negative bitmap" Kernel.einval
    (io ioctl_set_intrinsics (-1));
  checki "cfi-allow: negative target" Kernel.einval (io ioctl_cfi_allow (-8));
  checki "set-mode: unknown encoding" Kernel.einval (io ioctl_set_mode 99);
  checki "get-stats: bad pointer" Kernel.einval (io ioctl_get_stats (-8));
  checki "trace-start: bad capacity" Kernel.einval (io ioctl_trace_start (-1));
  checki "trace-start: oversized ring" Kernel.erange
    (io ioctl_trace_start (trace_capacity_max + 1));
  checki "trace-read: bad pointer" Kernel.einval (io ioctl_trace_read (-8));
  checki "audit: self-healing not enabled" Kernel.einval (io ioctl_audit 0);
  checki "selfheal: self-healing not enabled" Kernel.einval (io ioctl_selfheal 0);
  checki "unknown command" Kernel.enotty (io 999 0);
  (* a well-formed call still goes through after the rejections *)
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  checki "valid count" 2 (io ioctl_count 0)

(* The audit/selfheal ioctls once integrity is armed: the audit returns
   the number of corrupt tiers it found, and the selfheal block reflects
   the detection and the recovery. *)
let test_ioctl_audit_selfheal () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  ignore (enable_integrity pm);
  checki "clean audit" 0 (io ioctl_audit 0);
  checki "selfheal: bad pointer" Kernel.einval (io ioctl_selfheal (-8));
  let eng = Policy.Policy_module.engine pm in
  (* flip the kernel window's rw permission to deny-all in the live
     table — a stale-deny corruption the digest must still catch *)
  ignore
    (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base
       ~prot:0);
  checki "audit detects corrupt instance" 1 (io ioctl_audit 0);
  let arg = Kernel.map_user k ~size:64 in
  checki "selfheal block ok" 0 (io ioctl_selfheal arg);
  let r i = Kernel.read k ~addr:(arg + (8 * i)) ~size:8 in
  checkb "audits counted" true (r 0 >= 2);
  checki "one detection" 1 (r 1);
  checki "one degradation" 1 (r 2);
  (* the degrade republished from the authoritative copy on the spot *)
  checki "clean after heal" 0 (io ioctl_audit 0)

let test_ioctl_set_default () =
  let k, pm = setup_pm () in
  checki "set allow" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_set_default ~arg:1);
  checki "now allowed" 0 (Kernel.call_symbol k "carat_guard" [| 0x9999; 8; 1 |]);
  checki "no violations" 0 (List.length (Policy.Policy_module.violations pm))

let test_ioctl_stats () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  ignore (Kernel.call_symbol k "carat_guard" [| Kernel.Layout.direct_map_base; 8; 1 |]);
  ignore (Kernel.call_symbol k "carat_guard" [| 0x4000; 8; 1 |]);
  checki "checks" 2
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_stats_checks ~arg:0);
  checki "denied" 1
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_stats_denied ~arg:0)

let test_ioctl_clear () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 8);
  checki "clear ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_clear ~arg:0);
  checki "empty" 0 (Policy.Engine.count (Policy.Policy_module.engine pm))

(* ---------- self-healing integrity ---------- *)

let setup_integrity_pm ?(site_cache = false) () =
  let k = fresh () in
  let pm =
    Policy.Policy_module.install ~site_cache
      ~on_deny:Policy.Policy_module.Audit k
  in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  (k, pm, Policy.Policy_module.engine pm)

(* A heal rewrites the live table in place: 50 rounds of instance
   corruption and audit on one CPU leave the kernel heap where it
   began. *)
let test_heal_keeps_heap_flat () =
  let k, pm, eng = setup_integrity_pm () in
  let ig = Policy.Policy_module.enable_integrity pm in
  let used = Kernel.phys_used k in
  for _ = 1 to 50 do
    ignore
      (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base
         ~prot:0);
    ignore (Policy.Integrity.audit ig)
  done;
  checkb "corruption detected" true (Policy.Integrity.detections ig > 0);
  checki "kernel heap flat across the heals" used (Kernel.phys_used k)

(* A legitimate mutation goes through the epoch choke point, so the
   authoritative snapshot follows it and audits stay clean. *)
let test_integrity_commit_hook_tracks_mutations () =
  let _, pm, eng = setup_integrity_pm () in
  let ig = Policy.Policy_module.enable_integrity pm in
  checki "clean at rest" 0 (Policy.Integrity.audit ig);
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 8);
  checki "clean after set_policy" 0 (Policy.Integrity.audit ig);
  ignore
    (Policy.Policy_module.replace_policy pm ~default_allow:false
       Policy.Region.kernel_only);
  checki "clean after replace" 0 (Policy.Integrity.audit ig);
  checkb "all tiers healthy" true (Policy.Integrity.healthy ig);
  checki "no detections from legitimate traffic" 0
    (Policy.Integrity.detections ig);
  ignore eng

(* Without the watchdog, a forged inline-cache span serves a stale
   allow: the attack the self-healing layer exists to stop, demonstrated
   first. *)
let test_stale_allow_without_integrity () =
  let _, _, eng = setup_integrity_pm ~site_cache:true () in
  Policy.Engine.set_verify eng true;
  let addr = 0x4000 and site = 7 and w = Policy.Region.prot_write in
  (* the user half is deny-all: the site's first check fills a deny span *)
  checkb "user store denied pre-corruption" false
    (Policy.Engine.check_fast eng ~site ~addr ~size:8 ~flags:w);
  (* the wild write: a consistent forgery (canary intact) of a writable
     span over the page *)
  checkb "slot forged" true
    (Policy.Engine.corrupt_site_cache eng
       (Policy.Engine.default_view eng)
       ~site ~lo:addr ~hi:(addr + Kernel.Memory.page_size)
       ~prot:Policy.Region.prot_rw ~smash_canary:false);
  checkb "forged span answered allow" true
    (Policy.Engine.check_fast eng ~site ~addr ~size:8 ~flags:w);
  checkb "stale allow counted by paranoia" true
    (Policy.Engine.stale_allows eng > 0)

(* Inline-cache corruption: the caches are quarantined (the exact walk
   serves every check), and the flush-based rebuild re-promotes them. *)
let test_ic_degrade_and_repromote () =
  let _, pm, eng = setup_integrity_pm ~site_cache:true () in
  let ig = Policy.Policy_module.enable_integrity pm in
  checkb "slot planted" true
    (Policy.Engine.corrupt_site_cache eng
       (Policy.Engine.default_view eng)
       ~site:7 ~lo:0x4000 ~hi:(0x4000 + Kernel.Memory.page_size)
       ~prot:Policy.Region.prot_rw ~smash_canary:true);
  checki "audit detects" 1 (Policy.Integrity.audit ig);
  checki "caches off, exact walk serving" 1 (Policy.Integrity.tier_level ig);
  checkb "ic master switch off" false (Policy.Engine.ic_enabled eng);
  ignore (Policy.Integrity.audit ig);
  ignore (Policy.Integrity.audit ig);
  checki "caches back" 2 (Policy.Integrity.tier_level ig);
  checkb "ic switch on" true (Policy.Engine.ic_enabled eng)

(* A forged span that keeps the canary, the protection, the scan depth
   and the region attribution, and only widens [hi] over a deny region:
   the audit catches it only because it re-derives the whole [lo, hi)
   from the authoritative regions. *)
let test_ic_widened_span_caught () =
  let _, pm, eng = setup_integrity_pm ~site_cache:true () in
  Policy.Policy_module.set_policy pm
    ([ region ~tag:"buf" 0xA000 0x1000; region ~tag:"hole" ~prot:0 0xB000 0x1000 ]
    @ Policy.Region.kernel_only);
  let ig = Policy.Policy_module.enable_integrity pm in
  Policy.Engine.set_verify eng true;
  let w = Policy.Region.prot_write in
  let site = 5 in
  checkb "fill from the buffer" true
    (Policy.Engine.check_fast eng ~site ~addr:0xA010 ~size:8 ~flags:w);
  checkb "fill from the kernel half" true
    (Policy.Engine.check_fast eng ~site:6 ~addr:Kernel.Layout.direct_map_base
       ~size:8 ~flags:w);
  checki "legitimate spans audit clean" 0 (Policy.Integrity.audit ig);
  (match (Policy.Engine.default_view eng).Policy.Engine.v_site_cache with
  | None -> Alcotest.fail "no inline cache"
  | Some sc ->
    let i = Policy.Engine.site_slot site in
    checki "span ends where the hole starts" 0xB000 sc.Policy.Engine.sc_hi.(i);
    sc.Policy.Engine.sc_hi.(i) <- 0xC000);
  checki "semantic audit catches the widened span" 1 (Policy.Integrity.audit ig);
  checki "inline caches degraded, exact walk serving" 1
    (Policy.Integrity.tier_level ig);
  checkb "write into the hole denied" false
    (Policy.Engine.check_fast eng ~site ~addr:0xB010 ~size:8 ~flags:w);
  checki "no stale allow" 0 (Policy.Engine.stale_allows eng)

(* A tier that keeps failing its rebuild re-audit is abandoned after
   max_retries (left degraded), not re-promoted forever: the route is
   pinned to a no-op so every repair "fails". *)
let test_bounded_retries_then_abandon () =
  let _, _, eng = setup_integrity_pm () in
  let ig =
    Policy.Integrity.create
      ~config:{ Policy.Integrity.cooldown_audits = 1; max_retries = 2 }
      ~route:(fun _ _ -> ())
      eng
  in
  checkb "instance corrupted" true
    (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base
       ~prot:0);
  for _ = 1 to 6 do
    ignore (Policy.Integrity.audit ig)
  done;
  checki "abandoned after bounded retries" 1 (Policy.Integrity.abandoned ig);
  checkb "never flaps back" false (Policy.Integrity.healthy ig);
  let audits_before = Policy.Integrity.audits ig in
  ignore (Policy.Integrity.audit ig);
  checki "audits continue" (audits_before + 1) (Policy.Integrity.audits ig)

(* The selfheal procfs file renders live integrity state. *)
let test_selfheal_procfs () =
  let k, pm, eng = setup_integrity_pm () in
  let fs = Kernsvc.Kernfs.create k in
  let proc = Kernsvc.Procfs.install fs pm in
  checkb "placeholder before enabling" true
    (let s = Kernsvc.Procfs.read_selfheal proc in
     String.length s > 0 && String.sub s 0 5 = "carat");
  ignore (Policy.Policy_module.enable_integrity pm);
  ignore
    (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base ~prot:0);
  ignore
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_audit ~arg:0);
  let s = Kernsvc.Procfs.read_selfheal proc in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "renders audit counters" true (contains "carat_selfheal: audits");
  checkb "renders detection" true (contains "detections 1");
  checkb "renders per-tier rows" true (contains "instance")

(* ---------- policy files ---------- *)

let test_policy_file_roundtrip () =
  let t =
    {
      Policy.Policy_file.default_allow = false;
      mode = Policy.Policy_module.Quarantine;
      domain = "";
      regions =
        [
          region ~tag:"kernel window" ~prot:Policy.Region.prot_rw 0x1000 0x2000;
          region ~tag:"" ~prot:Policy.Region.prot_read 0x9000 0x100;
          region ~prot:0 0x0 0x800;
        ];
    }
  in
  let text = Policy.Policy_file.to_string t in
  let t' = Policy.Policy_file.parse text in
  checki "regions" 3 (List.length t'.Policy.Policy_file.regions);
  checkb "same text" true (Policy.Policy_file.to_string t' = text)

let test_policy_file_parse () =
  let t =
    Policy.Policy_file.parse
      "# demo
default allow
region 0x100 0x10 rw tagged region
region 256 16 -- 
"
  in
  checkb "default" true t.Policy.Policy_file.default_allow;
  (match t.Policy.Policy_file.regions with
  | [ a; b ] ->
    checki "hex base" 0x100 a.Policy.Region.base;
    Alcotest.(check string) "tag with spaces" "tagged region" a.Policy.Region.tag;
    checki "decimal base" 256 b.Policy.Region.base;
    checki "no perms" 0 b.Policy.Region.prot
  | _ -> Alcotest.fail "wrong region count")

let test_policy_file_errors () =
  List.iter
    (fun text ->
      match Policy.Policy_file.parse text with
      | exception Policy.Policy_file.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" text)
    [
      "region 0x1 0x0 rw";      (* zero length *)
      "region 0x1 xyz rw";      (* bad number *)
      "region 0x1 0x10 qq";     (* bad perms *)
      "frobnicate";             (* unknown directive *)
      (* past max_int, the hex literal wraps to a negative base *)
      "region 0x7fffffffffffff00 0x1000 rw";
      "region 0x3fffffffffffff00 0x1000 rw"; (* ends past the address space *)
    ]

let test_policy_file_apply () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  Policy.Policy_file.apply
    {
      Policy.Policy_file.default_allow = true;
      mode = Policy.Policy_module.Panic;
      domain = "";
      regions = [ region ~prot:0 0x5000 0x1000 ];
    }
    e;
  (match Policy.Engine.check e ~addr:0x5100 ~size:8 ~flags:1 with
  | Policy.Engine.Denied (Some _) -> ()
  | _ -> Alcotest.fail "explicit deny rule ignored");
  match Policy.Engine.check e ~addr:0x9000 ~size:8 ~flags:1 with
  | Policy.Engine.Allowed None -> ()
  | _ -> Alcotest.fail "default allow ignored"


(* ---------- interval tree ---------- *)

(* Unlike the overlap-rejecting trees, the interval tier accepts
   overlapping and duplicate-base regions — a multi-tenant domain policy
   is allowed to layer rules — and still answers first-match-wins by
   insertion order. *)
let test_itree_overlaps_and_duplicates () =
  let k = fresh () in
  let t = Policy.Interval_tree.create k ~capacity:16 in
  checkb "first" true (Policy.Interval_tree.add t (region ~tag:"first" ~prot:Policy.Region.prot_read 100 100) = Ok ());
  checkb "overlap accepted" true (Policy.Interval_tree.add t (region ~tag:"wide" 50 400) = Ok ());
  checkb "dup base accepted" true (Policy.Interval_tree.add t (region ~tag:"dup" 100 100) = Ok ());
  checkb "valid" true (Policy.Interval_tree.validate t = Ok ());
  (* first match (insertion order) wins on the overlap *)
  (match (Policy.Interval_tree.lookup t ~addr:120 ~size:4).Policy.Structure.matched with
  | Some r -> Alcotest.(check string) "first wins" "first" r.Policy.Region.tag
  | None -> Alcotest.fail "no match");
  (* insertion order is preserved by regions *)
  Alcotest.(check (list string)) "insertion order" [ "first"; "wide"; "dup" ]
    (List.map (fun r -> r.Policy.Region.tag) (Policy.Interval_tree.regions t))

let prop_itree_invariants =
  QCheck.Test.make ~name:"interval tree invariants" ~count:100
    (QCheck.make gen_disjoint_regions) (fun regions ->
      let k = fresh () in
      let t = Policy.Interval_tree.create k ~capacity:64 in
      List.iter (fun r -> ignore (Policy.Interval_tree.add t r)) regions;
      Policy.Interval_tree.validate t = Ok ()
      && Policy.Interval_tree.count t = List.length regions
      && Policy.Interval_tree.regions t = regions)

(* [clear] hands every node back to the heap: a clear that dropped its
   nodes without kfree would leak the whole 6.4 KB tree each time a
   100-region domain tier is retired. *)
let test_itree_churn_keeps_heap_flat () =
  let k = fresh () in
  let t = Policy.Interval_tree.create k ~capacity:128 in
  let policy = Policy.Region.kernel_only_padded 100 in
  let fill () =
    List.iter
      (fun r ->
        if Policy.Interval_tree.add t r <> Ok () then Alcotest.fail "add refused")
      policy
  in
  fill ();
  let used = Kernel.phys_used k in
  for _ = 1 to 100 do
    Policy.Interval_tree.clear t;
    fill ()
  done;
  checki "100 clear/refill rounds take no heap" used (Kernel.phys_used k);
  checki "all regions live" 100 (Policy.Interval_tree.count t);
  checkb "kernel store still allowed" true
    (match
       (Policy.Interval_tree.lookup t ~addr:Kernel.Layout.direct_map_base
          ~size:8)
         .Policy.Structure.matched
     with
    | Some r -> Policy.Region.permits r ~flags:Policy.Region.prot_write
    | None -> false)

let test_itree_pruned_lookup () =
  let k = fresh () in
  let t = Policy.Interval_tree.create k ~capacity:64 in
  for i = 0 to 63 do
    ignore (Policy.Interval_tree.add t (region (i * 1000) 100))
  done;
  checkb "valid" true (Policy.Interval_tree.validate t = Ok ());
  let worst = ref 0 in
  for i = 0 to 63 do
    let out = Policy.Interval_tree.lookup t ~addr:((i * 1000) + 50) ~size:4 in
    checkb "found" true (out.Policy.Structure.matched <> None);
    if out.Policy.Structure.scanned > !worst then
      worst := out.Policy.Structure.scanned
  done;
  (* the maxlim augmentation prunes the stabbing descent well below a
     full scan of the 64 disjoint regions *)
  checkb "sub-linear descent" true (!worst < 32)

(* ---------- bugfix sweep: mirrors, duplicates, capacity ---------- *)

(* After a remove, the kernel-memory image of the linear table must be
   byte-identical to the host-side mirror — including the vacated slot,
   which is scrubbed to the never-matching hole value. Before the fix
   the shift left a stale copy of the last entry readable via
   Kernel.read past the logical end of the table. *)
let check_flat_mirror k ~vaddr regions ~scrubbed_slot =
  let word i j = Kernel.read k ~addr:(vaddr + (i * 24) + (j * 8)) ~size:8 in
  List.iteri
    (fun i (r : Policy.Region.t) ->
      checki "mirror base" r.Policy.Region.base (word i 0);
      checki "mirror len" r.Policy.Region.len (word i 1);
      checki "mirror prot" r.Policy.Region.prot (word i 2))
    regions;
  checki "scrubbed base" 0 (word scrubbed_slot 0);
  checki "scrubbed len" 1 (word scrubbed_slot 1);
  checki "scrubbed prot" 0 (word scrubbed_slot 2)

let test_linear_mirror_consistency () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:8 in
  List.iter
    (fun r -> ignore (Policy.Linear_table.add t r))
    [ region ~tag:"a" 100 10; region ~tag:"b" 200 10; region ~tag:"c" 300 10 ];
  checkb "removed" true (Policy.Linear_table.remove t ~base:200);
  let vaddr, _ = Policy.Linear_table.table_region t in
  check_flat_mirror k ~vaddr (Policy.Linear_table.regions t) ~scrubbed_slot:2

(* Duplicate-base semantics, pinned: two regions at the same base answer
   the FIRST in every structure that holds both, and the engine's remove
   peels that first one so the second takes over the lookup. *)
let test_duplicate_base_remove () =
  let first = region ~tag:"first" ~prot:Policy.Region.prot_read 0x10000 0x1000
  and second = region ~tag:"second" 0x10000 0x1000 in
  let answer = function
    | Policy.Engine.Allowed (Some r) | Policy.Engine.Denied (Some r) ->
      r.Policy.Region.tag
    | _ -> "no match"
  in
  List.iter
    (fun kind ->
      let a = build (fresh ()) kind [ first; second ] in
      Alcotest.(check string)
        (Policy.Ablation.to_string kind ^ " first answers")
        "first"
        (answer (Policy.Ablation.check a ~addr:0x10080 ~size:8 ~flags:1)))
    Policy.Ablation.[ Linear; Itree; Bloom; Cached ];
  let e = Policy.Engine.create (fresh ()) in
  Policy.Engine.set_policy e [ first; second ];
  checkb "removed" true (Policy.Engine.remove_region e ~base:0x10000);
  checki "one left" 1 (Policy.Engine.count e);
  Alcotest.(check string) "second survives" "second"
    (answer (Policy.Engine.check e ~addr:0x10080 ~size:8 ~flags:1))

(* Capacity boundary: every ablation structure holds exactly [capacity]
   regions and refuses one more with the typed capacity error; the
   engine's table refuses capacity + 1 the same way and recovers after a
   remove. *)
let test_capacity_boundary_all_kinds () =
  let rs n = List.init n (fun i -> region (1000 + (i * 1000)) 100) in
  let full = Policy.Structure.capacity_error 8 in
  List.iter
    (fun kind ->
      let name = Policy.Ablation.to_string kind in
      ignore (build ~capacity:8 (fresh ()) kind (rs 8));
      match Policy.Ablation.build ~capacity:8 (fresh ()) kind (rs 9) with
      | Ok _ -> Alcotest.failf "%s accepted capacity+1" name
      | Error e -> Alcotest.(check string) (name ^ " typed capacity error") full e)
    Policy.Ablation.all;
  let e = Policy.Engine.create ~capacity:8 (fresh ()) in
  Policy.Engine.set_policy e (rs 8);
  checkb "engine refuses capacity+1" true
    (Policy.Engine.add_region e (region 90_000 100) = Error full);
  checkb "engine remove" true (Policy.Engine.remove_region e ~base:1000);
  checkb "engine recovered" true
    (Policy.Engine.add_region e (region 90_000 100) = Ok ());
  checki "engine at capacity" 8 (Policy.Engine.count e)

(* ---------- ENOSPC and the batched install ioctl ---------- *)

let write_install_batch k ~arg ~domain regions =
  Kernel.write k ~addr:arg ~size:8 domain;
  Kernel.write k ~addr:(arg + 8) ~size:8 (List.length regions);
  List.iteri
    (fun i (r : Policy.Region.t) ->
      let a = arg + 16 + (i * 24) in
      Kernel.write k ~addr:a ~size:8 r.Policy.Region.base;
      Kernel.write k ~addr:(a + 8) ~size:8 r.Policy.Region.len;
      Kernel.write k ~addr:(a + 16) ~size:8 r.Policy.Region.prot)
    regions

let test_ioctl_add_enospc () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 64);
  let arg = Kernel.map_user k ~size:32 in
  Kernel.write k ~addr:arg ~size:8 0xA000;
  Kernel.write k ~addr:(arg + 8) ~size:8 0x100;
  Kernel.write k ~addr:(arg + 16) ~size:8 3;
  (* a full table answers with the typed -ENOSPC, not a generic error *)
  checki "enospc" Kernel.enospc
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_add ~arg);
  checki "count unchanged" 64
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0)

let test_ioctl_install_atomic () =
  let k, _pm = setup_pm () in
  let rs = [ region 0xA000 0x100; region 0xB000 0x100; region 0xC000 0x100 ] in
  let arg = Kernel.map_user k ~size:(16 + (3 * 24)) in
  write_install_batch k ~arg ~domain:0 rs;
  checki "install ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_install ~arg);
  checki "count" 3
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  checki "guard governed by the batch" 0
    (Kernel.call_symbol k "carat_guard" [| 0xB010; 8; 1 |])

(* A batch the table cannot hold (or with a malformed record) installs
   NOTHING: old-or-new, never partial. *)
let test_ioctl_install_rollback () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 60);
  let before = Policy.Engine.regions (Policy.Policy_module.engine pm) in
  let rs = List.init 10 (fun i -> region (0xA0000 + (i * 0x1000)) 0x100) in
  let arg = Kernel.map_user k ~size:(16 + (10 * 24)) in
  write_install_batch k ~arg ~domain:0 rs;
  checki "whole batch refused with -ENOSPC" Kernel.enospc
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_install ~arg);
  checki "count unchanged" 60
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  checkb "regions unchanged" true
    (Policy.Engine.regions (Policy.Policy_module.engine pm) = before);
  (* a malformed record anywhere in the batch rejects the whole batch
     before any mutation *)
  let bad = [ region 0xA0000 0x100; region 0xB0000 0x100 ] in
  write_install_batch k ~arg ~domain:0 bad;
  Kernel.write k ~addr:(arg + 16 + 24 + 8) ~size:8 0 (* record 1: zero len *);
  checki "malformed record rejects batch" Kernel.einval
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_install ~arg);
  checkb "still unchanged" true
    (Policy.Engine.regions (Policy.Policy_module.engine pm) = before)

let test_ioctl_install_validation () =
  let k, _pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  checki "bad pointer" Kernel.einval (io ioctl_install (-8));
  let arg = Kernel.map_user k ~size:64 in
  write_install_batch k ~arg ~domain:0 [];
  checki "empty batch" Kernel.einval (io ioctl_install arg);
  Kernel.write k ~addr:(arg + 8) ~size:8 (install_batch_max + 1);
  checki "oversized batch" Kernel.erange (io ioctl_install arg);
  write_install_batch k ~arg ~domain:(-3) [ region 0xA000 0x100 ];
  checki "negative domain" Kernel.einval (io ioctl_install arg);
  (* a domain id > 0 with policy domains never enabled *)
  write_install_batch k ~arg ~domain:7 [ region 0xA000 0x100 ];
  checki "unknown domain" Kernel.einval (io ioctl_install arg)

(* ioctl_add and each record of ioctl_install decode the same
   base/len/prot block with one decoder: every malformed block gets the
   same typed errno from both, and neither installs anything. *)
let test_ioctl_region_block_errnos () =
  let k, _pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let add_arg = Kernel.map_user k ~size:32 in
  let batch_arg = Kernel.map_user k ~size:48 in
  let write_block at (base, len, prot) =
    Kernel.write k ~addr:at ~size:8 base;
    Kernel.write k ~addr:(at + 8) ~size:8 len;
    Kernel.write k ~addr:(at + 16) ~size:8 prot
  in
  Kernel.write k ~addr:batch_arg ~size:8 0 (* the root policy *);
  Kernel.write k ~addr:(batch_arg + 8) ~size:8 1;
  let rw = Policy.Region.prot_rw in
  List.iter
    (fun (what, errno, block) ->
      write_block add_arg block;
      write_block (batch_arg + 16) block;
      checki (what ^ ", ioctl_add") errno
        (io Policy.Policy_module.ioctl_add add_arg);
      checki (what ^ ", ioctl_install") errno
        (io Policy.Policy_module.ioctl_install batch_arg))
    [
      ("zero length", Kernel.einval, (0xA000, 0, rw));
      ("negative length", Kernel.erange, (0xA000, -8, rw));
      ("base+len overflow", Kernel.erange, (max_int, 0x100, rw));
      ("prot bits outside rw", Kernel.einval, (0xA000, 0x100, 0xF0));
    ];
  checki "nothing installed" 0 (io Policy.Policy_module.ioctl_count 0)

(* ---------- policy domains ---------- *)

let test_domain_create_destroy_churn () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  Policy.Domain.set_verify dm true;
  let r = region 0x10000 0x1000 in
  let last_id = ref 0 in
  for _ = 1 to 20 do
    let d = Policy.Domain.create_domain dm in
    let id = Policy.Domain.dom_id d in
    checkb "ids never reused" true (id > !last_id);
    last_id := id;
    checki "install" 0 (Policy.Domain.install_regions dm ~domain:id [ r ]);
    checkb "allowed while live" true
      (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:1);
    checkb "destroyed" true (Policy.Domain.destroy_domain dm id);
    (* a destroyed domain fails closed, even with warm shadow slots *)
    checkb "denied after destroy" false
      (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:1)
  done;
  checki "no domains left" 0 (Policy.Domain.count dm);
  checki "zero stale allows across the churn" 0
    (Policy.Domain.stale_allows dm)

let test_domain_promotion_to_interval () =
  let k = fresh () in
  let dm = Policy.Domain.create ~fast_capacity:4 k in
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  let rs = List.init 6 (fun i -> region (0x10000 + (i * 0x2000)) 0x1000) in
  checki "install past the fast path" 0
    (Policy.Domain.install_regions dm ~domain:id rs);
  Alcotest.(check string) "promoted" "interval" (Policy.Domain.dom_structure d);
  checkb "promotion counted" true (Policy.Domain.promotions dm > 0);
  checki "all regions live" 6 (List.length (Policy.Domain.dom_regions d));
  List.iter
    (fun (r : Policy.Region.t) ->
      checkb "region served" true
        (Policy.Domain.check dm ~domain:id ~addr:r.Policy.Region.base ~size:8
           ~flags:1))
    rs;
  checkb "gap denied" false
    (Policy.Domain.check dm ~domain:id ~addr:0x11800 ~size:8 ~flags:1)

let test_domain_isolation () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  let a = Policy.Domain.dom_id (Policy.Domain.create_domain dm ~name:"a") in
  let b = Policy.Domain.dom_id (Policy.Domain.create_domain dm ~name:"b") in
  checki "a install" 0
    (Policy.Domain.install_regions dm ~domain:a [ region 0x10000 0x1000 ]);
  checki "b install" 0
    (Policy.Domain.install_regions dm ~domain:b [ region 0x20000 0x1000 ]);
  checkb "a sees a" true (Policy.Domain.check dm ~domain:a ~addr:0x10010 ~size:8 ~flags:1);
  checkb "a cannot see b" false (Policy.Domain.check dm ~domain:a ~addr:0x20010 ~size:8 ~flags:1);
  checkb "b sees b" true (Policy.Domain.check dm ~domain:b ~addr:0x20010 ~size:8 ~flags:1);
  checkb "b cannot see a" false (Policy.Domain.check dm ~domain:b ~addr:0x10010 ~size:8 ~flags:1)

let test_domain_shadow_epoch_invalidation () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  Policy.Domain.set_verify dm true;
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  checki "install" 0
    (Policy.Domain.install_regions dm ~domain:id [ region 0x10000 0x2000 ]);
  checkb "cold check" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  checkb "warm check" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  checkb "shadow hit recorded" true (Policy.Domain.dom_shadow_hits d > 0);
  let hits = Policy.Domain.dom_shadow_hits d in
  (* a policy change bumps the epoch: the warm slot must NOT answer *)
  checki "second install" 0
    (Policy.Domain.install_regions dm ~domain:id [ region 0x30000 0x1000 ]);
  checkb "still allowed after epoch bump" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  checki "stale slot did not serve" hits (Policy.Domain.dom_shadow_hits d);
  checki "no stale allows" 0 (Policy.Domain.stale_allows dm)

(* The refill caches a page when one first-match span covers it: here
   the rw region fully contains page 0x10 before the r region partially
   overlaps it, so every in-page access resolves to the rw region and
   the second write is answered by the shadow. *)
let test_domain_shadow_first_match_page () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  Policy.Domain.set_verify dm true;
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  checki "install" 0
    (Policy.Domain.install_regions dm ~domain:id
       [ region 0x10000 0x10000; region ~prot:Policy.Region.prot_read 0x10800 0x20000 ]);
  checkb "first write allowed" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:2);
  checki "first write misses" 0 (Policy.Domain.dom_shadow_hits d);
  checkb "second write allowed" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10f00 ~size:8 ~flags:2);
  checki "second write hits the shadow" 1 (Policy.Domain.dom_shadow_hits d);
  checki "no stale allows" 0 (Policy.Domain.stale_allows dm)

(* A warm shadow hit keeps its branch id in its slot, resolves its
   domain without an option and places its slot as two ints: 100k of
   them allocate nothing. *)
let test_domain_shadow_hit_allocation_free () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  checki "install" 0
    (Policy.Domain.install_regions dm ~domain:id [ region 0x10000 0x2000 ]);
  ignore (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  let hits = Policy.Domain.dom_shadow_hits d in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1)
  done;
  let allocated = Gc.minor_words () -. w0 in
  checki "every check a shadow hit" (hits + 100_000)
    (Policy.Domain.dom_shadow_hits d);
  Alcotest.(check (float 0.0)) "minor words" 0.0 allocated

(* Every shadow slot starts as the shared cold record; a refill gives
   its slot a record of its own, and no other slot one. *)
let test_domain_shadow_slots_exist_once_filled () =
  let k = fresh () in
  let words x = Obj.reachable_words (Obj.repr x) in
  let kernel_words = words k in
  let dm = Policy.Domain.create k in
  let own = words dm - kernel_words in
  checkb (Printf.sprintf "fresh domain layer: %d words < 6000" own) true
    (own < 6_000);
  let filled () =
    Array.fold_left
      (Array.fold_left (fun n sl -> if sl != Policy.Domain.cold then n + 1 else n))
      0 dm.Policy.Domain.shards
  in
  checki "no slot filled" 0 (filled ());
  let id = Policy.Domain.dom_id (Policy.Domain.create_domain dm) in
  checki "install" 0
    (Policy.Domain.install_regions dm ~domain:id [ region 0x10000 0x2000 ]);
  checkb "refilling check" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  checki "one slot filled" 1 (filled ());
  checkb "shadow hit" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10200 ~size:8 ~flags:1);
  checki "still one slot" 1 (filled ())

(* Whole-batch rollback at the domain layer, on both tiers: a batch
   exceeding the interval tier's ceiling installs nothing — no region, no
   epoch bump, no kernel byte written, no heap taken. *)
let test_domain_install_rollback () =
  let k = fresh () in
  let dm = Policy.Domain.create ~fast_capacity:4 ~big_capacity:8 k in
  let refused ~tier d rs =
    let id = Policy.Domain.dom_id d in
    let mem = Kernel.memory k in
    let used = Kernel.phys_used k in
    let snap = Kernel.Memory.snapshot ~len:used mem in
    let regions = Policy.Domain.dom_regions d
    and epoch = Policy.Domain.dom_epoch d in
    checki (tier ^ ": over-ceiling batch refused with -ENOSPC") Kernel.enospc
      (Policy.Domain.install_regions dm ~domain:id rs);
    checkb (tier ^ ": no kernel byte written") true
      (Kernel.Memory.diff_ranges mem snap = []);
    checki (tier ^ ": no heap taken") used (Kernel.phys_used k);
    checkb (tier ^ ": regions unchanged") true
      (Policy.Domain.dom_regions d = regions);
    checki (tier ^ ": epoch unchanged by the failed batch") epoch
      (Policy.Domain.dom_epoch d);
    Alcotest.(check string) (tier ^ ": tier unchanged") tier
      (Policy.Domain.dom_structure d);
    checkb (tier ^ ": old policy still serves") true
      (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:1);
    checkb (tier ^ ": refused batch not visible") false
      (Policy.Domain.check dm ~domain:id ~addr:0x40010 ~size:8 ~flags:1)
  in
  let more = List.init 6 (fun i -> region (0x40000 + (i * 0x2000)) 0x1000) in
  let populated n =
    let d = Policy.Domain.create_domain dm in
    let rs = List.init n (fun i -> region (0x10000 + (i * 0x2000)) 0x1000) in
    checki "first batch" 0
      (Policy.Domain.install_regions dm ~domain:(Policy.Domain.dom_id d) rs);
    d
  in
  refused ~tier:"interval" (populated 5) more;
  refused ~tier:"linear" (populated 3) more

(* Destroying a domain frees its structure: create/install/destroy churn
   through the ioctls reuses one domain's worth of heap instead of
   growing it until kmalloc panics the kernel. Every tenth domain is
   promoted, so both tiers' releases (and the promotion's retired linear
   table) are exercised. *)
let test_domain_destroy_frees_structure () =
  let k, pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  ignore (enable_domains pm : Policy.Domain.t);
  let batch n = List.init n (fun i -> region (0x10000 + (i * 0x2000)) 0x1000) in
  let small = batch 4 and big = batch 100 in
  let arg = Kernel.map_user k ~size:(16 + (100 * 24)) in
  (* a promoted domain's table and nodes, plus the 64-byte alignment of
     its first block *)
  let footprint =
    (Policy.Linear_table.default_capacity * Policy.Linear_table.entry_size)
    + (100 * Policy.Interval_tree.node_size)
    + 64
  in
  let used = Kernel.phys_used k in
  for i = 0 to 1999 do
    let id = io ioctl_domain_create 0 in
    write_install_batch k ~arg ~domain:id (if i mod 10 = 0 then big else small);
    if io ioctl_install arg <> 0 then Alcotest.failf "install %d refused" i;
    if io ioctl_domain_destroy id <> 0 then Alcotest.failf "destroy %d refused" i
  done;
  checki "no domains left" 0 (io ioctl_domain_count 0);
  let growth = Kernel.phys_used k - used in
  if growth > footprint then
    Alcotest.failf "2000 churn cycles grew phys_used by %d B (one domain: %d B)"
      growth footprint

(* An in-place batch costs its own inserts, not a rebuild of the
   domain: 8 regions into a 1,000-region and a 4,000-region interval
   domain cost about the same and take exactly 8 nodes of heap. *)
let test_domain_install_cost_scales_with_batch () =
  let install_8 n =
    let k = fresh () in
    let dm = Policy.Domain.create k in
    let d = Policy.Domain.create_domain dm in
    let id = Policy.Domain.dom_id d in
    let rs = List.init n (fun i -> region (0x100000 + (i * 0x2000)) 0x1000) in
    checki "build" 0 (Policy.Domain.install_regions dm ~domain:id rs);
    Alcotest.(check string) "interval tier" "interval"
      (Policy.Domain.dom_structure d);
    (* the promotion freed the linear table; take that block back so the
       batch's nodes come from fresh heap, where phys_used counts them *)
    ignore
      (Kernel.kmalloc k
         ~size:(Policy.Linear_table.default_capacity * Policy.Linear_table.entry_size)
        : int);
    let batch = List.init 8 (fun i -> region (0x4000_0000 + (i * 0x10000)) 0x1000) in
    let m = Kernel.machine k in
    let c0 = Machine.Model.cycles m and used0 = Kernel.phys_used k in
    checki "batch" 0 (Policy.Domain.install_regions dm ~domain:id batch);
    checki "phys_used grows by 8 nodes" (8 * Policy.Interval_tree.node_size)
      (Kernel.phys_used k - used0);
    Machine.Model.cycles m - c0
  in
  let c1k = install_8 1_000 and c4k = install_8 4_000 in
  let ratio = float_of_int (max c1k c4k) /. float_of_int (min c1k c4k) in
  if ratio >= 1.5 then
    Alcotest.failf "8-region install: %d cycles at 1k regions, %d at 4k (%.2fx)"
      c1k c4k ratio

(* Write-side differential: random batches (overlaps, duplicate bases,
   batches crossing fast_capacity or over big_capacity) and removes,
   checked after every operation against a first-match list the test
   keeps itself — return codes, tier, region order, probe decisions
   (cold and shadow-warm), and zero stale allows. *)
let gen_dom_region =
  QCheck.Gen.(
    map3
      (fun b l p -> region ~prot:p (b * 0x800) (l * 0x400))
      (int_range 0 15) (int_range 1 12) (int_range 0 3))

let gen_dom_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun rs -> `Batch rs) (list_size (int_range 0 10) gen_dom_region));
        (1, map (fun b -> `Remove (b * 0x800)) (int_range 0 15));
      ])

let prop_domain_write_differential =
  QCheck.Test.make ~name:"domain writes agree with a first-match list"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         tup3
           (tup3 (int_range 1 8) (int_range 1 24) bool)
           (list_size (int_range 1 25) gen_dom_op)
           (list_size (int_range 1 20)
              (tup3 (int_range 0 0x9000) (int_range 1 0x40) (int_range 1 3)))))
    (fun ((fast, big, default_allow), ops, probes) ->
      let k = fresh () in
      let dm = Policy.Domain.create ~fast_capacity:fast ~big_capacity:big k in
      Policy.Domain.set_verify dm true;
      let d = Policy.Domain.create_domain ~default_allow dm in
      let id = Policy.Domain.dom_id d in
      let model = ref [] and tier = ref "linear" in
      let expect ~addr ~size ~flags =
        match
          List.find_opt (fun r -> Policy.Region.contains r ~addr ~size) !model
        with
        | Some r -> Policy.Region.permits r ~flags
        | None -> default_allow
      in
      let rc_ok = function
        | `Batch rs ->
          let target = !model @ rs in
          let n = List.length target in
          let rc = Policy.Domain.install_regions dm ~domain:id rs in
          if n > big then rc = Kernel.enospc
          else begin
            model := target;
            if n > fast then tier := "interval";
            rc = 0
          end
        | `Remove base ->
          let rc = Policy.Domain.remove_region dm ~domain:id ~base in
          let rec drop_first = function
            | [] -> []
            | (r : Policy.Region.t) :: rest ->
              if r.Policy.Region.base = base then rest else r :: drop_first rest
          in
          if List.exists (fun (r : Policy.Region.t) -> r.Policy.Region.base = base) !model
          then begin
            model := drop_first !model;
            rc = 0
          end
          else rc = -1
      in
      List.for_all
        (fun op ->
          rc_ok op
          && Policy.Domain.dom_structure d = !tier
          && Policy.Domain.dom_regions d = !model
          && List.for_all
               (fun (addr, size, flags) ->
                 let want = expect ~addr ~size ~flags in
                 Policy.Domain.check dm ~domain:id ~addr ~size ~flags = want
                 && Policy.Domain.check dm ~domain:id ~addr ~size ~flags = want)
               probes
          && Policy.Domain.stale_allows dm = 0)
        ops)

let test_domain_ioctl_roundtrip () =
  let k, pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  let a = io ioctl_domain_create 0 in
  let b = io ioctl_domain_create 1 (* default-allow *) in
  checki "first domain id" 1 a;
  checki "second domain id" 2 b;
  checki "two live" 2 (io ioctl_domain_count 0);
  let arg = Kernel.map_user k ~size:(16 + (2 * 24)) in
  write_install_batch k ~arg ~domain:a
    [ region 0x10000 0x1000; region 0x20000 0x1000 ];
  checki "batch into domain" 0 (io ioctl_install arg);
  let stat = Kernel.map_user k ~size:64 in
  Kernel.write k ~addr:stat ~size:8 a;
  checki "stats ok" 0 (io ioctl_domain_stats stat);
  let w i = Kernel.read k ~addr:(stat + (i * 8)) ~size:8 in
  checki "stats regions" 2 (w 0);
  checki "stats structure linear" 0 (w 5);
  (match domains pm with
  | None -> Alcotest.fail "domains not enabled by the ioctls"
  | Some dm ->
    checkb "deny domain denies" false
      (Policy.Domain.check dm ~domain:a ~addr:0x5000 ~size:8 ~flags:1);
    checkb "default-allow domain allows" true
      (Policy.Domain.check dm ~domain:b ~addr:0x5000 ~size:8 ~flags:1));
  checki "destroy" 0 (io ioctl_domain_destroy b);
  checki "destroy again" Kernel.einval (io ioctl_domain_destroy b);
  checki "destroy root refused" Kernel.einval (io ioctl_domain_destroy 0);
  checki "one left" 1 (io ioctl_domain_count 0);
  Kernel.write k ~addr:stat ~size:8 b;
  checki "stats of dead domain" Kernel.einval (io ioctl_domain_stats stat);
  write_install_batch k ~arg ~domain:b [ region 0x10000 0x1000 ];
  checki "install into dead domain" Kernel.einval (io ioctl_install arg)

let test_domains_procfs () =
  let k, pm = setup_pm () in
  let fs = Kernsvc.Kernfs.create k in
  let proc = Kernsvc.Procfs.install fs pm in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "placeholder before enabling" true
    (contains (Kernsvc.Procfs.read_domains proc) "not enabled");
  let id =
    Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_domain_create
      ~arg:0
  in
  checki "created" 1 id;
  let s = Kernsvc.Procfs.read_domains proc in
  checkb "renders the domain row" true (contains s "dom 1");
  checkb "renders shard geometry" true (contains s "shards")

(* ---------- policy files with domains ---------- *)

let test_policy_file_domain_directive () =
  let t =
    Policy.Policy_file.parse
      "domain e1000e\ndefault deny\nregion 0x1000 0x100 rw\n"
  in
  Alcotest.(check string) "parsed" "e1000e" t.Policy.Policy_file.domain;
  let text = Policy.Policy_file.to_string t in
  let t2 = Policy.Policy_file.parse text in
  Alcotest.(check string) "round trip" "e1000e" t2.Policy.Policy_file.domain;
  Alcotest.(check string) "root policy has no domain" ""
    Policy.Policy_file.kernel_only.Policy.Policy_file.domain

let test_policy_lint_domain_capacity () =
  let rs = List.init 65 (fun i -> region (i * 0x2000) 0x1000) in
  let base =
    {
      Policy.Policy_file.default_allow = false;
      mode = Policy.Policy_module.Panic;
      domain = "";
      regions = rs;
    }
  in
  let codes t =
    List.map (fun f -> f.Policy.Policy_lint.code) (Policy.Policy_lint.lint t)
  in
  (* root policy: 65 regions overflow the fixed linear table — an error *)
  checkb "root overflows" true (List.mem "E-capacity" (codes base));
  (* the same table in a named domain merely promotes to the interval
     tier — a warning, not an error *)
  let domained = { base with Policy.Policy_file.domain = "net0" } in
  let cs = codes domained in
  checkb "domained is a promotion warning" true (List.mem "W-fastpath" cs);
  checkb "domained is not an error" false (List.mem "E-capacity" cs)

let () =
  Alcotest.run "policy"
    [
      ( "regions",
        [
          Alcotest.test_case "contains" `Quick test_region_contains;
          Alcotest.test_case "permits" `Quick test_region_permits;
          Alcotest.test_case "overlaps" `Quick test_region_overlaps;
          Alcotest.test_case "validation" `Quick test_region_validation;
          Alcotest.test_case "canonical policies" `Quick test_canonical_policies;
        ] );
      ( "linear",
        [
          Alcotest.test_case "capacity" `Quick test_linear_add_capacity;
          Alcotest.test_case "first match wins" `Quick test_linear_first_match_wins;
          Alcotest.test_case "remove keeps order" `Quick test_linear_remove_preserves_order;
          Alcotest.test_case "scan counts" `Quick test_linear_scan_counts;
        ] );
      ( "alternative-structures",
        [
          QCheck_alcotest.to_alcotest prop_sorted_equiv;
          QCheck_alcotest.to_alcotest prop_splay_equiv;
          QCheck_alcotest.to_alcotest prop_rbtree_equiv;
          QCheck_alcotest.to_alcotest prop_cached_equiv;
          QCheck_alcotest.to_alcotest prop_itree_equiv;
          QCheck_alcotest.to_alcotest prop_rbtree_invariants;
          Alcotest.test_case "rbtree rejects overlap" `Quick test_rbtree_rejects_overlap;
          Alcotest.test_case "rbtree log depth" `Quick test_rbtree_logarithmic_scan;
          Alcotest.test_case "sorted rejects overlap" `Quick test_sorted_rejects_overlap;
          Alcotest.test_case "splay rejects overlap" `Quick test_splay_rejects_overlap;
          Alcotest.test_case "splay popularity" `Quick test_splay_popularity;
          Alcotest.test_case "cached hit rate" `Quick test_cached_hit_rate;
          Alcotest.test_case "bloom allowed stays allowed" `Quick test_bloom_no_false_negative_for_allowed;
          Alcotest.test_case "bloom caches whole pages only" `Quick
            test_bloom_caches_whole_pages_only;
          Alcotest.test_case "cached keeps first match" `Quick
            test_cached_keeps_first_match;
        ] );
      ( "engine",
        [
          Alcotest.test_case "default deny" `Quick test_engine_default_deny;
          Alcotest.test_case "default allow" `Quick test_engine_default_allow;
          Alcotest.test_case "end past max_int denied" `Quick
            test_engine_denies_end_past_max_int;
          Alcotest.test_case "permission mismatch" `Quick test_engine_permission_mismatch;
          Alcotest.test_case "set policy" `Quick test_engine_set_policy;
          Alcotest.test_case "ablation shares the cost model" `Quick
            test_ablation_engine_parity;
          Alcotest.test_case "scan depth cost" `Quick test_engine_cost_grows_with_scan_depth;
          Alcotest.test_case "exact check allocation flat" `Quick
            test_exact_check_allocation_flat;
        ] );
      ( "policy-file",
        [
          Alcotest.test_case "round trip" `Quick test_policy_file_roundtrip;
          Alcotest.test_case "parse forms" `Quick test_policy_file_parse;
          Alcotest.test_case "parse errors" `Quick test_policy_file_errors;
          Alcotest.test_case "apply" `Quick test_policy_file_apply;
        ] );
      ( "policy-module",
        [
          Alcotest.test_case "guard allows" `Quick test_guard_allows;
          Alcotest.test_case "guard denies+logs" `Quick test_guard_denies_and_logs;
          Alcotest.test_case "guard panics" `Quick test_guard_panics_in_panic_mode;
          Alcotest.test_case "ioctl round trip" `Quick test_ioctl_roundtrip;
          Alcotest.test_case "ioctl bad region" `Quick test_ioctl_bad_region;
          Alcotest.test_case "ioctl validation" `Quick test_ioctl_validation;
          Alcotest.test_case "ioctl audit+selfheal" `Quick
            test_ioctl_audit_selfheal;
          Alcotest.test_case "ioctl set default" `Quick test_ioctl_set_default;
          Alcotest.test_case "ioctl stats" `Quick test_ioctl_stats;
          Alcotest.test_case "ioctl clear" `Quick test_ioctl_clear;
        ] );
      ( "interval-tree",
        [
          Alcotest.test_case "overlaps and duplicates" `Quick
            test_itree_overlaps_and_duplicates;
          QCheck_alcotest.to_alcotest prop_itree_invariants;
          Alcotest.test_case "pruned lookup" `Quick test_itree_pruned_lookup;
          Alcotest.test_case "churn keeps heap flat" `Quick
            test_itree_churn_keeps_heap_flat;
        ] );
      ( "bugfix-sweep",
        [
          Alcotest.test_case "linear mirror consistency" `Quick
            test_linear_mirror_consistency;
          Alcotest.test_case "duplicate-base remove" `Quick
            test_duplicate_base_remove;
          Alcotest.test_case "capacity boundary, all kinds" `Quick
            test_capacity_boundary_all_kinds;
        ] );
      ( "batched-install",
        [
          Alcotest.test_case "ioctl add enospc" `Quick test_ioctl_add_enospc;
          Alcotest.test_case "install atomic" `Quick test_ioctl_install_atomic;
          Alcotest.test_case "install rollback" `Quick
            test_ioctl_install_rollback;
          Alcotest.test_case "install validation" `Quick
            test_ioctl_install_validation;
          Alcotest.test_case "region block errnos, add and install" `Quick
            test_ioctl_region_block_errnos;
        ] );
      ( "domains",
        [
          Alcotest.test_case "create/destroy churn" `Quick
            test_domain_create_destroy_churn;
          Alcotest.test_case "promotion to interval" `Quick
            test_domain_promotion_to_interval;
          Alcotest.test_case "isolation" `Quick test_domain_isolation;
          Alcotest.test_case "shadow epoch invalidation" `Quick
            test_domain_shadow_epoch_invalidation;
          Alcotest.test_case "shadow caches a first-match page" `Quick
            test_domain_shadow_first_match_page;
          Alcotest.test_case "shadow hit allocates nothing" `Quick
            test_domain_shadow_hit_allocation_free;
          Alcotest.test_case "shadow slots exist once filled" `Quick
            test_domain_shadow_slots_exist_once_filled;
          Alcotest.test_case "install rollback" `Quick
            test_domain_install_rollback;
          Alcotest.test_case "destroy frees structure" `Quick
            test_domain_destroy_frees_structure;
          Alcotest.test_case "install cost scales with batch" `Quick
            test_domain_install_cost_scales_with_batch;
          QCheck_alcotest.to_alcotest prop_domain_write_differential;
          Alcotest.test_case "ioctl round trip" `Quick
            test_domain_ioctl_roundtrip;
          Alcotest.test_case "procfs" `Quick test_domains_procfs;
          Alcotest.test_case "policy-file domain directive" `Quick
            test_policy_file_domain_directive;
          Alcotest.test_case "lint domain capacity" `Quick
            test_policy_lint_domain_capacity;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "commit hook tracks mutations" `Quick
            test_integrity_commit_hook_tracks_mutations;
          Alcotest.test_case "heal keeps the heap flat" `Quick
            test_heal_keeps_heap_flat;
          Alcotest.test_case "stale allow without integrity" `Quick
            test_stale_allow_without_integrity;
          Alcotest.test_case "ic degrade+repromote" `Quick
            test_ic_degrade_and_repromote;
          Alcotest.test_case "ic widened span caught" `Quick
            test_ic_widened_span_caught;
          Alcotest.test_case "bounded retries then abandon" `Quick
            test_bounded_retries_then_abandon;
          Alcotest.test_case "selfheal procfs" `Quick test_selfheal_procfs;
        ] );
    ]
