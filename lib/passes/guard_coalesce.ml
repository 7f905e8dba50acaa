(** Guard coalescing — merge adjacent or overlapping byte guards on the
    same base value into one wider guard.

    Within a basic block, between two policy-relevant calls (anything
    that is not the guard itself — such a call could swap the table, so
    merging across it would check under the wrong policy), guards whose
    addresses normalize to the same symbolic core merge when

    - their byte intervals overlap or touch and their flags are equal
      (the union is contiguous: the merged guard checks exactly the
      bytes the originals checked, no gap-filling); or
    - their byte intervals are identical and only the flags differ (the
      merged rw check is the conjunction of the original checks).

    The survivor is the earliest guard of the group, so the widened
    check still precedes every access the deleted members covered; when
    the merged interval starts below the survivor's own offset, a [Gep]
    with a (possibly negative) immediate rebases its address.

    Normalization is the same local value numbering {!Guard_elim} uses,
    extended to peel constant-index geps into byte offsets, so the five
    descriptor-field stores of the e1000e transmit path (addr/len/cso/
    cmd/sta at bytes 0..13 of one descriptor) collapse to a single
    13-byte write guard.

    Under an object-granular policy — one where a single allocation is
    never split across regions with different protections — the merged
    check makes exactly the decisions the originals made (see DESIGN.md,
    "certified optimization contract"); {!Analysis.Certify} re-proves
    coverage after the pass in any case. *)

open Kir.Types

(* local value numbering, as in Guard_elim *)
type vnum =
  | V_imm of int
  | V_sym of string
  | V_param of reg
  | V_gep of vnum * vnum * int
  | V_opaque of int

let rec v_to_string = function
  | V_imm n -> string_of_int n
  | V_sym s -> "@" ^ s
  | V_param r -> r
  | V_gep (b, i, s) ->
    Printf.sprintf "(%s + %s*%d)" (v_to_string b) (v_to_string i) s
  | V_opaque n -> Printf.sprintf "v%d" n

(** Peel constant-index geps into a (core, byte offset) pair — the
    structural key two guards must share to be mergeable. *)
let rec norm = function
  | V_gep (b, V_imm n, scale) ->
    let core, off = norm b in
    (core, off + (n * scale))
  | v -> (v, 0)

(** One guard occurrence inside a merge window. *)
type occ = {
  o_idx : int;  (** index in the block body *)
  o_lo : int;
  o_hi : int;
  o_flags : int;
  o_site : int;  (** -1 for the 3-argument form *)
  o_addr : value;  (** original address operand *)
  o_off : int;  (** byte offset that operand denotes, relative to core *)
}

(** A merge group: [g_occs] (earliest first) collapse into one guard
    covering [\[g_lo, g_hi)] with [g_flags]. *)
type group = {
  g_core : vnum;
  g_occs : occ list;
  g_lo : int;
  g_hi : int;
  g_flags : int;
}

type candidate = {
  c_func : string;
  c_block : label;
  c_addr : string;  (** printable core *)
  c_sites : int list;
  c_lo : int;
  c_hi : int;
  c_flags : int;
  c_count : int;
}

(* cluster the guard occurrences of one (core, window): first union the
   flags of identical intervals, then sweep same-flag occurrences in
   interval order merging overlap/adjacency *)
let cluster core (occs : occ list) : group list =
  (* 1: identical intervals, flags OR'd *)
  let by_iv = Hashtbl.create 8 in
  List.iter
    (fun o ->
      let k = (o.o_lo, o.o_hi) in
      let prev = try Hashtbl.find by_iv k with Not_found -> [] in
      Hashtbl.replace by_iv k (o :: prev))
    occs;
  let units =
    Hashtbl.fold
      (fun (lo, hi) os acc ->
        let os = List.sort (fun a b -> compare a.o_idx b.o_idx) os in
        let flags = List.fold_left (fun f o -> f lor o.o_flags) 0 os in
        { g_core = core; g_occs = os; g_lo = lo; g_hi = hi; g_flags = flags }
        :: acc)
      by_iv []
  in
  (* 2: per flag value, sweep in lo order and merge contiguous unions *)
  let by_flags = Hashtbl.create 4 in
  List.iter
    (fun u ->
      let prev = try Hashtbl.find by_flags u.g_flags with Not_found -> [] in
      Hashtbl.replace by_flags u.g_flags (u :: prev))
    units;
  Hashtbl.fold
    (fun _flags us acc ->
      let us = List.sort (fun a b -> compare (a.g_lo, a.g_hi) (b.g_lo, b.g_hi)) us in
      let merged =
        List.fold_left
          (fun done_ u ->
            match done_ with
            | cur :: rest when u.g_lo <= cur.g_hi ->
              {
                cur with
                g_occs = cur.g_occs @ u.g_occs;
                g_hi = max cur.g_hi u.g_hi;
              }
              :: rest
            | _ -> u :: done_)
          [] us
      in
      merged @ acc)
    by_flags []
  |> List.map (fun g ->
         {
           g with
           g_occs = List.sort (fun a b -> compare a.o_idx b.o_idx) g.g_occs;
         })

(** Scan one block: windows end at any call that is not the guard itself
    (and at inline asm), exactly the envelope {!Guard_elim} assumes. *)
let block_groups (b : block) : group list =
  let values : (reg, vnum) Hashtbl.t = Hashtbl.create 32 in
  let fresh = ref 0 in
  let next_opaque () =
    incr fresh;
    V_opaque !fresh
  in
  let value_of = function
    | Imm n -> V_imm n
    | Sym s -> V_sym s
    | Reg r -> (
      match Hashtbl.find_opt values r with
      | Some v -> v
      | None ->
        let v = V_param r in
        Hashtbl.replace values r v;
        v)
  in
  let windows = ref [] in
  let open_w : (vnum, occ list ref) Hashtbl.t = Hashtbl.create 8 in
  let close_all () =
    Hashtbl.iter (fun core os -> windows := (core, List.rev !os) :: !windows) open_w;
    Hashtbl.reset open_w
  in
  List.iteri
    (fun idx i ->
      match Guard_injection.parse_guard i with
      | Some (addr, size, flags, site) ->
        let core, off = norm (value_of addr) in
        let o =
          {
            o_idx = idx;
            o_lo = off;
            o_hi = off + size;
            o_flags = flags;
            o_site = site;
            o_addr = addr;
            o_off = off;
          }
        in
        (match Hashtbl.find_opt open_w core with
        | Some os -> os := o :: !os
        | None -> Hashtbl.replace open_w core (ref [ o ]))
      | None -> (
        (match i with
        | Call _ | Callind _ | Inline_asm _ -> close_all ()
        | _ -> ());
        (match i with
        | Mov { dst; src; _ } -> Hashtbl.replace values dst (value_of src)
        | Gep { dst; base; idx = gidx; scale } ->
          Hashtbl.replace values dst
            (V_gep (value_of base, value_of gidx, scale))
        | _ -> (
          match def_of_instr i with
          | Some r -> Hashtbl.replace values r (next_opaque ())
          | None -> ()))))
    b.body;
  close_all ();
  List.concat_map (fun (core, os) -> cluster core os) !windows

(** Merge groups the optimizer would collapse, without transforming —
    feeds the [W-coalescable-guard] lint. *)
let candidates (m : modul) : candidate list =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun b ->
          block_groups b
          |> List.filter (fun g -> List.length g.g_occs > 1)
          |> List.map (fun g ->
                 {
                   c_func = f.f_name;
                   c_block = b.b_label;
                   c_addr = v_to_string g.g_core;
                   c_sites = List.map (fun o -> o.o_site) g.g_occs;
                   c_lo = g.g_lo;
                   c_hi = g.g_hi;
                   c_flags = g.g_flags;
                   c_count = List.length g.g_occs;
                 }))
        f.blocks)
    m.funcs

let all_regs f =
  let s = Hashtbl.create 64 in
  List.iter (fun (r, _) -> Hashtbl.replace s r ()) f.params;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match def_of_instr i with
          | Some r -> Hashtbl.replace s r ()
          | None -> ())
        b.body)
    f.blocks;
  s

let run (m : modul) : Pass.result =
  let merged = ref 0 in
  let process_func f =
    let taken = all_regs f in
    let fresh_ctr = ref 0 in
    let fresh_reg () =
      let rec go () =
        incr fresh_ctr;
        let r = Printf.sprintf "%%__co%d" !fresh_ctr in
        if Hashtbl.mem taken r then go ()
        else begin
          Hashtbl.replace taken r ();
          r
        end
      in
      go ()
    in
    let process_block b =
      let groups =
        block_groups b
        |> List.filter (fun g -> List.length g.g_occs > 1)
      in
      if groups <> [] then begin
        (* idx -> what happens to the instruction there *)
        let drop = Hashtbl.create 16 in
        let rewrite = Hashtbl.create 16 in
        List.iter
          (fun g ->
            match g.g_occs with
            | leader :: rest ->
              merged := !merged + List.length rest;
              List.iter (fun o -> Hashtbl.replace drop o.o_idx ()) rest;
              let size = g.g_hi - g.g_lo in
              let addr, prefix =
                if g.g_lo = leader.o_off then (leader.o_addr, [])
                else
                  let r = fresh_reg () in
                  ( Reg r,
                    [
                      Gep
                        {
                          dst = r;
                          base = leader.o_addr;
                          idx = Imm (g.g_lo - leader.o_off);
                          scale = 1;
                        };
                    ] )
              in
              Hashtbl.replace rewrite leader.o_idx
                (prefix
                @ [ Guard_injection.guard ~addr ~size ~flags:g.g_flags ~site:leader.o_site ])
            | [] -> ())
          groups;
        b.body <-
          List.concat
            (List.mapi
               (fun idx i ->
                 if Hashtbl.mem drop idx then []
                 else
                   match Hashtbl.find_opt rewrite idx with
                   | Some is -> is
                   | None -> [ i ])
               b.body)
      end
    in
    List.iter process_block f.blocks
  in
  List.iter process_func m.funcs;
  {
    Pass.changed = !merged > 0;
    remarks = [ ("guards_merged", string_of_int !merged) ];
  }

let pass () = Pass.make "guard-coalesce" run
