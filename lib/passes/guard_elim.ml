(** Redundant-guard elimination — the first of the CARAT-CAKE-style guard
    optimizations that the paper deliberately leaves out of CARAT KOP
    (§3.3) but speculates about. We implement it for the ablation
    benchmark [abl-opt].

    Within a basic block, a guard call [carat_guard(a, s, fl)] is
    redundant if earlier guards in the same block already covered the
    same address *value* with at least the same size for every access
    kind in [fl], provided no non-guard call intervened (a call could
    reach the policy module and change the table; dropping the later
    guard would then be unsound). Coverage is tracked per access kind:
    a 4-byte read guard followed by a 1-byte write guard does NOT
    license dropping a 4-byte write guard — only 1 byte was ever
    write-checked, so the sizes must never be merged across kinds.

    "Same address value" is decided by local value numbering: [mov] and
    [gep] chains are resolved symbolically, so two guards whose addresses
    are recomputed through different registers (e.g. two [gep adapter,
    40] sequences) still deduplicate. Every other definition gets a fresh
    opaque number, which also makes register redefinition safe. *)

open Kir.Types

(* bytes proven checked at an address value, per access kind *)
type seen = { rsize : int; wsize : int }

(* symbolic value for local value numbering *)
type sym_value =
  | V_imm of int
  | V_sym of string
  | V_gep of sym_value * sym_value * int
  | V_opaque of int

let rec sym_to_key = function
  | V_imm n -> "i" ^ string_of_int n
  | V_sym s -> "s" ^ s
  | V_gep (b, i, s) ->
    Printf.sprintf "g(%s,%s,%d)" (sym_to_key b) (sym_to_key i) s
  | V_opaque n -> "o" ^ string_of_int n

let run (m : modul) : Pass.result =
  let removed = ref 0 in
  let fresh = ref 0 in
  let next_opaque () =
    incr fresh;
    V_opaque !fresh
  in
  let process_block b =
    let values : (reg, sym_value) Hashtbl.t = Hashtbl.create 32 in
    let value_of = function
      | Imm n -> V_imm n
      | Sym s -> V_sym s
      | Reg r -> (
        match Hashtbl.find_opt values r with
        | Some v -> v
        | None ->
          let v = next_opaque () in
          Hashtbl.replace values r v;
          v)
    in
    let seen : (string, seen) Hashtbl.t = Hashtbl.create 16 in
    let keep i =
      match (Guard_injection.parse_guard i, i) with
      (* both guard forms decode alike; the site does not affect
         coverage, so it is ignored for redundancy purposes *)
      | Some (addr, size, flags, _), _ -> (
        let key = sym_to_key (value_of addr) in
        let wants_read = flags land Guard_injection.flag_read <> 0 in
        let wants_write = flags land Guard_injection.flag_write <> 0 in
        let prev =
          Option.value
            (Hashtbl.find_opt seen key)
            ~default:{ rsize = 0; wsize = 0 }
        in
        if
          ((not wants_read) || prev.rsize >= size)
          && ((not wants_write) || prev.wsize >= size)
        then begin
          incr removed;
          false
        end
        else begin
          Hashtbl.replace seen key
            {
              rsize = (if wants_read then max prev.rsize size else prev.rsize);
              wsize = (if wants_write then max prev.wsize size else prev.wsize);
            };
          true
        end)
      | None, (Call _ | Callind _) ->
        (* unknown call: conservatively forget guard coverage (the policy
           could have changed); value numbering stays valid *)
        Hashtbl.reset seen;
        (match def_of_instr i with
        | Some r -> Hashtbl.replace values r (next_opaque ())
        | None -> ());
        true
      | None, Mov { dst; src; _ } ->
        Hashtbl.replace values dst (value_of src);
        true
      | None, Gep { dst; base; idx; scale } ->
        Hashtbl.replace values dst (V_gep (value_of base, value_of idx, scale));
        true
      | None, _ ->
        (match def_of_instr i with
        | Some r -> Hashtbl.replace values r (next_opaque ())
        | None -> ());
        true
    in
    b.body <- List.filter keep b.body
  in
  List.iter (fun f -> List.iter process_block f.blocks) m.funcs;
  {
    Pass.changed = !removed > 0;
    remarks = [ ("guards_removed", string_of_int !removed) ];
  }

let pass () = Pass.make "guard-elim" run
