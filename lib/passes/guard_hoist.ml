(** Loop-invariant guard hoisting — the second CARAT-CAKE-style guard
    optimization, implemented for the [abl-opt] ablation.

    A guard inside a natural loop whose address operand is loop-invariant
    (an [Imm]/[Sym], or a register never redefined inside the loop) fires
    identically on every iteration. If the loop has a unique preheader
    (single outside predecessor whose only successor is the header), the
    guard can run once there instead. Hoisting moves the guard *earlier*,
    so the policy check still precedes every guarded access; it is only
    performed when no call inside the loop could mutate the policy
    (conservatively: no non-guard calls in the loop at all).

    The pass is idempotent: the per-loop dedupe table is seeded with the
    guards already sitting in the preheader (whose address value still
    holds at the loop entry), so hoisting into a preheader that already
    checks the same (addr, size, flags) — because an earlier run moved a
    guard there, or because the injection pass guarded a pre-loop access
    to the same address — deletes the in-loop re-check instead of
    stacking a duplicate. *)

open Kir.Types

let regs_defined_in_blocks blocks =
  let defined = Hashtbl.create 32 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match def_of_instr i with
          | Some r -> Hashtbl.replace defined r ()
          | None -> ())
        b.body)
    blocks;
  defined

(* both guard forms; the trailing site id (if present) moves with the
   call and keeps indexing the same static site after hoisting *)
let guard_key i =
  Option.map (fun (addr, size, flags, _) -> (addr, size, flags)) (Guard_injection.parse_guard i)

let run (m : modul) : Pass.result =
  let hoisted = ref 0 in
  let deduped = ref 0 in
  let process_func f =
    let cfg = Kir.Cfg.of_func f in
    let linfo = Loops.compute cfg in
    List.iter
      (fun (l : Loops.loop) ->
        match Loops.outside_preds linfo l with
        | [ p ] when cfg.Kir.Cfg.succ.(p) = [ l.Loops.header ] ->
          let pre = Kir.Cfg.block cfg p in
          let loop_blocks = List.map (Kir.Cfg.block cfg) l.Loops.body in
          let defined = regs_defined_in_blocks loop_blocks in
          let invariant = function
            | Imm _ | Sym _ -> true
            | Reg r -> not (Hashtbl.mem defined r)
          in
          let has_foreign_call =
            List.exists
              (fun b ->
                List.exists
                  (function
                    | Call _ as i -> Guard_injection.parse_guard i = None
                    | Callind _ -> true
                    | _ -> false)
                  b.body)
              loop_blocks
          in
          if not has_foreign_call then begin
            (* dedupe by (addr,size,flags), seeded with the guards already
               in the preheader whose address value still holds at its end
               (Imm/Sym, or a register not redefined below the guard) *)
            let moved = Hashtbl.create 8 in
            let rec seed = function
              | [] -> ()
              | i :: rest ->
                (match guard_key i with
                | Some ((addr, _, _) as key) ->
                  let stable =
                    match addr with
                    | Imm _ | Sym _ -> true
                    | Reg r ->
                      not (List.exists (fun j -> def_of_instr j = Some r) rest)
                  in
                  if stable then Hashtbl.replace moved key ()
                | None -> ());
                seed rest
            in
            seed pre.body;
            List.iter
              (fun b ->
                let keep i =
                  match guard_key i with
                  | Some ((addr, _, _) as key) when invariant addr ->
                    if Hashtbl.mem moved key then incr deduped
                    else begin
                      Hashtbl.replace moved key ();
                      pre.body <- pre.body @ [ i ];
                      incr hoisted
                    end;
                    false
                  | _ -> true
                in
                b.body <- List.filter keep b.body)
              loop_blocks
          end
        | _ -> ())
      linfo.Loops.loops
  in
  List.iter process_func m.funcs;
  {
    Pass.changed = !hoisted + !deduped > 0;
    remarks =
      [
        ("guards_hoisted", string_of_int !hoisted);
        ("guards_deduped", string_of_int !deduped);
      ];
  }

let pass () = Pass.make "guard-hoist" run
