(** Privileged-intrinsic guarding — the extension sketched in §5 of the
    paper: "instrumentation and wrappers to these builtins could be added
    during compilation, such that a guard is injected and a different
    policy table could be consulted to determine if a given kernel module
    has access to a privileged intrinsic".

    The pass inserts, before every [Intrinsic] instruction, a call to
    [carat_intrinsic_guard(intrinsic_id)]. The policy module's intrinsic
    permission bitmap then decides; denial is handled like a memory guard
    denial (log + panic). Ids are taken from the kernel's stable intrinsic
    registry, so the compiler and the policy module agree by
    construction. *)

open Kir.Types

let guard_symbol = "carat_intrinsic_guard"
let meta_guarded = "carat.kop.intrinsics_guarded"
let meta_count = "carat.kop.intrinsic_guards"

(** The stable intrinsic registry: the privileged builtins a module can
    reach without inline assembly (paper §5: "any privileged intrinsic
    or builtin is useable from inside of a CARAT KOP protected module"),
    each identified by its position. The kernel and the policy module
    read this one table. *)
let known = [ "rdtsc"; "rdmsr"; "wrmsr"; "cli"; "sti"; "invlpg"; "pause"; "hlt" ]

let id_of_intrinsic name =
  let rec go i = function
    | [] -> None
    | n :: _ when n = name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 known

let run (m : modul) : Pass.result =
  if meta_find m meta_guarded = Some "true" then
    Pass.fail "intrinsic-guard" "module %s already intrinsic-guarded" m.m_name;
  let count = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          blk.body <-
            List.concat_map
              (fun i ->
                match i with
                | Intrinsic { iname; _ } -> (
                  match id_of_intrinsic iname with
                  | Some id ->
                    incr count;
                    [
                      Call
                        {
                          dst = None;
                          callee = guard_symbol;
                          args = [ Imm id ];
                        };
                      i;
                    ]
                  | None ->
                    Pass.fail "intrinsic-guard"
                      "unknown intrinsic %s in @%s cannot be certified" iname
                      f.f_name)
                | i -> [ i ])
              blk.body)
        f.blocks)
    m.funcs;
  if !count > 0 && not (List.mem_assoc guard_symbol m.externs) then
    m.externs <- m.externs @ [ (guard_symbol, 1) ];
  meta_set m meta_guarded "true";
  meta_set m meta_count (string_of_int !count);
  {
    Pass.changed = !count > 0;
    remarks = [ ("intrinsic_guards", string_of_int !count) ];
  }

let pass () = Pass.make "intrinsic-guard" run

let count_guards (m : modul) =
  let in_block b =
    List.fold_left
      (fun n i ->
        match i with
        | Call { callee; _ } when callee = guard_symbol -> n + 1
        | _ -> n)
      0 b.body
  in
  List.fold_left
    (fun n f -> n + List.fold_left (fun n b -> n + in_block b) 0 f.blocks)
    0 m.funcs

(** Every intrinsic is immediately preceded by its guard. *)
let fully_guarded (m : modul) : bool =
  let block_ok b =
    let rec go prev body =
      match body with
      | [] -> true
      | (Intrinsic { iname; _ } as i) :: rest ->
        let ok =
          match (prev, id_of_intrinsic iname) with
          | Some (Call { callee; args = [ Imm id ]; _ }), Some want ->
            callee = guard_symbol && id = want
          | _ -> false
        in
        ok && go (Some i) rest
      | i :: rest -> go (Some i) rest
    in
    go None b.body
  in
  List.for_all (fun f -> List.for_all block_ok f.blocks) m.funcs
