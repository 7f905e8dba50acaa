(** KIR lints, built on the certifier's dataflow analysis plus the
    attestation scan:

    - [L-unguarded] (error): a reachable load/store not covered by any
      dominating guard — the certifier's refusal, itemized;
    - [L-unreachable] (warning): a block never reached from entry (dce
      would remove it; accesses inside escape certification);
    - [L-shadowed-guard] (warning): a guard whose coverage is already
      established at its program point — {!Passes.Guard_elim} or
      {!Passes.Guard_hoist} left a redundant check behind;
    - [L-unused-guard] (warning): a guard that justifies no reachable
      access;
    - [L-callind-nocfi] (warning): an indirect call not covered by
      {!Passes.Cfi_guard} instrumentation — strict attestation would
      reject the module;
    - [W-coalescable-guard] (warning): several guards in one block
      check adjacent/overlapping bytes of the same base and would
      merge into a single wider guard ({!Passes.Guard_coalesce}, run
      at [--opt aggressive]);
    - [L-diverged] (error): the dataflow solver failed to stabilize. *)

open Kir.Types

type severity = Err | Warn

let severity_to_string = function Err -> "error" | Warn -> "warning"

type finding = {
  severity : severity;
  code : string;
  in_func : string;
  in_block : string;  (** empty when not block-specific *)
  message : string;
}

let finding_to_string f =
  let where =
    match (f.in_func, f.in_block) with
    | "", _ -> ""
    | fn, "" -> Printf.sprintf " @%s:" fn
    | fn, b -> Printf.sprintf " @%s.%s:" fn b
  in
  Printf.sprintf "%s[%s]%s %s" (severity_to_string f.severity) f.code where
    f.message

let site_str s = if s < 0 then "site ?" else Printf.sprintf "site %d" s

let lint (m : modul) : finding list =
  let out = ref [] in
  let push severity code in_func in_block fmt =
    Printf.ksprintf
      (fun message -> out := { severity; code; in_func; in_block; message } :: !out)
      fmt
  in
  (match Certify.analyze m with
  | exception Dataflow.Diverged why ->
    push Err "L-diverged" "" "" "dataflow analysis diverged: %s" why
  | s ->
    List.iter
      (fun (fs : Certify.func_summary) ->
        List.iter
          (fun lbl ->
            push Warn "L-unreachable" fs.fs_name lbl
              "block is unreachable from entry; dce would remove it")
          fs.fs_unreachable;
        List.iter
          (fun (u : Certify.uncovered) ->
            push Err "L-unguarded" u.u_func u.u_block
              "%s of %d bytes at %s is not covered by any dominating %s"
              (Certify.access_kind_to_string u.u_kind)
              u.u_size u.u_addr Passes.Guard_injection.guard_symbol)
          fs.fs_uncovered;
        (* dominator tree of this function, for describing *where* a
           shadowed guard's coverage comes from *)
        let doms = lazy
          (let f = List.find (fun f -> f.f_name = fs.fs_name) m.funcs in
           let cfg = Kir.Cfg.of_func f in
           (cfg, Passes.Dominators.compute cfg))
        in
        let block_of_iid iid =
          List.find_opt (fun (g : Certify.guard_site) -> g.gs_iid = iid)
            fs.fs_guards
          |> Option.map (fun (g : Certify.guard_site) -> g.gs_block)
        in
        List.iter
          (fun (g : Certify.guard_site) ->
            if g.gs_redundant then begin
              let how =
                match List.filter_map block_of_iid g.gs_shadowed_by with
                | [] -> "coverage established at a join"
                | lbl :: _ ->
                  let cfg, dom = Lazy.force doms in
                  let a = Kir.Cfg.index_of cfg lbl
                  and b = Kir.Cfg.index_of cfg g.gs_block in
                  if Passes.Dominators.dominates dom a b then
                    Printf.sprintf "shadowed by dominating guard in block %s"
                      lbl
                  else
                    Printf.sprintf "covered on every path (e.g. via block %s)"
                      lbl
              in
              push Warn "L-shadowed-guard" g.gs_func g.gs_block
                "guard (%s) re-checks already-proven coverage; %s"
                (site_str g.gs_site) how
            end
            else if not g.gs_used then
              push Warn "L-unused-guard" g.gs_func g.gs_block
                "guard (%s) justifies no reachable access" (site_str g.gs_site))
          fs.fs_guards)
      s.s_funcs);
  let flags_str f =
    match
      ( f land Passes.Guard_injection.flag_read <> 0,
        f land Passes.Guard_injection.flag_write <> 0 )
    with
    | true, true -> "rw"
    | true, false -> "r"
    | false, true -> "w"
    | false, false -> "-"
  in
  List.iter
    (fun (c : Passes.Guard_coalesce.candidate) ->
      push Warn "W-coalescable-guard" c.c_func c.c_block
        "%d guards (%s) on %s merge into one %s check of bytes [%d,%d)"
        c.c_count
        (String.concat ", " (List.map site_str c.c_sites))
        c.c_addr (flags_str c.c_flags) c.c_lo c.c_hi)
    (Passes.Guard_coalesce.candidates m);
  let r = Passes.Attest.scan m in
  List.iter
    (fun (fi : Passes.Attest.finding) ->
      push Warn "L-callind-nocfi" fi.in_func ""
        "indirect call not covered by cfi_guard; strict attestation would \
         reject this module")
    r.uncovered_indirect;
  List.rev !out

let errors fs = List.filter (fun f -> f.severity = Err) fs
let warnings fs = List.filter (fun f -> f.severity = Warn) fs
