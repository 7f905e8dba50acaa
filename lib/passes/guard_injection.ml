(** The CARAT KOP transform: insert a call to the guard function before
    every load and store in the module (§3.3 of the paper).

    The paper's pass "simply iterates over each load/store operation and
    inserts a call to the guard function before" — no analysis, no
    optimization, every access guarded even when redundant. This module
    reproduces that exactly (about 200 lines, like the C++ original), plus
    one optional refinement the paper mentions relying on paging for:
    [exempt_stack] skips accesses provably confined to the module's own
    stack frame.

    The guard contract is fixed, not chosen by the module: one symbol
    ({!guard_symbol}), every load and every store guarded. The kernel's
    certificate checker proves coverage by that symbol only, so no
    metadata a module carries can name another guard or waive an access
    kind.

    The guard callback signature extends the paper's
    [carat_guard(void *addr, size_t size, int access_flags)] with a
    fourth, compiler-assigned argument: a small integer *site id*, unique
    per static guard call within the module and assigned in deterministic
    program order. The policy module uses it to key per-guard-site inline
    caches; it carries no policy meaning, so legacy 3-argument callers
    remain valid (the policy module treats them as site -1, uncached).
    {!guard} is the one encoder of guard calls and {!parse_guard} the one
    decoder; to every pass, a call to the guard symbol that does not
    decode is an ordinary call. *)

open Kir.Types

let guard_symbol = "carat_guard"

(* access_flags bitmap, shared with the policy module *)
let flag_read = 1
let flag_write = 2

(** The guard call checking [size] bytes at [addr] for [flags]; a
    negative [site] emits the paper's 3-argument form. *)
let guard ~addr ~size ~flags ~site =
  let args = [ addr; Imm size; Imm flags ] in
  Call
    {
      dst = None;
      callee = guard_symbol;
      args = (if site < 0 then args else args @ [ Imm site ]);
    }

(** [(addr, size, flags, site)] of a guard call's arguments, in either
    form (site -1 for the 3-argument one); [None] unless [size > 0]. *)
let guard_args = function
  | [ addr; Imm size; Imm flags ] when size > 0 -> Some (addr, size, flags, -1)
  | [ addr; Imm size; Imm flags; Imm site ] when size > 0 ->
    Some (addr, size, flags, site)
  | _ -> None

(** The decoded guard, when [i] is a result-less call of {!guard_symbol}
    whose arguments decode. *)
let parse_guard = function
  | Call { callee; args; dst = None } when callee = guard_symbol -> guard_args args
  | _ -> None

(** [exempt_stack]'s frame-bounds rule, shared with the certifier and
    the checker: bytes [\[off, off + size)] lie inside an alloca of
    [frame] declared bytes. Offsets wrap exactly as the VM's address
    arithmetic does. *)
let in_frame ~frame ~off size = 0 <= off && off <= frame - size

(** The registers of [f] whose only definition is an alloca, with its
    declared size. *)
let allocas (f : func) : reg -> int option =
  let defs = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          Option.iter
            (fun r ->
              Hashtbl.replace defs r (i :: Option.value ~default:[] (Hashtbl.find_opt defs r)))
            (def_of_instr i))
        b.body)
    f.blocks;
  fun r -> match Hashtbl.find_opt defs r with Some [ Alloca { size; _ } ] -> Some size | _ -> None

(** Instrument one function; returns the number of guards inserted.
    [next_site] is the module-wide site-id counter: each inserted guard
    consumes one id, in deterministic (function, block, instruction)
    order, so rebuilding the same module yields the same ids.

    Under [exempt_stack] an access goes unguarded when its bytes lie
    inside the function's own frame ({!in_frame}) at a constant offset
    from an alloca, in one of the two shapes the certificate checker
    reads back: the register an alloca defines, or a constant-index gep
    / 64-bit mov chain over one built earlier in the access's block. *)
let instrument_func ~exempt_stack ~next_site (f : func) : int =
  let alloca = if exempt_stack then allocas f else fun _ -> None in
  let count = ref 0 in
  let guarded ty addr flags i =
    let site = !next_site in
    incr next_site;
    incr count;
    [ guard ~addr ~size:(size_of_ty ty) ~flags ~site; i ]
  in
  List.iter
    (fun b ->
      (* register -> (frame bytes, offset), for chains built in this block *)
      let local = Hashtbl.create 8 in
      let slot = function
        | Reg r -> (
          match Hashtbl.find_opt local r with
          | Some s -> s
          | None -> Option.map (fun frame -> (frame, 0)) (alloca r))
        | Imm _ | Sym _ -> None
      in
      let own_frame ty addr =
        match slot addr with
        | Some (frame, off) -> in_frame ~frame ~off (size_of_ty ty)
        | None -> false
      in
      b.body <-
        List.concat_map
          (fun i ->
            let out =
              match i with
              | (Load { ty; addr; _ } | Store { ty; addr; _ }) when own_frame ty addr -> [ i ]
              | Load { ty; addr; _ } -> guarded ty addr flag_read i
              | Store { ty; addr; _ } -> guarded ty addr flag_write i
              | i -> [ i ]
            in
            (match i with
            | Gep { dst; base; idx = Imm n; scale } ->
              Hashtbl.replace local dst
                (Option.map (fun (frame, off) -> (frame, off + (n * scale))) (slot base))
            | Mov { dst; ty = I64 | Ptr; src } -> Hashtbl.replace local dst (slot src)
            | i -> Option.iter (Hashtbl.remove local) (def_of_instr i));
            out)
          b.body)
    f.blocks;
  !count

let meta_guarded = "carat.kop.guarded"
let meta_guard_count = "carat.kop.guards"
let meta_guard_sites = "carat.kop.guard_sites"
let meta_compiler = "carat.kop.compiler"

(* the one injection option, recorded (and signed): the certificate
   checker accepts a frame-local exemption only from a module compiled
   with it *)
let meta_exempt_stack = "carat.kop.guard_exempt_stack"

(* the guard-optimization level the module was compiled at, recorded by
   the certified optimizer ([Analysis.Optimize]) and signed: the
   certifier widens its analysis (interprocedural summaries, loop
   ranges) only for modules that honestly declare aggressive
   optimization, so unoptimized modules keep the paper's strictly
   intraprocedural proof obligations *)
let meta_opt_level = "carat.kop.opt"
let compiler_version = "kop-ocaml-1.1 (kir, guard sites)"

(** Arity of the guard import the pass emits (addr, size, flags, site). *)
let guard_arity = 4

(** [exempt_stack] skips guards on addresses derived only from the
    frame's own allocas. *)
let run ?(exempt_stack = false) (m : modul) : Pass.result =
  if meta_find m meta_guarded = Some "true" then
    Pass.fail "guard-injection" "module %s is already guarded" m.m_name;
  let next_site = ref 0 in
  let total =
    List.fold_left
      (fun n f -> n + instrument_func ~exempt_stack ~next_site f)
      0 m.funcs
  in
  if not (List.mem_assoc guard_symbol m.externs) then
    m.externs <- m.externs @ [ (guard_symbol, guard_arity) ];
  meta_set m meta_guarded "true";
  meta_set m meta_guard_count (string_of_int total);
  meta_set m meta_guard_sites (string_of_int !next_site);
  meta_set m meta_exempt_stack (string_of_bool exempt_stack);
  meta_set m meta_compiler compiler_version;
  { changed = total > 0; remarks = [ ("guards", string_of_int total) ] }

let pass ?exempt_stack () = Pass.make "guard-injection" (run ?exempt_stack)

(** Static count of guard calls currently present in the module. *)
let count_guards (m : modul) =
  let in_block b =
    List.fold_left (fun n i -> if parse_guard i <> None then n + 1 else n) 0 b.body
  in
  List.fold_left
    (fun n f -> n + List.fold_left (fun n b -> n + in_block b) 0 f.blocks)
    0 m.funcs

(** Check the central transform invariant: every load/store is immediately
    preceded by a guard call for the same address operand (used by tests
    and by the loader's deep-validation mode). Optimized modules violate
    the "immediately preceded" form, so this is only asserted for the
    unoptimized pipeline. *)
let fully_guarded (m : modul) : bool =
  let block_ok b =
    let rec go prev body =
      match body with
      | [] -> true
      | (Load { addr; _ } as i) :: rest | (Store { addr; _ } as i) :: rest ->
        let guarded =
          match Option.bind prev parse_guard with
          | Some (a, _, _, _) -> a = addr
          | None -> false
        in
        guarded && go (Some i) rest
      | i :: rest -> go (Some i) rest
    in
    go None b.body
  in
  List.for_all (fun f -> List.for_all block_ok f.blocks) m.funcs
