(** Closure compilation of KIR functions — the VM's dispatch-free engine.

    Each function is translated once into a chain of OCaml closures: one
    accessor per operand, one closure per instruction, one per basic
    block, with branch targets pre-resolved to block indices. Executing a
    compiled function therefore pays no per-instruction [match], no
    per-operand frame hashing (registers become int-array slots), and no
    per-instruction tracer check — the wall-clock costs the interpreter
    pays on every step.

    The *simulated* machine is consulted exactly as the interpreter does:
    the same {!Machine.Model} calls in the same order with the same
    branch-site identifiers, the same {!Kernel.read}/{!Kernel.write}
    probes, the same step counting against the same budget, and the same
    panic/error messages. Cycle accounting is bit-identical by
    construction — the golden-run equivalence test in the suite holds the
    two engines to that.

    Every charge goes to the kernel's current machine, read at the
    charge: under SMP the scheduler swaps it per CPU, so each CPU pays
    for the code it runs.

    A function is compiled on its first call; the cache holds one table
    per module name, keyed by function name, and revalidates an entry by
    physical equality on the function value, so a reloaded module
    recompiles. A cached call allocates no key and no option. When a
    tracer is installed the runner falls back to the interpreter —
    tracing is cost-free tooling, so equivalence is unaffected. *)

open Kir.Types

(* Mutable execution frame: registers are array slots assigned at compile
   time; [set] preserves the interpreter's read-of-unset-register error. *)
type frame = { regs : int array; set : bool array }

type cfunc = {
  cf_src : func;  (** source function, for cache revalidation *)
  cf_run : int array -> int;
}

type t = {
  st : Interp.state;  (** shared stack/steps/tracer state *)
  cache : (string, (string, cfunc) Hashtbl.t) Hashtbl.t;
      (** module name -> function name -> compiled *)
}

let compile_func (st : Interp.state) (lm : Kernel.loaded_module) (f : func) :
    int array -> int =
  let kernel = st.Interp.kernel in
  let nparams = List.length f.params in
  (* register -> frame slot *)
  let slots : (reg, int) Hashtbl.t = Hashtbl.create 32 in
  let nslots = ref 0 in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some i -> i
    | None ->
      let i = !nslots in
      incr nslots;
      Hashtbl.add slots r i;
      i
  in
  let param_slots = List.map (fun (r, _ty) -> slot r) f.params in
  (* operand accessor; symbols resolve per execution, exactly like the
     interpreter (module-local globals first, then kernel symbols) *)
  let value : value -> frame -> int = function
    | Imm n -> fun _ -> n
    | Reg r ->
      let i = slot r in
      fun fr ->
        if fr.set.(i) then fr.regs.(i)
        else Interp.error "read of unset register %s" r
    | Sym s -> (
      fun _ ->
        match List.assoc_opt s lm.Kernel.lm_globals with
        | Some addr -> addr
        | None -> (
          match Kernel.symbol_address kernel s with
          | Some addr -> addr
          | None -> Interp.error "unresolved symbol @%s" s))
  in
  let setter r =
    let i = slot r in
    fun fr x ->
      fr.regs.(i) <- x;
      fr.set.(i) <- true
  in
  let opt_setter = function
    | Some d -> setter d
    | None -> fun _ _ -> ()
  in
  (* argument marshalling in source order (as the interpreter's
     [List.map] evaluates), into a fresh argv array *)
  let arg_array args =
    let gargs = Array.of_list (List.map value args) in
    let n = Array.length gargs in
    if n = 0 then fun _ -> [||]
    else
      fun fr ->
        let argv = Array.make n 0 in
        for k = 0 to n - 1 do
          argv.(k) <- gargs.(k) fr
        done;
        argv
  in
  let compile_instr (i : instr) : frame -> unit =
    match i with
    | Binop { dst; op; ty; a; b } ->
      let ga = value a and gb = value b and setd = setter dst in
      let bop = Arith.binop ty op in
      fun fr ->
        Machine.Model.retire (Kernel.machine kernel) 1;
        (* operand order mirrors the interpreter's right-to-left
           application evaluation: b before a *)
        let vb = gb fr in
        let va = ga fr in
        let r =
          try bop va vb
          with Arith.Division_by_zero ->
            Kernel.panic kernel (Printf.sprintf "divide error in @%s" f.f_name)
        in
        setd fr r
    | Icmp { dst; cond; ty; a; b } ->
      let ga = value a and gb = value b and setd = setter dst in
      fun fr ->
        Machine.Model.retire (Kernel.machine kernel) 1;
        let vb = gb fr in
        let va = ga fr in
        setd fr (if Arith.compare_values ty cond va vb then 1 else 0)
    | Load { dst; ty; addr } ->
      let ga = value addr and setd = setter dst in
      let size = size_of_ty ty in
      fun fr ->
        let a = ga fr in
        setd fr (Kernel.read kernel ~addr:a ~size)
    | Store { ty; v = sv; addr } ->
      let ga = value addr and gv = value sv in
      let size = size_of_ty ty in
      fun fr ->
        let a = ga fr in
        let x = gv fr in
        Kernel.write kernel ~addr:a ~size x
    | Alloca { dst; size } ->
      let setd = setter dst in
      let aligned = (size + 15) land lnot 15 in
      fun fr ->
        Machine.Model.retire (Kernel.machine kernel) 1;
        if st.Interp.sp + aligned > st.Interp.stack_base + st.Interp.stack_size
        then
          Kernel.panic kernel
            (Printf.sprintf "kernel stack overflow in @%s" f.f_name);
        setd fr st.Interp.sp;
        st.Interp.sp <- st.Interp.sp + aligned
    | Gep { dst; base; idx; scale } ->
      let gb = value base and gi = value idx and setd = setter dst in
      fun fr ->
        Machine.Model.retire (Kernel.machine kernel) 1;
        let vi = gi fr * scale in
        let vb = gb fr in
        setd fr (vb + vi)
    | Mov { dst; ty; src } ->
      let gs = value src and setd = setter dst in
      fun fr ->
        Machine.Model.retire (Kernel.machine kernel) 1;
        setd fr (Arith.truncate ty (gs fr))
    | Call { dst; callee; args } ->
      let gargs = Array.of_list (List.map value args) in
      let n = Array.length gargs in
      (* argv scratch, reused across calls from this site: the callee
         consumes argv on entry (the interpreter copies it into its
         register frame, natives read it synchronously), so even a
         recursive call through this same site never observes a stale
         buffer. Guard sites fire dozens of times per packet; a fresh
         array per call was measurable in both time and minor words. *)
      let scratch = Array.make (max n 1) 0 in
      let setd = opt_setter dst in
      (* per-site symbol cache, revalidated against the kernel's symbol
         generation — register/insmod/rmmod/quarantine all bump it, so a
         hit can never call through a stale binding. Non-cacheable names
         (missing, data, tombstones) fall back to the by-name call. *)
      let site_gen = ref (-1) in
      let site_res : Kernel.resolved option ref = ref None in
      fun fr ->
        (* fill argv in source order, as the interpreter's List.map does *)
        for k = 0 to n - 1 do
          scratch.(k) <- gargs.(k) fr
        done;
        let argv = if n = 0 then [||] else scratch in
        Machine.Model.retire (Kernel.machine kernel) n;
        let gen = Kernel.symbol_generation kernel in
        let r =
          if !site_gen <> gen then begin
            site_gen := gen;
            site_res := Kernel.resolve kernel callee;
            match !site_res with
            | Some res -> Kernel.call_resolved kernel res argv
            | None -> Kernel.call_symbol kernel callee argv
          end
          else
            match !site_res with
            | Some res -> Kernel.call_resolved kernel res argv
            | None -> Kernel.call_symbol kernel callee argv
        in
        setd fr r
    | Callind { dst; fn; args } ->
      let gfn = value fn in
      let margs = arg_array args in
      let n = List.length args in
      let setd = opt_setter dst in
      fun fr -> (
        let target = gfn fr in
        match Kernel.symbol_of_address kernel target with
        | None ->
          Kernel.panic kernel
            (Printf.sprintf "indirect call to non-text address 0x%x" target)
        | Some name ->
          let argv = margs fr in
          Machine.Model.retire (Kernel.machine kernel) (1 + n);
          let r = Kernel.call_symbol kernel name argv in
          setd fr r)
    | Select { dst; cond; if_true; if_false } ->
      let gc = value cond
      and gt = value if_true
      and gf = value if_false
      and setd = setter dst in
      fun fr ->
        Machine.Model.retire (Kernel.machine kernel) 1;
        setd fr (if gc fr <> 0 then gt fr else gf fr)
    | Intrinsic { dst; iname; args } ->
      let margs = arg_array args in
      let setd = opt_setter dst in
      fun fr ->
        let argv = margs fr in
        let r = Kernel.exec_intrinsic kernel ~iname ~args:argv in
        setd fr r
    | Inline_asm s ->
      fun _ ->
        Kernel.panic kernel
          (Printf.sprintf "inline assembly %S executed in module %s" s
             lm.Kernel.lm_name)
  in
  (* blocks: compile bodies to closure arrays, pre-resolve jump targets *)
  let blocks = Array.of_list f.blocks in
  let nblocks = Array.length blocks in
  let block_index : (label, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i b ->
      (* first definition wins, matching [find_block]'s List.find_opt *)
      if not (Hashtbl.mem block_index b.b_label) then
        Hashtbl.add block_index b.b_label i)
    blocks;
  let compiled : (frame -> int) array = Array.make (max nblocks 1) (fun _ -> 0) in
  let jump_to l =
    match Hashtbl.find_opt block_index l with
    | Some i -> fun fr -> compiled.(i) fr
    | None ->
      fun _ -> Interp.error "jump to unknown label %s in @%s" l f.f_name
  in
  let compile_term (blk : block) : frame -> int =
    match blk.term with
    | Ret None -> fun _ -> 0
    | Ret (Some rv) ->
      let g = value rv in
      fun fr -> g fr
    | Br l -> jump_to l
    | Cond_br { cond; if_true; if_false } ->
      let gc = value cond in
      let pc = Interp.branch_site f blk 0 in
      let jt = jump_to if_true and jf = jump_to if_false in
      fun fr ->
        let taken = gc fr <> 0 in
        Machine.Model.branch (Kernel.machine kernel) ~pc ~taken;
        if taken then jt fr else jf fr
    | Switch { v = sv; cases; default } ->
      let gs = value sv in
      let pc = Interp.branch_site f blk 1 in
      let jcases = List.map (fun (c, l) -> (c, jump_to l)) cases in
      let jd = jump_to default in
      fun fr ->
        let x = gs fr in
        Machine.Model.branch (Kernel.machine kernel) ~pc
          ~taken:(List.mem_assoc x cases);
        (match List.assoc_opt x jcases with Some j -> j fr | None -> jd fr)
    | Unreachable ->
      fun _ ->
        Kernel.panic kernel
          (Printf.sprintf "unreachable executed in @%s" f.f_name)
  in
  let budget () =
    st.Interp.steps <- st.Interp.steps + 1;
    if st.Interp.steps > st.Interp.max_steps then
      Interp.error "instruction budget exceeded (%d)" st.Interp.max_steps
  in
  Array.iteri
    (fun bi blk ->
      let instrs = Array.of_list (List.map compile_instr blk.body) in
      let ninstrs = Array.length instrs in
      let term = compile_term blk in
      compiled.(bi) <-
        (fun fr ->
          (* block entry burns a budget step, then each instruction *)
          budget ();
          for k = 0 to ninstrs - 1 do
            budget ();
            instrs.(k) fr
          done;
          term fr))
    blocks;
  let total_slots = !nslots in
  fun args ->
    if Array.length args <> nparams then
      Interp.error "call to @%s with %d args, expected %d" f.f_name
        (Array.length args) nparams;
    let fr =
      { regs = Array.make (max total_slots 1) 0;
        set = Array.make (max total_slots 1) false }
    in
    List.iteri
      (fun i si ->
        fr.regs.(si) <- args.(i);
        fr.set.(si) <- true)
      param_slots;
    let saved_sp = st.Interp.sp in
    if nblocks = 0 then
      invalid_arg ("entry_block: function " ^ f.f_name ^ " has no blocks");
    let result = compiled.(0) fr in
    (* like the interpreter, [sp] is restored only on normal return *)
    st.Interp.sp <- saved_sp;
    result

(* [lm]'s function table, created on its first compiled call *)
let module_cache t (lm : Kernel.loaded_module) =
  match Hashtbl.find t.cache lm.Kernel.lm_name with
  | funcs -> funcs
  | exception Not_found ->
    let funcs = Hashtbl.create 16 in
    Hashtbl.add t.cache lm.Kernel.lm_name funcs;
    funcs

(** Install the compiled engine: creates the interpreter state (stack,
    budget — identical allocation order, so both engines see the same
    memory layout) and installs a runner that dispatches to compiled
    code, compiling each function on its first call — or to the
    interpreter when a tracer is active. *)
let install ?stack_size ?max_steps kernel : t =
  let st = Interp.install ?stack_size ?max_steps kernel in
  let t = { st; cache = Hashtbl.create 64 } in
  Kernel.set_runner kernel (fun _k lm f args ->
      if st.Interp.tracer <> None then Interp.exec_func st lm f args
      else begin
        let funcs = module_cache t lm in
        match Hashtbl.find funcs f.f_name with
        | cf when cf.cf_src == f -> cf.cf_run args
        | _ | (exception Not_found) ->
          (* first call, or a replaced function (module reload) *)
          let cf = { cf_src = f; cf_run = compile_func st lm f } in
          Hashtbl.replace funcs f.f_name cf;
          cf.cf_run args
      end);
  t

let state t = t.st
