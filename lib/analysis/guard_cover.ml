(** Symbolic guard-coverage abstract domain.

    A dataflow fact is a pair of
    - an {b environment} mapping each virtual register to a symbolic
      value ({!sv}) — a tiny flow-sensitive value numbering that sees
      through [Mov]/[Gep] chains exactly like {!Passes.Guard_elim}'s
      block-local numbering, extended across blocks; and
    - a {b coverage map} from a normalized symbolic base address to the
      byte intervals (and access flags) proven checked by an earlier
      [carat_guard] call on every path.

    Soundness discipline:
    - a register redefinition kills coverage keyed on the *previous*
      value of the defining instruction ([S_def] of its id), so stale
      facts cannot survive a loop back edge;
    - joins intersect coverage pairwise and collapse conflicting
      register values to a per-join [S_merge] symbol; when a join
      genuinely conflicts, coverage mentioning that symbol (from an
      earlier iteration) is killed;
    - any call that could mutate the policy or memory map — anything
      but the guard family itself — kills {e all} coverage, exactly the
      conservative envelope {!Passes.Guard_elim} assumes when it
      decides a guard is removable. [Intrinsic]s are treated as
      policy-neutral for the same reason: the eliminator does not reset
      coverage at them, so neither do we. *)

open Kir.Types

(** Symbolic values. [S_def i] is the (opaque) result of the
    instruction with function-wide id [i]; [S_merge (b, r)] is the
    value of register [r] at the head of block [b] when its incoming
    definitions conflict; [S_undef r] is a register read before any
    definition on this path (frozen, so still a stable value). *)
type sv =
  | S_imm of int
  | S_sym of string
  | S_param of reg
  | S_undef of reg
  | S_def of int
  | S_merge of int * reg
  | S_gep of sv * sv * int  (** base + idx * scale *)

let rec sv_to_string = function
  | S_imm n -> string_of_int n
  | S_sym s -> "@" ^ s
  | S_param r -> r
  | S_undef r -> r ^ "?"
  | S_def i -> Printf.sprintf "v%d" i
  | S_merge (b, r) -> Printf.sprintf "%s.phi%d" r b
  | S_gep (b, i, s) ->
    Printf.sprintf "(%s + %s*%d)" (sv_to_string b) (sv_to_string i) s

(** Does any sub-term of [sv] satisfy [p]? *)
let rec sv_exists p sv =
  p sv
  || match sv with S_gep (a, b, _) -> sv_exists p a || sv_exists p b | _ -> false

(** Normalize to (core, byte offset) by peeling constant-index geps off
    the top; matches the structural keys {!Passes.Guard_elim} uses. *)
let rec base_off = function
  | S_gep (b, S_imm n, scale) ->
    let core, off = base_off b in
    (core, off + (n * scale))
  | sv -> (sv, 0)

let sv_rank = function
  | S_imm _ -> 0
  | S_sym _ -> 1
  | S_param _ -> 2
  | S_undef _ -> 3
  | S_def _ -> 4
  | S_merge _ -> 5
  | S_gep _ -> 6

(** The order polymorphic [compare] gives symbolic values — constructor
    first, in declaration order, then the arguments left to right — so
    every map keyed on them iterates as it always did, without a call
    into the runtime's generic comparison. *)
let rec compare_sv a b =
  match (a, b) with
  | S_imm x, S_imm y | S_def x, S_def y -> Int.compare x y
  | S_sym x, S_sym y | S_param x, S_param y | S_undef x, S_undef y -> String.compare x y
  | S_merge (b1, r1), S_merge (b2, r2) ->
    let c = Int.compare b1 b2 in
    if c <> 0 then c else String.compare r1 r2
  | S_gep (b1, i1, s1), S_gep (b2, i2, s2) ->
    let c = compare_sv b1 b2 in
    if c <> 0 then c
    else
      let c = compare_sv i1 i2 in
      if c <> 0 then c else Int.compare s1 s2
  | _ -> Int.compare (sv_rank a) (sv_rank b)

let rec equal_sv a b =
  a == b
  ||
  match (a, b) with
  | S_imm x, S_imm y | S_def x, S_def y -> Int.equal x y
  | S_sym x, S_sym y | S_param x, S_param y | S_undef x, S_undef y -> String.equal x y
  | S_merge (b1, r1), S_merge (b2, r2) -> Int.equal b1 b2 && String.equal r1 r2
  | S_gep (b1, i1, s1), S_gep (b2, i2, s2) ->
    Int.equal s1 s2 && equal_sv b1 b2 && equal_sv i1 i2
  | _ -> false

module Env = Map.Make (String)

module SvMap = Map.Make (struct
  type t = sv

  let compare = compare_sv
end)

(** One proven check: bytes [\[lo, hi)] relative to the core address,
    for accesses whose flags are a subset of [flags]. [origins] are the
    function-wide instruction ids of the guard calls that justify it
    (several after a join merges equal coverage). *)
type fact = { lo : int; hi : int; flags : int; origins : int list }

type t = { env : sv Env.t; facts : fact list SvMap.t }

let coverage_subsumes a b =
  a.lo <= b.lo && b.hi <= a.hi && b.flags land a.flags = b.flags

(* the coverage a fact proves: the key equal-coverage facts merge on *)
let compare_coverage f g =
  let c = Int.compare f.lo g.lo in
  if c <> 0 then c
  else
    let c = Int.compare f.hi g.hi in
    if c <> 0 then c else Int.compare f.flags g.flags

let rec sorted_unique (l : int list) =
  match l with a :: (b :: _ as rest) -> a < b && sorted_unique rest | _ -> true

(** Canonical fact list: equal-coverage facts merged (origins unioned),
    strictly-subsumed facts dropped, sorted. Sorted by coverage, each
    run of equal coverage merges into one fact; merged coverages are
    distinct, so this is also the order [compare] gives whole facts. *)
let prune (l : fact list) : fact list =
  let rec merge acc = function
    | [] -> List.rev acc
    | f :: rest ->
      let rec run origins = function
        | g :: rest when compare_coverage f g = 0 ->
          run (List.rev_append g.origins origins) rest
        | rest -> (origins, rest)
      in
      let origins, rest = run f.origins rest in
      let f =
        if origins == f.origins && sorted_unique origins then f
        else { f with origins = List.sort_uniq Int.compare origins }
      in
      merge (f :: acc) rest
  in
  let merged = merge [] (List.stable_sort compare_coverage l) in
  let strictly_below f g = coverage_subsumes g f && not (coverage_subsumes f g) in
  List.filter (fun f -> not (List.exists (strictly_below f) merged)) merged

let equal_fact f g =
  f == g
  || Int.equal f.lo g.lo && Int.equal f.hi g.hi && Int.equal f.flags g.flags
     && List.equal Int.equal f.origins g.origins

let equal a b =
  a == b
  || Env.equal equal_sv a.env b.env && SvMap.equal (List.equal equal_fact) a.facts b.facts

let entry_of_params params =
  {
    env =
      List.fold_left (fun e (r, _) -> Env.add r (S_param r) e) Env.empty params;
    facts = SvMap.empty;
  }

let sv_of env = function
  | Imm n -> S_imm n
  | Sym s -> S_sym s
  | Reg r -> ( try Env.find r env with Not_found -> S_undef r)

let kill_mentioning p facts =
  SvMap.filter (fun core _ -> not (sv_exists p core)) facts

(* -- transfer ------------------------------------------------------ *)

(** What a direct call to a known function does to coverage.

    [ce_kills]: the callee may mutate the policy or the memory map, so
    all caller facts die (the conservative envelope). [ce_adds]: facts
    the callee establishes on {e every} path to {e every} return —
    guard checks it performed under the policy in force when it
    returns. Each added fact is a symbolic core (over [S_sym], [S_imm],
    [S_param] and [S_gep] only) with the callee's formal parameters
    standing in for the arguments; the transfer function substitutes
    the caller's argument values for them. The fully opaque call is
    [{ ce_kills = true; ce_adds = [] }]. *)
type call_effect = {
  ce_kills : bool;
  ce_adds : (sv * int * int * int) list;  (** core, lo, hi, flags *)
  ce_params : reg list;  (** callee formals, for argument substitution *)
}

let opaque_effect = { ce_kills = true; ce_adds = []; ce_params = [] }

type ctx = {
  neutral : string -> bool;
      (** direct callees besides the guard that provably cannot change
          the policy or the memory map (the extension guards): coverage
          survives them *)
  call_effect : string -> call_effect;
      (** effect of every other direct callee; [opaque_effect] when
          nothing is known (externs, unanalyzed modules) *)
}

(** Rewrite a summary core into the caller's value space: the callee's
    formal parameters become the caller's argument values. [None] when
    the core mentions a formal with no matching argument, or a symbol
    class that does not translate. *)
let rec subst_params ~params ~args sv =
  match sv with
  | S_imm _ | S_sym _ -> Some sv
  | S_param r -> (
    let rec pick ps vs =
      match (ps, vs) with
      | p :: _, v :: _ when String.equal p r -> Some v
      | _ :: ps, _ :: vs -> pick ps vs
      | _ -> None
    in
    pick params args)
  | S_gep (b, i, scale) -> (
    match (subst_params ~params ~args b, subst_params ~params ~args i) with
    | Some b, Some i -> Some (S_gep (b, i, scale))
    | _ -> None)
  | S_undef _ | S_def _ | S_merge _ -> None

let add_fact core (f : fact) t =
  let existing = try SvMap.find core t.facts with Not_found -> [] in
  if List.exists (fun e -> coverage_subsumes e f) existing then t
  else { t with facts = SvMap.add core (prune (f :: existing)) t.facts }

(** The instruction with id [iid] (re)defines [dst]: bind it to an
    opaque value and kill coverage keyed on this instruction's previous
    execution — the back-edge staleness rule. *)
let def_opaque ~iid dst t =
  match dst with
  | None -> t
  | Some r ->
    {
      env = Env.add r (S_def iid) t.env;
      facts = kill_mentioning (function S_def i -> i = iid | _ -> false) t.facts;
    }

(* every instruction but a guard call *)
let transfer_other ctx ~iid (t : t) (i : instr) : t =
  match i with
  | Call { callee; dst; _ } when ctx.neutral callee -> def_opaque ~iid dst t
  | Call { callee; args; dst } -> (
    match ctx.call_effect callee with
    | { ce_kills = true; ce_adds = []; _ } ->
      def_opaque ~iid dst { t with facts = SvMap.empty }
    | { ce_kills; ce_adds; ce_params } ->
      (* a summarized intra-module callee: optionally kill, then add
         the facts it (re)establishes on every return path *)
      let argvs = List.map (sv_of t.env) args in
      let t = if ce_kills then { t with facts = SvMap.empty } else t in
      let t = def_opaque ~iid dst t in
      List.fold_left
        (fun t (core, lo, hi, flags) ->
          match subst_params ~params:ce_params ~args:argvs core with
          | Some core ->
            let core, shift = base_off core in
            add_fact core
              { lo = lo + shift; hi = hi + shift; flags; origins = [ iid ] }
              t
          | None -> t)
        t ce_adds)
  | Callind { dst; _ } -> def_opaque ~iid dst { t with facts = SvMap.empty }
  | Inline_asm _ -> { t with facts = SvMap.empty }
  | Mov { dst; ty = I64 | Ptr; src } ->
    (* a copy: the destination takes the source's symbolic value, so
       coverage established for that value keeps applying *)
    { t with env = Env.add dst (sv_of t.env src) t.env }
  | Gep { dst; base; idx; scale } ->
    {
      t with
      env = Env.add dst (S_gep (sv_of t.env base, sv_of t.env idx, scale)) t.env;
    }
  | Binop { dst; _ } | Icmp { dst; _ } | Load { dst; _ } | Alloca { dst; _ }
  | Select { dst; _ }
  | Mov { dst; _ } (* narrower than 64 bits: it truncates *) ->
    def_opaque ~iid (Some dst) t
  | Intrinsic { dst; _ } -> def_opaque ~iid dst t
  | Store _ -> t

(** A guard call adds the fact it checks; a call of the guard symbol
    that does not decode is an ordinary call. *)
let transfer_instr ctx ~iid (t : t) (i : instr) : t =
  match Passes.Guard_injection.parse_guard i with
  | Some (addr, size, flags, _site) ->
    let core, off = base_off (sv_of t.env addr) in
    add_fact core { lo = off; hi = off + size; flags; origins = [ iid ] } t
  | None -> transfer_other ctx ~iid t i

(* -- join ---------------------------------------------------------- *)

let inter_facts a b =
  SvMap.merge
    (fun _core la lb ->
      match (la, lb) with
      | Some la, Some lb ->
        let combined =
          List.concat_map
            (fun f1 ->
              List.filter_map
                (fun f2 ->
                  let lo = Int.max f1.lo f2.lo and hi = Int.min f1.hi f2.hi in
                  let flags = f1.flags land f2.flags in
                  if lo < hi && flags <> 0 then
                    Some
                      {
                        lo;
                        hi;
                        flags;
                        origins = List.sort_uniq Int.compare (f1.origins @ f2.origins);
                      }
                  else None)
                lb)
            la
        in
        (match prune combined with [] -> None | l -> Some l)
      | _ -> None)
    a b

(** Join register environments at the head of [block]. Conflicting (or
    partially-undefined) registers collapse to [S_merge (block, r)];
    incoming values already equal to that symbol are transparent, so a
    loop-invariant register keeps its pre-loop value. Returns the new
    environment plus the registers whose merge symbols genuinely
    conflicted this time (coverage mentioning them is stale). One
    environment reaching the join on every edge is its own join. *)
let join_envs ~block (envs : sv Env.t list) : sv Env.t * reg list =
  match envs with
  | e :: rest when List.for_all (fun e' -> e' == e) rest -> (e, [])
  | _ ->
    let killed = ref [] in
    let joined r _ =
      let self = S_merge (block, r) in
      let rec scan first = function
        | [] -> Option.value first ~default:self
        | e :: rest -> (
          match (Env.find_opt r e, first) with
          | Some v, _ when equal_sv v self -> scan first rest
          | Some v, None -> scan (Some v) rest
          | Some v, Some w when equal_sv w v -> scan first rest
          | _ ->
            (* two incoming values differ, or a path leaves [r] undefined *)
            killed := r :: !killed;
            self)
      in
      scan None envs
    in
    let keys = List.fold_left (Env.union (fun _ v _ -> Some v)) Env.empty envs in
    let env = Env.mapi joined keys in
    (env, !killed)

let join ~block = function
  | [] -> invalid_arg "Guard_cover.join: empty predecessor list"
  | [ x ] -> x
  | x :: rest as all ->
    let env, killed = join_envs ~block (List.map (fun t -> t.env) all) in
    let facts =
      List.fold_left (fun acc t -> inter_facts acc t.facts) x.facts rest
    in
    let facts =
      match killed with
      | [] -> facts
      | _ ->
        kill_mentioning
          (function
            | S_merge (b, r) -> b = block && List.exists (String.equal r) killed
            | _ -> false)
          facts
    in
    { env; facts }

(** One function's coverage solve: its CFG, the block bodies, the
    function-wide id of each block's first instruction (ids count
    instructions in block-array order), the per-block facts and the
    state before each instruction of a reachable block; then what the
    solve read: the function's block list, each block's body and
    terminator as they were, which callees it held neutral, and the
    effect it assumed for each other direct callee. *)
type solved = {
  cfg : Kir.Cfg.t;
  bodies : instr array array;
  base : int array;
  sol : t Dataflow.solution;
  states : t array;
  seen_blocks : block list;
  seen_bodies : instr list array;
  seen_terms : terminator array;
  seen_neutral : string -> bool;
  assumed : (string * call_effect) list;
}

(* the effect [ctx] gives each direct callee of [bodies] it does not
   hold neutral, once per callee *)
let assumed_effects ctx bodies =
  Array.fold_left
    (Array.fold_left (fun acc i ->
         match i with
         | Call { callee; _ }
           when (not (ctx.neutral callee))
                && not (List.exists (fun (c, _) -> String.equal c callee) acc) ->
           (callee, ctx.call_effect callee) :: acc
         | _ -> acc))
    [] bodies

(** Solve [f] under [ctx]. Raises {!Dataflow.Diverged} only for a
    broken domain. *)
let solve ctx (f : func) : solved =
  let cfg = Kir.Cfg.of_func f in
  let blocks = cfg.Kir.Cfg.blocks in
  let bodies = Array.map (fun b -> Array.of_list b.body) blocks in
  let base = Array.make (Int.max (Array.length bodies) 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i body ->
      base.(i) <- !total;
      total := !total + Array.length body)
    bodies;
  (* the solver transfers a block right after each change of its
     in-state, so the states the last transfer of each block records are
     the ones its final in-state leads to *)
  let states = Array.make !total { env = Env.empty; facts = SvMap.empty } in
  let transfer ~block t =
    let body = bodies.(block) and t = ref t in
    for k = 0 to Array.length body - 1 do
      let iid = base.(block) + k in
      states.(iid) <- !t;
      t := transfer_instr ctx ~iid !t body.(k)
    done;
    !t
  in
  let domain = { Dataflow.entry = entry_of_params f.params; equal; join; transfer } in
  {
    cfg;
    bodies;
    base;
    sol = Dataflow.solve domain cfg;
    states;
    seen_blocks = f.blocks;
    seen_bodies = Array.map (fun b -> b.body) blocks;
    seen_terms = Array.map (fun b -> b.term) blocks;
    seen_neutral = ctx.neutral;
    assumed = assumed_effects ctx bodies;
  }

let equal_effect a b =
  a == b
  || Bool.equal a.ce_kills b.ce_kills
     && List.equal String.equal a.ce_params b.ce_params
     && (a.ce_adds == b.ce_adds
        || List.equal
             (fun (c, lo, hi, fl) (c', lo', hi', fl') ->
               Int.equal lo lo' && Int.equal hi hi' && Int.equal fl fl' && equal_sv c c')
             a.ce_adds b.ce_adds)

(** Is [s] what {!solve} would compute for [f] under [ctx] now? It is
    when [f] is the function [s] solved, with the same block list and
    every block's body and terminator physically the ones [s] read, and
    [ctx] holds the same callees neutral and gives every other direct
    callee the effect [s] assumed: the solve reads nothing else, and KIR
    instructions and terminators are immutable, so it would repeat
    itself fact for fact. *)
let reusable ctx (f : func) (s : solved) =
  s.cfg.Kir.Cfg.func == f
  && ctx.neutral == s.seen_neutral
  && f.blocks == s.seen_blocks
  && (let same = ref true in
      Array.iteri
        (fun i b ->
          if b.body != s.seen_bodies.(i) || b.term != s.seen_terms.(i) then same := false)
        s.cfg.Kir.Cfg.blocks;
      !same)
  && List.for_all (fun (c, e) -> equal_effect (ctx.call_effect c) e) s.assumed

(** The states at the end of each reachable return block, in block
    order. *)
let rets (s : solved) : t list =
  List.filter_map
    (fun i ->
      match ((Kir.Cfg.block s.cfg i).term, s.sol.Dataflow.block_out.(i)) with
      | Ret _, Some t -> Some t
      | _ -> None)
    (List.init (Kir.Cfg.n_blocks s.cfg) Fun.id)

(* -- queries ------------------------------------------------------- *)

(** Is the access [sv]/[size]/[flags] covered? Returns the proving fact
    so callers can credit its origin guards as used.

    [bounds] (default: no answer) gives inclusive integer bounds for a
    symbolic index value — {!Range.bounds_at} partially applied to the
    access's block. With it, a variable-index access
    [base + idx*scale] whose index is provably in [\[lo, hi\]] is
    covered by a fact on [base] spanning the whole footprint
    [\[lo*scale, hi*scale + size)] — how one widened pre-header guard
    proves every iteration of a counted loop. *)
let covering_fact ?(bounds = fun (_ : sv) -> None) t sv ~size ~flags :
    fact option =
  let core, off = base_off sv in
  let direct =
    match SvMap.find_opt core t.facts with
    | None -> None
    | Some l ->
      List.find_opt
        (fun f -> f.lo <= off && off + size <= f.hi && flags land f.flags = flags)
        l
  in
  match direct with
  | Some _ -> direct
  | None -> (
    match core with
    | S_gep (b, idx, scale) when scale > 0 -> (
      match bounds idx with
      | Some (ilo, ihi) when ilo <= ihi -> (
        let bcore, boff = base_off b in
        let need =
          Option.bind (Cert_format.add boff off) (fun off ->
              Cert_format.span ~lo:ilo ~hi:ihi ~scale ~off size)
        in
        match (need, SvMap.find_opt bcore t.facts) with
        | Some (need_lo, need_hi), Some l ->
          List.find_opt
            (fun f ->
              f.lo <= need_lo && need_hi <= f.hi
              && flags land f.flags = flags)
            l
        | _ -> None)
      | _ -> None)
    | _ -> None)
