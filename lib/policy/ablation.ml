(** The region structures §3.1 and §4.2 weigh against the paper's linear
    table — sorted binary search, a splay tree, a red-black tree, an
    interval tree, an AMQ (Bloom) front-end and a last-hit cache — for
    the policy-structure ablations only. The live guard always walks the
    linear table ({!Engine}).

    A structure is built once from a region list and then only probed.
    Each probe is charged through {!Engine.walk}, the engine's own
    prologue, lookup and permission branch, so an ablation row and the
    engine's exact check share one cost model: a [Linear] row costs
    exactly what {!Engine.check} costs on the same policy. *)

type kind = Linear | Sorted | Splay | Rbtree | Itree | Bloom | Cached

let all = [ Linear; Sorted; Splay; Rbtree; Itree; Bloom; Cached ]

let to_string = function
  | Linear -> "linear"
  | Sorted -> "sorted"
  | Splay -> "splay"
  | Rbtree -> "rbtree"
  | Itree -> "interval"
  | Bloom -> "bloom+linear"
  | Cached -> "cached+linear"

type t = {
  machine : Machine.Model.t;
  lookup : addr:int -> size:int -> Structure.outcome;
      (** the built structure's own lookup *)
  stats : Engine.stats;
}

(** Build a [kind] structure holding [rs], in order. [Error] when it
    cannot: over [capacity], or an overlap the sorted table, splay tree
    or red-black tree cannot represent. *)
let build ?(capacity = Linear_table.default_capacity) kernel kind rs =
  let make create add lookup =
    let s = create kernel ~capacity in
    let rec go = function
      | [] ->
        Ok
          {
            machine = Kernel.machine kernel;
            lookup = lookup s;
            stats =
              { Engine.checks = 0; allowed = 0; denied = 0; entries_scanned = 0 };
          }
      | r :: rest -> ( match add s r with Ok () -> go rest | Error _ as e -> e)
    in
    go rs
  in
  match kind with
  | Linear -> make Linear_table.create Linear_table.add Linear_table.lookup
  | Sorted -> make Sorted_table.create Sorted_table.add Sorted_table.lookup
  | Splay -> make Splay_tree.create Splay_tree.add Splay_tree.lookup
  | Rbtree -> make Rb_tree.create Rb_tree.add Rb_tree.lookup
  | Itree -> make Interval_tree.create Interval_tree.add Interval_tree.lookup
  | Bloom -> make Bloom_front.create Bloom_front.add Bloom_front.lookup
  | Cached -> make Lookup_cache.create Lookup_cache.add Lookup_cache.lookup

(** One default-deny check, charged like {!Engine.check}. *)
let check t ~addr ~size ~flags : Engine.verdict =
  (* [t.lookup] is already applied to its structure *)
  let out =
    Engine.walk t.machine t.stats ~default_allow:false Fun.id t.lookup ~addr
      ~size ~flags
  in
  match out.Structure.matched with
  | Some r when Region.permits r ~flags -> Allowed out.Structure.matched
  | m -> Denied m

let stats t = t.stats
