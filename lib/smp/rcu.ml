(** SMP policy writes: the mutation route {!attach} installs on the
    policy module when a system has more than one CPU.

    Every mutation is applied by {!Policy.Policy_module.apply_in_place},
    exactly as on one CPU: the whole mutation is validated, the live
    table is edited in place, and an epoch bump ends it. That is safe
    under the simulation's concurrency for three reasons:

    + the scheduler runs each ioctl as one operation, so no other CPU
      reads the table between the first edit and the epoch bump;
    + every inline-cache slot checks the engine epoch before it answers,
      so no CPU's cached span outlives the write;
    + context switches put CPU slices in a total order, which the race
      detector models as its scheduler token.

    The route adds bookkeeping around that call. Each accepted table
    mutation counts as one publication, retired on the spot as
    {!Policy.Domain} does: no superseded table is left to free. With a
    race detector attached, it also records the write grant the mutation
    revoked and one ordered interval write over the table. The module
    keeps its name because the benchmark reads {!stats}. *)

type stats = {
  mutable publications : int;  (** accepted table mutations *)
  mutable retired : int;  (** always equal to [publications] *)
  mutable ipis_taken : int;  (** always 0: there is no IPI shootdown *)
  mutable ipi_cycles : int;  (** always 0: there is no IPI shootdown *)
  mutable grace_quiescents : int;  (** always 0: there is no grace period *)
}

type t = {
  engine : Policy.Engine.t;
  pm : Policy.Policy_module.t;
  stats : stats;
  mutable race : Sanitizer.Race.t option;
      (** happens-before detector; each policy write records its events
          here when attached *)
}

let create pm =
  {
    engine = Policy.Policy_module.engine pm;
    pm;
    stats =
      {
        publications = 0;
        retired = 0;
        ipis_taken = 0;
        ipi_cycles = 0;
        grace_quiescents = 0;
      };
    race = None;
  }

let stats t = t.stats
let set_race t det = t.race <- det

(* [base, limit) ranges a region list grants write access to *)
let write_ranges rs =
  List.filter_map
    (fun (r : Policy.Region.t) ->
      if r.prot land Policy.Region.prot_write <> 0 then
        Some (r.base, r.base + r.len)
      else None)
    rs

(* portions of [lo, hi) not covered by any range in [covers] *)
let rec subtract (lo, hi) covers =
  if lo >= hi then []
  else
    match
      List.filter (fun (clo, chi) -> clo < hi && lo < chi) covers
    with
    | [] -> [ (lo, hi) ]
    | (clo, chi) :: _ ->
      subtract (lo, min hi clo) covers @ subtract (max lo chi, hi) covers

(* The detector's view of one policy write: write coverage it lost
   becomes a revocation window, coverage it grants clears stale windows,
   and the rewrite of the table is one interval write with the writer's
   clock. *)
let note_write t det ~old_regions =
  let new_w = write_ranges (Policy.Engine.regions t.engine) in
  List.iter
    (fun r ->
      List.iter
        (fun (lo, hi) -> Sanitizer.Race.revoke det ~lo ~hi ~site:"policy-write")
        (subtract r new_w))
    (write_ranges old_regions);
  List.iter (fun (lo, hi) -> Sanitizer.Race.grant det ~lo ~hi) new_w;
  let base, len = Policy.Engine.table_region t.engine in
  Sanitizer.Race.sync_write det ~lo:base ~hi:(base + len) ~site:"policy-write"

(** The {!Policy.Policy_module.mutation} route {!attach} installs. A mode
    change is a scalar, not a table write, so it publishes nothing. *)
let apply t (m : Policy.Policy_module.mutation) : int =
  let old_regions = Policy.Engine.regions t.engine in
  let rc = Policy.Policy_module.apply_in_place t.pm m in
  (match m with
  | M_set_mode _ -> ()
  | _ when rc <> 0 -> ()
  | _ ->
    t.stats.publications <- t.stats.publications + 1;
    t.stats.retired <- t.stats.retired + 1;
    Option.iter (fun det -> note_write t det ~old_regions) t.race);
  rc

(** Route all of [pm]'s ioctl mutations through {!apply}. *)
let attach t = Policy.Policy_module.set_mutator t.pm (Some (apply t))
