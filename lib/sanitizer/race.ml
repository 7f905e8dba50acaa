(** Happens-before race detection over the deterministic SMP simulation.

    Each CPU carries a {!Vclock} component; one extra *detached*
    component stands in for injected writers (fault fixtures corrupting
    state behind everyone's back) that participate in no synchronization
    protocol. Sync edges mirror the kernel's real ordering machinery:

    - scheduler context switch: the outgoing CPU releases and the
      incoming CPU acquires a global scheduler token — slices on the
      deterministic round-robin are totally ordered, which is exactly
      why the *kernel-side* paths are race-free by construction;
    - policy write: the writer records the revoked write coverage (old
      grant minus new grant) as a revocation window, and its in-place
      rewrite of the table as an ordered interval write ({!sync_write}),
      which by the last-write rule supersedes every earlier interval
      write it covers.

    Two conflict classes surface as reports:

    - [Stale_window]: a module-context access lands inside a window
      another CPU revoked. The module synchronizes with nobody, so no
      happens-before path orders its store against the revocation — the
      seeded cross-CPU race class. Clean workloads never touch revoked
      ranges (their guards would deny), so they stay silent.
    - [Unsynced]: an access overlaps an interval write whose clock is
      not ordered before the accessing CPU's — e.g. a fixture corrupting
      the live policy table (detached component) racing the guard path's
      table reads. A policy write carries the writing CPU's clock, which
      the scheduler token orders before every later slice: no report. *)

type kind = Stale_window | Unsynced

let kind_to_string = function
  | Stale_window -> "stale-window"
  | Unsynced -> "unsynced"

type report = {
  r_kind : kind;
  r_addr : int;
  r_size : int;
  r_cpu : int;  (** CPU of the flagged access *)
  r_site : string;  (** flagged access's context (module / guard path) *)
  r_other_cpu : int;  (** conflicting writer's CPU (ncpus = detached) *)
  r_other_site : string;
  r_write : bool;  (** the flagged access was a write *)
}

type iwrite = {
  w_lo : int;
  w_hi : int;  (** [w_lo, w_hi) *)
  w_cpu : int;
  w_site : string;
  w_clock : Vclock.t;
}

type revocation = {
  rv_lo : int;
  rv_hi : int;
  rv_cpu : int;
  rv_site : string;
}

type rread = {
  rd_lo : int;
  rd_hi : int;
  rd_cpu : int;
  rd_site : string;
  rd_clock : Vclock.t;
}

type t = {
  ncpus : int;
  clocks : Vclock.t array;  (** ncpus + 1; index ncpus = detached *)
  mutable cur : int;
  sync : (string, Vclock.t) Hashtbl.t;
  mutable iwrites : iwrite list;
  mutable revoked : revocation list;
  reads : (int * int * int, rread) Hashtbl.t;
      (** latest range read per (cpu, lo, hi). Same-CPU clocks are
          monotone, so if the latest read of a range is ordered before a
          writer, every earlier one is too — keeping only the latest is
          sound and keeps the hot guard path O(1). *)
  mutable reports : report list;  (** newest first, capped *)
  mutable n_reports : int;
  mutable n_accesses : int;
  max_reports : int;
}

let create ~cpus =
  let t =
    {
      ncpus = cpus;
      clocks = Array.init (cpus + 1) (fun _ -> Vclock.create (cpus + 1));
      cur = 0;
      sync = Hashtbl.create 16;
      iwrites = [];
      revoked = [];
      reads = Hashtbl.create 64;
      reports = [];
      n_reports = 0;
      n_accesses = 0;
      max_reports = 64;
    }
  in
  (* the detached component starts ahead so its snapshots are never <=
     any real CPU's clock *)
  Vclock.tick t.clocks.(cpus) cpus;
  t

let detached t = t.ncpus
let current t = t.cur
let report_count t = t.n_reports
let reports t = List.rev t.reports
let accesses t = t.n_accesses

let push_report t r =
  t.n_reports <- t.n_reports + 1;
  if List.length t.reports < t.max_reports then t.reports <- r :: t.reports

(* --------------------------------------------------------------- *)
(* sync edges *)

let release t key =
  let c = t.clocks.(t.cur) in
  (match Hashtbl.find_opt t.sync key with
  | Some v -> Vclock.join v c
  | None -> Hashtbl.replace t.sync key (Vclock.copy c));
  Vclock.tick c t.cur

let acquire t key =
  match Hashtbl.find_opt t.sync key with
  | Some v -> Vclock.join t.clocks.(t.cur) v
  | None -> ()

(** Scheduler context switch to [cpu]: chain edge through the run queue
    token. The deterministic scheduler serializes slices, so this edge
    totally orders everything the scheduler dispatches. *)
let switch_to t cpu =
  if cpu <> t.cur then begin
    release t "sched";
    t.cur <- cpu;
    acquire t "sched"
  end

(* --------------------------------------------------------------- *)
(* interval writes (policy writes, injected corruption) *)

let overlaps lo hi lo' hi' = lo < hi' && lo' < hi

(** An interval write carrying the *current CPU's* clock (e.g. a policy
    write rewriting the table in place). Races against any recorded range
    read not ordered before it. It is the last write to every byte of
    [\[lo, hi)], so it replaces each earlier interval write lying wholly
    inside that range (FastTrack's last-write rule): a later read sees
    only what this write left. *)
let sync_write t ~lo ~hi ~site =
  let clock = Vclock.copy t.clocks.(t.cur) in
  Hashtbl.iter
    (fun _ rd ->
      if
        overlaps lo hi rd.rd_lo rd.rd_hi
        && rd.rd_cpu <> t.cur
        && not (Vclock.leq rd.rd_clock clock)
      then
        push_report t
          {
            r_kind = Unsynced;
            r_addr = max lo rd.rd_lo;
            r_size = min hi rd.rd_hi - max lo rd.rd_lo;
            r_cpu = rd.rd_cpu;
            r_site = rd.rd_site;
            r_other_cpu = t.cur;
            r_other_site = site;
            r_write = false;
          })
    t.reads;
  t.iwrites <-
    { w_lo = lo; w_hi = hi; w_cpu = t.cur; w_site = site; w_clock = clock }
    :: List.filter (fun w -> w.w_lo < lo || w.w_hi > hi) t.iwrites

(** An *unsynchronized* interval write: attributed to the detached
    component, concurrent with everything past and future. This is how
    fault fixtures inject "someone scribbled on the table behind the
    protocol's back". *)
let async_write t ~lo ~hi ~site =
  let d = detached t in
  Vclock.tick t.clocks.(d) d;
  let clock = Vclock.copy t.clocks.(d) in
  t.iwrites <- { w_lo = lo; w_hi = hi; w_cpu = d; w_site = site; w_clock = clock } :: t.iwrites

let check_iwrites t ~lo ~hi ~site ~write =
  let my = t.clocks.(t.cur) in
  List.iter
    (fun w ->
      if
        overlaps lo hi w.w_lo w.w_hi
        && w.w_cpu <> t.cur
        && not (Vclock.leq w.w_clock my)
      then
        push_report t
          {
            r_kind = Unsynced;
            r_addr = max lo w.w_lo;
            r_size = min hi w.w_hi - max lo w.w_lo;
            r_cpu = t.cur;
            r_site = site;
            r_other_cpu = w.w_cpu;
            r_other_site = w.w_site;
            r_write = write;
          })
    t.iwrites

(** A ranged read with the current CPU's clock — the guard path's table
    scan. Checked against interval writes, then recorded so a later
    unordered reclaim would be caught. *)
let range_read t ~lo ~hi ~site =
  t.n_accesses <- t.n_accesses + 1;
  if t.iwrites <> [] then check_iwrites t ~lo ~hi ~site ~write:false;
  Hashtbl.replace t.reads (t.cur, lo, hi)
    {
      rd_lo = lo;
      rd_hi = hi;
      rd_cpu = t.cur;
      rd_site = site;
      rd_clock = Vclock.copy t.clocks.(t.cur);
    }

(* --------------------------------------------------------------- *)
(* revocation windows *)

(** A policy write revoked write grant over [lo, hi): module accesses
    from other CPUs landing here race with the revocation (the module has
    no ordering against the policy writer). *)
let revoke t ~lo ~hi ~site =
  if hi > lo then
    t.revoked <- { rv_lo = lo; rv_hi = hi; rv_cpu = t.cur; rv_site = site } :: t.revoked

(** A later policy write re-granting coverage clears overlapping
    revocation windows (the range is legitimately writable again). *)
let grant t ~lo ~hi =
  t.revoked <-
    List.concat_map
      (fun rv ->
        if not (overlaps lo hi rv.rv_lo rv.rv_hi) then [ rv ]
        else
          (if rv.rv_lo < lo then [ { rv with rv_hi = lo } ] else [])
          @ if rv.rv_hi > hi then [ { rv with rv_lo = hi } ] else [])
      t.revoked

(** A module-context data access. Checked against revocation windows and
    pending interval writes. *)
let module_access t ~addr ~size ~write ~site =
  t.n_accesses <- t.n_accesses + 1;
  let hi = addr + size in
  List.iter
    (fun rv ->
      if overlaps addr hi rv.rv_lo rv.rv_hi && rv.rv_cpu <> t.cur then
        push_report t
          {
            r_kind = Stale_window;
            r_addr = addr;
            r_size = size;
            r_cpu = t.cur;
            r_site = site;
            r_other_cpu = rv.rv_cpu;
            r_other_site = rv.rv_site;
            r_write = write;
          })
    t.revoked;
  if t.iwrites <> [] then check_iwrites t ~lo:addr ~hi ~site ~write

(* --------------------------------------------------------------- *)

let format_report r =
  Printf.sprintf
    "race[%s] cpu%d %s %s of %d bytes at 0x%x vs cpu%s %s"
    (kind_to_string r.r_kind) r.r_cpu r.r_site
    (if r.r_write then "write" else "read")
    r.r_size r.r_addr
    (if r.r_other_cpu >= 0 then string_of_int r.r_other_cpu else "?")
    r.r_other_site

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "races: %d (accesses checked: %d)\n" t.n_reports
       t.n_accesses);
  List.iter
    (fun r ->
      Buffer.add_string b (format_report r);
      Buffer.add_char b '\n')
    (reports t);
  Buffer.contents b
