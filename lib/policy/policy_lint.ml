(** Static lints over operator policy files — the [policy_manager lint]
    and [kop_lint policy] backend.

    First-match-wins region tables fail in quiet ways: a later rule can
    be fully shadowed by earlier ones, a table can outgrow the linear
    table the kernel module actually allocates, and in a named domain
    page-straddling regions silently bypass the domain's sharded page
    shadow. These lints surface each case before the policy is pushed.

    Codes ([E-] prefixed findings are errors, [W-] warnings):
    - [E-capacity]: more regions than the target table can hold (the
      linear table for the root policy, the interval tier's ceiling for
      a named domain); the push/install ioctl would refuse the table;
    - [W-fastpath]: a named domain's policy exceeds the linear fast path
      and will be promoted to the interval tier;
    - [E-shadowed]: a region fully covered by earlier regions — it can
      never match, so its protection is dead;
    - [W-dup-base]: two regions share a base address (the later is at
      least partially dead);
    - [W-overlap]: a partial overlap where the overlapping bytes get
      different protections from the two rules — order-sensitive, a
      classic operator mistake;
    - [W-write-only]: write-without-read protection; almost always a
      typo for [rw] (hardware-style write-only windows are rare);
    - [W-straddle] (named domains only): a region boundary not aligned
      to the page size — the domain shadow cannot cache any page it
      partially covers, so checks there take the exact walk;
    - [W-shadow-invisible] (named domains only): a region so small (and
      so placed) that it fully contains no page, so the domain shadow
      can never serve it.

    The root policy has no page-granular cache (its fast tier is the
    per-site span inline cache), so the last two lints do not apply to
    it. *)

type severity = Err | Warn

let severity_to_string = function Err -> "error" | Warn -> "warning"

type finding = {
  severity : severity;
  code : string;
  region : int;  (** index in the policy file, -1 for table-wide *)
  message : string;
}

let finding_to_string f =
  let where = if f.region < 0 then "" else Printf.sprintf " region %d:" f.region in
  Printf.sprintf "%s[%s]%s %s" (severity_to_string f.severity) f.code where
    f.message

(** Subtract [cover] from the interval list [ivals] (byte ranges as
    [(lo, hi)] pairs). *)
let subtract_interval ivals (clo, chi) =
  List.concat_map
    (fun (lo, hi) ->
      if chi <= lo || hi <= clo then [ (lo, hi) ]
      else
        (if lo < clo then [ (lo, clo) ] else [])
        @ if chi < hi then [ (chi, hi) ] else [])
    ivals

let page_size = Kernel.Memory.page_size

let lint (t : Policy_file.t) : finding list =
  let out = ref [] in
  let push severity code region fmt =
    Printf.ksprintf
      (fun message -> out := { severity; code; region; message } :: !out)
      fmt
  in
  let regions = Array.of_list t.Policy_file.regions in
  let n = Array.length regions in
  let domained = t.Policy_file.domain <> "" in
  (* capacity is per-domain: a root policy lives in the fixed linear
     table, while a named domain auto-promotes to the interval tier past
     the fast path — so the hard limit differs, and crossing the fast
     path is worth a warning rather than an error *)
  if domained then begin
    if n > Domain.default_big_capacity then
      push Err "E-capacity" (-1)
        "%d regions exceed domain '%s' capacity (%d); the install ioctl \
         would refuse this policy with -ENOSPC"
        n t.Policy_file.domain Domain.default_big_capacity
    else if n > Linear_table.default_capacity then
      push Warn "W-fastpath" (-1)
        "%d regions push domain '%s' past the %d-entry linear fast path; \
         the domain will be promoted to the interval tier"
        n t.Policy_file.domain Linear_table.default_capacity
  end
  else if n > Linear_table.default_capacity then
    push Err "E-capacity" (-1)
      "%d regions exceed the kernel module's table capacity (%d); the push \
       ioctl would refuse this policy"
      n Linear_table.default_capacity;
  Array.iteri
    (fun i (r : Region.t) ->
      let rlim = Region.limit r in
      (* dead-rule analysis: does anything of [r] survive the earlier,
         higher-priority regions? *)
      let residue = ref [ (r.Region.base, rlim) ] in
      for j = 0 to i - 1 do
        let e = regions.(j) in
        residue := subtract_interval !residue (e.Region.base, Region.limit e)
      done;
      if !residue = [] && i > 0 then
        push Err "E-shadowed" i
          "region %s is fully shadowed by earlier regions; it can never match"
          (Region.to_string r)
      else begin
        for j = 0 to i - 1 do
          let e = regions.(j) in
          if e.Region.base = r.Region.base then
            push Warn "W-dup-base" i
              "region %s shares its base with higher-priority region %d"
              (Region.to_string r) j
          else if Region.overlaps e r && e.Region.prot <> r.Region.prot then
            push Warn "W-overlap" i
              "region %s partially overlaps region %d (%s) with different \
               protection; first match wins on the overlap"
              (Region.to_string r) j (Region.to_string e)
        done
      end;
      if r.Region.prot = Region.prot_write then
        push Warn "W-write-only" i
          "region %s is write-only; guards for reads in this range will be \
           denied (did you mean rw?)"
          (Region.to_string r);
      (* domain-shadow visibility: a page must lie fully inside the
         region for the domain shadow to cache it *)
      if domained then begin
        let first_page = (r.Region.base + page_size - 1) / page_size in
        let last_page = rlim / page_size in
        if first_page >= last_page then
          push Warn "W-shadow-invisible" i
            "region %s fully contains no %d-byte page; the page shadow of \
             domain '%s' can never serve it"
            (Region.to_string r) page_size t.Policy_file.domain
        else if r.Region.base mod page_size <> 0 || rlim mod page_size <> 0
        then
          push Warn "W-straddle" i
            "region %s is not page-aligned; the page shadow of domain '%s' \
             cannot cache the pages straddling its boundary, so checks there \
             take the exact walk"
            (Region.to_string r) t.Policy_file.domain
      end)
    regions;
  List.rev !out

let errors fs = List.filter (fun f -> f.severity = Err) fs
let warnings fs = List.filter (fun f -> f.severity = Warn) fs
