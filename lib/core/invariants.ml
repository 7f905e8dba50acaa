(** The standing invariants a run must keep. The paper's guarantee is
    that an access the policy denies never goes through (§3.1), so a run
    counts only if no fast tier allowed what the live policy denies, no
    send failed, and every offered frame is accounted for. Each check
    returns the invariants a run broke, [[]] for a correct run; bench
    gates, CLIs, suites and tests read them here instead of re-deriving
    them. *)

type layer = Engine | Domains

type broken =
  | Stale_allows of { layer : layer; count : int }
      (** a fast tier allowed what the live policy denies *)
  | Guard_denied of { count : int; addr : int; size : int; flags : int }
      (** [count] guard denials recorded; the access is the first one's *)
  | Send_errors of int  (** failed sends or refused policy writes *)
  | Frames_unaccounted of { delivered : int; dropped : int; offered : int }
  | Latency_samples of { samples : int; delivered : int }

let to_string = function
  | Stale_allows { layer; count } ->
    Printf.sprintf "%d stale allows (%s)" count
      (match layer with Engine -> "engine" | Domains -> "domains")
  | Guard_denied { count; addr; size; flags } ->
    Printf.sprintf "%d guard denials, first: flags %d, %d bytes at 0x%x" count
      flags size addr
  | Send_errors n -> Printf.sprintf "%d failed sends or policy writes" n
  | Frames_unaccounted { delivered; dropped; offered } ->
    Printf.sprintf "%d delivered + %d dropped <> %d offered frames" delivered
      dropped offered
  | Latency_samples { samples; delivered } ->
    Printf.sprintf "%d latency samples for %d delivered frames" samples
      delivered

(* [b] when the invariant [ok] does not hold *)
let unless ok b = if ok then [] else [ b ]

let stale layer count = unless (count = 0) (Stale_allows { layer; count })

(** The domain layer's stale allows, for a bare {!Policy.Domain.t}. *)
let domains dm = stale Domains (Policy.Domain.stale_allows dm)

(** Both layers' stale allows over [pm]'s life. *)
let stale_allows pm =
  stale Engine (Policy.Engine.stale_allows (Policy.Policy_module.engine pm))
  @ Option.fold ~none:[] ~some:domains (Policy.Policy_module.domains pm)

(** A policy module over its life: no stale allow in either layer and no
    guard denial. *)
let policy_module pm =
  stale_allows pm
  @
  match List.rev (Policy.Policy_module.violations pm) with
  | [] -> []
  | ((addr, size, flags) :: _) as all ->
    [ Guard_denied { count = List.length all; addr; size; flags } ]

(** One SMP run: no stale allow, no failed send, delivered + dropped =
    offered, and one latency sample per delivered frame. *)
let duplex (r : Smp_testbed.duplex_result) =
  let delivered = r.d_rx_frames and dropped = r.d_rx_dropped
  and offered = r.d_injected and samples = Array.length r.d_latencies in
  stale Engine r.d_stale_allows
  @ unless (r.d_send_errors = 0) (Send_errors r.d_send_errors)
  @ unless (delivered + dropped = offered)
      (Frames_unaccounted { delivered; dropped; offered })
  @ unless (samples = delivered) (Latency_samples { samples; delivered })

(** Print each broken invariant on stderr, prefixed by [prog]: the exit
    code is 1 if any, else 0. *)
let exit_code ~prog broken =
  List.iter (fun b -> Printf.eprintf "%s: %s\n" prog (to_string b)) broken;
  if broken = [] then 0 else 1
