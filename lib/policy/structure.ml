(** What every policy region structure's lookup answers, and the error
    [add] returns when a structure is full.

    Every implementation stores its entries in *simulated kernel memory*
    and probes them through {!Kernel.read}/{!Kernel.write}, so the cost
    of a lookup is mechanistic (§3.1/§4.2): the linear table is
    prefetch-friendly and branch-predictable, binary search has
    data-dependent branches, the trees chase pointers, the Bloom filter
    scatters probes. *)

type outcome = {
  matched : Region.t option;  (** first region containing the range *)
  scanned : int;  (** entries (or nodes/probes) examined *)
}

(** The message every structure's [add] returns when it is full; the
    ioctl layer answers [-ENOSPC]. *)
let capacity_error capacity =
  Printf.sprintf "policy table full (%d regions)" capacity
