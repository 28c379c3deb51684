(** Per-core translation lookaside buffer model.

    A direct-mapped TLB over 4 KiB virtual page numbers.  Functions return
    the cycle cost of the operation instead of charging the simulation
    clock themselves; callers accumulate costs and charge them in batches
    to keep discrete-event counts low. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty TLB.  [capacity] defaults to 1536 entries
    (Haswell's combined second-level data TLB). *)

val access : t -> Costs.t -> vpn:int -> int64
(** [access t c ~vpn] looks up [vpn]; on a miss, charges a page-table walk
    and installs the translation.  Returns the cycle cost (0 on a hit). *)

val invalidate_page : t -> vpn:int -> unit
(** [invalidate_page t ~vpn] drops [vpn]'s entry if cached (the effect of a
    received shootdown; the cost is accounted by {!Ipi}). *)

val invalidate_local : t -> Costs.t -> vpn:int -> int64
(** [invalidate_local t c ~vpn] is an [invlpg] executed by the owning core:
    drops the entry and returns its cost. *)

val flush : t -> Costs.t -> int64
(** [flush t c] empties the TLB and returns the full-flush cost. *)

val hits : t -> int
val misses : t -> int
(** The instance's registry cells ([hw_tlb_hits] / [hw_tlb_misses]). *)

val invalidations : t -> int
