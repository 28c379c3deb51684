(** Structure-of-arrays 4-ary min-heap keyed by [(time, sequence)] pairs.

    Used by the discrete-event engine to order pending events.  Ties on
    [time] are broken by the monotonically increasing sequence number, which
    makes event ordering — and therefore every simulation — deterministic.

    Times are plain native [int] cycles (virtual time fits in 62 bits), so
    pushes and pops touch no boxed values and allocate nothing. *)

type 'a t
(** A mutable priority queue holding values of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is an empty queue. *)

val length : 'a t -> int
(** [length q] is the number of queued elements. *)

val is_empty : 'a t -> bool
(** [is_empty q] is [length q = 0]. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push q ~time ~seq v] inserts [v] with priority [(time, seq)]. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop q] removes and returns the element with the smallest
    [(time, seq)] key, or [None] if the queue is empty. *)

val min_time : 'a t -> int
(** [min_time q] is the key time of the head, or [max_int] when empty.
    Allocation-free, for hot-path comparisons. *)

val pop_min : 'a t -> 'a
(** [pop_min q] removes the head and returns its payload only (no tuple
    allocation).  Raises [Invalid_argument] on an empty queue; pair with
    {!is_empty} or {!min_time}. *)

val peek_payload : 'a t -> 'a
(** [peek_payload q] is the head's payload without removing it.  Raises
    [Invalid_argument] on an empty queue. *)

type 'a slot = { mutable s_time : int; mutable s_seq : int; mutable s_val : 'a }
(** Caller-owned out-cell for {!pop_into}: reusing one slot across a
    drain loop makes each pop three plain stores, with no option or
    tuple boxed per event. *)

val slot : dummy:'a -> 'a slot
(** [slot ~dummy] is a fresh slot; [dummy] seeds [s_val] until the first
    successful {!pop_into}. *)

val pop_into : 'a t -> 'a slot -> bool
(** [pop_into q out] pops the head into [out] and returns [true], or
    returns [false] when the queue is empty.  The allocation-free
    primitive behind the engine's drain loop; {!pop} is its boxing
    counterpart. *)

val peek_time : 'a t -> int option
(** [peek_time q] is the key time of the next element without removing it. *)
