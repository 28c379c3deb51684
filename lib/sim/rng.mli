(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [Rng.t]
    so that simulations replay bit-for-bit given the same seed.  [split]
    derives independent streams, used to give each simulated thread its own
    generator without cross-thread ordering effects.

    Draws allocate nothing.  The state is kept unboxed, so [int] and
    [bool] never allocate; [next64], [int64] and [float] are inlined
    wherever the build allows cross-module inlining, and otherwise (dune's
    [-opaque] dev profile) allocate just the box of their result.  Each
    generator owns its state, so generators on different domains are
    independent. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] is a fresh generator seeded with [seed]. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator by
    consuming one output of [t]. *)

val next64 : t -> int64
(** [next64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int64 : t -> int64 -> int64
(** [int64 t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)
