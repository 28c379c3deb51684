(** A stack of idle, equally sized I/O buffers.

    Write-back snapshots a run of cache frames into one buffer and hands
    it to {!Access.write_pages_result}.  Taking it from a pool instead of
    allocating it saves one multi-page major-heap allocation per I/O.

    The caller owns a taken buffer until it gives it back, and must keep
    it until the device no longer reads it.  A device copies the source
    only when its service time has passed, so give the buffer back after
    the write call returns, never before.  A buffer that is never given
    back (say, because an exception unwound past the write) is simply
    collected; the pool allocates a fresh one on the next [take]. *)

type t

val create : pages:int -> t
(** [create ~pages] makes an empty pool of [pages]-page buffers.  Raises
    [Invalid_argument] unless [pages > 0]. *)

val take : t -> Bytes.t
(** [take t] pops an idle buffer, or allocates one when none is idle.
    Its contents are unspecified. *)

val give : t -> Bytes.t -> unit
(** [give t b] returns [b], taken from [t], for reuse. *)
