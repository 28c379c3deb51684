(** Queueing model for block storage devices.

    A device has a number of parallel channels (its internal queue/NAND
    parallelism), a per-request setup latency, and a per-byte transfer
    cost per channel.  Requests admit FIFO onto a free channel and occupy
    it for [setup + len * per_byte] cycles, which yields the device's
    latency, IOPS and bandwidth envelope simultaneously.

    Time spent waiting for the device is charged to the calling fiber as
    idle time by default, or as [Sys] CPU time when [polling] (SPDK-style
    completion polling burns the CPU). *)

type t

val create :
  name:string ->
  channels:int ->
  setup_cycles:int64 ->
  cycles_per_byte:float ->
  capacity_bytes:int64 ->
  unit ->
  t

val name : t -> string
val store : t -> Pagestore.t
val capacity_bytes : t -> int64

val service_time : t -> len:int -> int64
(** [service_time t ~len] is the channel occupancy for one request,
    excluding queueing. *)

val read_result :
  ?polling:bool -> t -> page:int -> count:int -> into:(int -> Bytes.t -> unit) ->
  (unit, Fault.error) result
(** [read_result t ~page ~count ~into] performs a blocking read of device
    pages [page .. page+count-1]: queues for a channel, waits the service
    time, then lands each page by calling [into i b] (see
    {!Pagestore.read_pages}).  Must run inside a fiber.  An injected
    failure is reported as [Error] and lands nothing.  The channel
    occupancy (and any injected latency spike) is charged either way —
    the device took the time before reporting the error. *)

val write_result :
  ?polling:bool -> t -> addr:int64 -> src:Bytes.t -> src_off:int -> len:int ->
  (unit, Fault.error) result
(** [write_result t ~addr ~src ~src_off ~len] performs a blocking write
    of [len] bytes of [src] from [src_off] at byte [addr].  Store bytes are only mutated after the
    service time completes, so writes are all-or-nothing under a crash;
    a torn-write injection persists a page-aligned prefix of the span
    and reports [Error Transient]. *)

val reads : t -> int
val writes : t -> int
(** Completed I/Os: the instance's registry cells. *)

val bytes_read : t -> int64
val bytes_written : t -> int64

(** {1 Fault counters} — injected by the active {!Fault} plan. *)

val read_errors : t -> int
val write_errors : t -> int
(** Failed I/Os (completed reads/writes are counted by {!reads}/{!writes}
    only on success). *)

val torn_writes : t -> int
(** Writes that persisted only a prefix (a subset of {!write_errors}). *)

val latency_spikes : t -> int
(** The instance's registry cell. *)

val queued_cycles : t -> int64
(** Total cycles requests spent queueing behind busy channels. *)
