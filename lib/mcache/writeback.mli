(** Merged write-back of dirty cache pages, shared by Aquila's DRAM cache
    and the Linux page cache.

    Both caches write dirty pages back the same way (Section 3.2): in
    ascending (file, page) order, with each run of device-contiguous
    pages of one file merged into a single write of at most
    {!merge_pages} pages.  Each run is snapshotted into a pooled buffer
    just before its write is issued, so a store that lands while the I/O
    is in flight does not reach the device. *)

type t

val merge_pages : int
(** The most pages one write-back I/O carries (64). *)

val create : unit -> t
(** [create ()] makes a writer with its own idle snapshot buffers. *)

val write :
  t ->
  access:(int -> Sdevice.Access.t) ->
  translate:(int -> int -> int option) ->
  key:('a -> Pagekey.t) ->
  data:('a -> Bytes.t) ->
  on_io:(int -> unit) ->
  'a list ->
  int * ('a * Fault.error) list
(** [write t ~access ~translate ~key ~data ~on_io items] writes the page
    [data i] of every item [i] to the device page [translate file page]
    of its key, through [access file].  Items that translate to [None]
    (past end of file) are skipped.  Runs are issued one after another,
    in key order; [on_io count] runs after each successful write of
    [count] pages, before the next write is issued.  A failed run (after
    the access layer's retries) emits a ["wb_error"] trace instant.
    Suspends; must run inside a fiber.

    Returns the number of items translated and the items of every failed
    run, in key order, each with its run's error. *)
