(** Explicit [read]/[write] syscall I/O (the user-space-cache baseline's
    device path).

    Two modes, as in the paper's RocksDB configurations:
    - {b direct}: [O_DIRECT] — a syscall plus the kernel block layer plus
      the device, bypassing the page cache.  This is what RocksDB's
      recommended configuration uses underneath its user-space cache.
    - {b buffered}: through the shared {!Page_cache} (syscall + lookup or
      fill + copy-to-user). *)

type fd

val open_direct :
  costs:Hw.Costs.t ->
  access:Sdevice.Access.t ->
  translate:(int -> int option) ->
  size_pages:int ->
  fd
(** [open_direct ~costs ~access ~translate ~size_pages] wraps a file for
    direct I/O.  [access] should be a host path ([From_user] entry) so the
    syscall cost is charged per request. *)

val open_buffered : pc:Page_cache.t -> file_id:int -> size_pages:int -> fd
(** Buffered I/O through an existing page cache in which [file_id] is
    registered. *)

val size_pages : fd -> int

val pread : fd -> off:int -> len:int -> dst:Bytes.t -> unit
(** [pread fd ~off ~len ~dst] reads file bytes [\[off, off+len)].  Direct
    mode rounds to page-aligned device requests, as [O_DIRECT] requires;
    [len = 0] issues none.  Must run inside a fiber. *)

val pwrite : fd -> off:int -> src:Bytes.t -> unit

val reads : fd -> int
val writes : fd -> int
