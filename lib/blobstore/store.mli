(** SPDK-Blobstore-style flat namespace of blobs (Section 3.3, [60]).

    A blobstore manages the page space of one device as fixed-size
    clusters.  Blobs are identified by a unique id, can be created,
    resized and deleted at runtime, and carry extended attributes.  Blob
    pages translate to device pages through the blob's cluster list, so a
    resized blob need not be contiguous on the device.

    This is pure space management: I/O goes through the owning device's
    {!Sdevice.Access} method using the page numbers translated here. *)

type t
type blob

val create : capacity_pages:int -> ?cluster_pages:int -> unit -> t
(** [create ~capacity_pages ()] manages a device of that many pages.
    [cluster_pages] defaults to 256 (1 MiB clusters).  Free clusters
    form one list, ascending at creation; freed clusters are reused
    first. *)

val cluster_pages : t -> int
val capacity_pages : t -> int
val free_pages : t -> int

val create_blob : t -> ?name:string -> pages:int -> unit -> blob
(** [create_blob t ~pages ()] allocates a blob with room for [pages]
    pages (rounded up to whole clusters), taking clusters from the head
    of the free list.  Raises [Failure] when the store is full. *)

val open_blob : t -> int -> blob
(** [open_blob t id] finds an existing blob.  Raises [Not_found]. *)

val blob_id : blob -> int
val blob_name : blob -> string option
val blob_pages : blob -> int

val resize : t -> blob -> pages:int -> unit
(** [resize t b ~pages] grows or shrinks [b]. *)

val delete : t -> blob -> unit
(** [delete t b] returns [b]'s clusters to the free pool. *)

val set_xattr : blob -> string -> string -> unit
val get_xattr : blob -> string -> string option

val device_page : blob -> int -> int
(** [device_page b p] is the device page backing blob page [p].  Raises
    [Invalid_argument] if [p] is out of range. *)

val contiguous_run : blob -> int -> int
(** [contiguous_run b p] is the number of blob pages starting at [p] that
    are physically contiguous on the device — the largest single I/O that
    can cover them. *)

val blob_count : t -> int
