(** Real byte-addressed backing store for simulated devices.

    Pages are allocated lazily and unwritten bytes read as zero, so a
    device the size of the paper's 375 GB SSD costs memory only for pages
    actually touched.  Stores hold {e real data}: the key-value stores and
    graph runs built on top are functionally correct, not just cost
    models. *)

type t

val create : unit -> t

val read_bytes : t -> addr:int64 -> len:int -> dst:Bytes.t -> dst_off:int -> unit
(** [read_bytes t ~addr ~len ~dst ~dst_off] copies [len] bytes starting at
    device byte [addr] into [dst], crossing page boundaries as needed. *)

val write_bytes : t -> addr:int64 -> src:Bytes.t -> src_off:int -> len:int -> unit

val read_page : t -> page:int -> dst:Bytes.t -> unit
(** [read_page t ~page ~dst] copies one full page; [dst] must hold at least
    {!Hw.Defs.page_size} bytes. *)

val write_page : t -> page:int -> src:Bytes.t -> unit

val allocated_pages : t -> int
(** Number of pages that have been materialized. *)

val digest : t -> Digest.t
(** Digest of the stored bytes: every materialized page that is not all
    zero, with its page number, in page order.  Pages never written and
    pages written with zeros digest alike, so the digest depends only on
    what a read would return. *)
