(** Real byte-addressed backing store for simulated devices.

    Pages are allocated lazily and unwritten bytes read as zero, so a
    device the size of the paper's 375 GB SSD costs memory only for pages
    actually touched.  Stores hold {e real data}: the key-value stores and
    graph runs built on top are functionally correct, not just cost
    models. *)

type t

val create : unit -> t

val read_pages :
  t -> page:int -> count:int -> into:(int -> Bytes.t -> unit) -> unit
(** [read_pages t ~page ~count ~into] calls [into i b] once for each
    page [page + i], in order, where [b] holds that page's
    {!Hw.Defs.page_size} bytes (a shared zero page if it was never
    written).  [b] belongs to the store: [into] copies out of it and
    never keeps or mutates it. *)

val write_bytes : t -> addr:int64 -> src:Bytes.t -> src_off:int -> len:int -> unit

val read_page : t -> page:int -> dst:Bytes.t -> unit
(** [read_page t ~page ~dst] copies one full page into [dst] (at least
    {!Hw.Defs.page_size} bytes). *)

val write_page : t -> page:int -> src:Bytes.t -> unit

val allocated_pages : t -> int
(** Number of pages that have been materialized. *)

val digest : t -> Digest.t
(** Digest of the stored bytes: every materialized page that is not all
    zero, with its page number, in page order.  Pages never written and
    pages written with zeros digest alike, so the digest depends only on
    what a read would return. *)
