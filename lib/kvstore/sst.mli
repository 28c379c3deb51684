(** Static sorted table (SST) — RocksDB's on-device file format, scaled.

    Layout (page-aligned): data blocks of 4 KiB holding
    [u16 klen | u32 vlen | key | value] records, followed by an index area
    (first key of every block) and a serialized bloom filter.  The page
    layout and key range live in memory (the manifest).  As in RocksDB,
    the parsed filter and index stay resident once the first get has read
    them; they are parsed from the bytes that read returned, not from
    [build]'s input.  Every get still reads the filter, index and data
    {e through the environment}, at the same offsets and in the same
    order, and is charged for (and may fail on) those reads, so the cost
    of metadata access follows the configured I/O path, as it does in each
    of the paper's setups.  Block buffers are reused per SST, and a get
    searches its block in place, copying out only the value found. *)

type t

val build : Env.t -> name:string -> (string * string) list -> t
(** [build env ~name records] writes a new SST from ascending-key,
    duplicate-free [records].  Must run inside a fiber. *)

val first_key : t -> string
val last_key : t -> string
val nrecords : t -> int
val data_pages : t -> int
val total_pages : t -> int

val get : t -> string -> string option
(** Point lookup through filter → index → data block.  Charges compute
    under ["kv_get"*] labels; I/O is charged by the environment. *)

val iter_from : t -> start:string -> f:(string -> string -> bool) -> unit
(** [iter_from t ~start ~f] visits records with key ≥ [start] in order
    until [f] returns [false]. *)

val locate_start_block : t -> string -> int
(** [locate_start_block t key] is the data block that may contain [key]
    (for streaming cursors); reads the index through the environment. *)

val read_block_records : t -> int -> (string * string) list
(** [read_block_records t b] reads data block [b] and returns its records
    in order.  [b] must be in [\[0, data_pages)]. *)

val delete : t -> unit
