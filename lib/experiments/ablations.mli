(** Ablations of the design choices DESIGN.md §5 calls out, each printing
    one table via {!Sim.Sink}.  The replacement-policy ablation lives in
    {!Policy_ablation}. *)

val tlb_and_batching : unit -> unit
(** Posted IPIs, per-page eviction and an unbatched freelist against the
    default stack: microbenchmark, 16 threads, out-of-memory, 30% writes. *)

val memcpy : unit -> unit
(** AVX2 streaming copy vs a scalar copy, as DAX-pmem cycles per fault. *)

val readahead : unit -> unit
(** [MADV_RANDOM] vs [MADV_SEQUENTIAL] on a 3000-page sequential NVMe scan. *)

val uring : unit -> unit
(** io_uring as the miss-path access method, against SPDK and synchronous
    host I/O (the paper's future work). *)
