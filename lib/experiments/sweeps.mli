(** Sensitivity sweeps beyond the paper's fixed configurations, each
    printing one table via {!Sim.Sink}. *)

val cache_size : unit -> unit
(** Linux mmap vs Aquila random reads as the cache shrinks from 1/2 to
    1/16 of the dataset (16 threads, shared file, pmem). *)

val evict_batch : unit -> unit
(** Aquila throughput at eviction/shootdown batch sizes 1 to 512. *)
