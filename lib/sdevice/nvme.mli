(** PCIe-attached NVMe SSD modelled on the Intel Optane DC P4800X used in
    the paper's testbed: ~10 µs 4 KiB read latency, ~550 K random 4 KiB
    IOPS at high queue depth, ~2.4 GB/s sequential throughput, 375 GB
    capacity (scaled down by default — see DESIGN.md §2). *)

val create : ?name:string -> ?capacity_bytes:int64 -> unit -> Block_dev.t
(** [create ()] is a fresh Optane-like device: 6 channels, 2400-cycle
    (1 µs) setup, 6 cycles/byte per channel.  Data transfer is DMA — the
    host CPU does not copy. *)
