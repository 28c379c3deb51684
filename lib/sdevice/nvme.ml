let default_capacity = Int64.mul 375L 1048576L (* scaled: 375 "GB" -> 375 MiB *)

let create ?(name = "nvme0") ?(capacity_bytes = default_capacity) () =
  Block_dev.create ~name ~channels:6 ~setup_cycles:2400L
    ~cycles_per_byte:6.0 ~capacity_bytes ()
