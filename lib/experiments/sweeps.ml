(* Sensitivity sweeps beyond the paper's fixed configurations: how the
   Aquila-vs-Linux gap moves with cache size, and how Aquila's eviction
   batch behaves across its range. *)

let dataset_pages = 12800

let cache_size () =
  (* out-of-memory random reads, 16 threads, shared file; sweep the
     cache:dataset ratio *)
  let run aquila frames =
    let eng = Sim.Engine.create () in
    let sys =
      if aquila then Microbench.Aq (Scenario.make_aquila ~frames ~dev:Scenario.Pmem ())
      else
        Microbench.Lx (Scenario.make_linux ~readahead:1 ~frames ~dev:Scenario.Pmem ())
    in
    (Microbench.run ~eng ~sys ~file_pages:dataset_pages ~shared:true
       ~threads:16 ~ops_per_thread:2500 ())
      .Microbench.throughput_ops_s
  in
  let rows =
    List.map
      (fun denom ->
        let frames = dataset_pages / denom in
        let lx = run false frames and aq = run true frames in
        [
          Printf.sprintf "1/%d" denom;
          Stats.Table_fmt.ops_per_sec lx;
          Stats.Table_fmt.ops_per_sec aq;
          Stats.Table_fmt.speedup (aq /. lx);
        ])
      [ 16; 8; 4; 2 ]
  in
  Stats.Table_fmt.print_table
    ~title:
      "Sweep: cache size vs dataset (random reads, 16 threads, shared file, pmem)"
    ~header:[ "cache:dataset"; "Linux mmap"; "Aquila"; "speedup" ]
    rows

let evict_batch () =
  let run batch =
    let eng = Sim.Engine.create () in
    let sys =
      Microbench.Aq
        (Scenario.make_aquila
           ~tweak:(fun c -> { c with Mcache.Dram_cache.evict_batch = batch })
           ~frames:2048 ~dev:Scenario.Pmem ())
    in
    (Microbench.run ~eng ~sys ~file_pages:dataset_pages ~shared:true
       ~threads:16 ~ops_per_thread:2500 ~write_fraction:0.3 ())
      .Microbench.throughput_ops_s
  in
  let rows =
    List.map
      (fun b -> [ string_of_int b; Stats.Table_fmt.ops_per_sec (run b) ])
      [ 1; 8; 32; 128; 512 ]
  in
  Stats.Table_fmt.print_table
    ~title:
      "Sweep: eviction/shootdown batch size (cache 2048 frames; too-large \
       batches degrade victim quality, too-small ones lose amortization)"
    ~header:[ "batch"; "throughput" ] rows
