type entry = { id : string; title : string; run : unit -> unit }

let all =
  [
    { id = "table1"; title = "Standard YCSB workloads"; run = Table1.run };
    {
      id = "fig5a";
      title = "RocksDB YCSB-C, dataset fits in the cache";
      run = Fig5.run_a;
    };
    { id = "fig5b"; title = "RocksDB YCSB-C, dataset 4x the cache"; run = Fig5.run_b };
    { id = "fig6a"; title = "Ligra BFS, small DRAM cache"; run = Fig6.run_a };
    { id = "fig6b"; title = "Ligra BFS, large DRAM cache"; run = Fig6.run_b };
    { id = "fig6c"; title = "Ligra BFS time breakdown"; run = Fig6.run_c };
    { id = "fig7"; title = "RocksDB read-path cycle breakdown"; run = Fig7.run };
    { id = "fig8a"; title = "Page-fault breakdown, in-memory"; run = Fig8.run_a };
    { id = "fig8b"; title = "Page-fault breakdown with evictions"; run = Fig8.run_b };
    { id = "fig8c"; title = "Device access methods"; run = Fig8.run_c };
    { id = "fig9"; title = "Kreon kmmap vs Aquila, YCSB A-F"; run = Fig9.run };
    { id = "fig10a"; title = "Scalability, dataset fits in memory"; run = Fig10.run_a };
    { id = "fig10b"; title = "Scalability, dataset 12.5x memory"; run = Fig10.run_b };
    {
      id = "cluster";
      title = "Replicated aqcluster, YCSB A over 5 nodes x 3 replicas";
      run = Cluster_run.run_cluster;
    };
    {
      id = "clusterf";
      title = "Replicated aqcluster with a mid-run node crash + failover";
      run = Cluster_run.run_clusterf;
    };
    {
      id = "openloop";
      title = "Open-loop latency vs offered load (hockey stick), per backend";
      run = Openloop.run;
    };
    {
      id = "ablation-policy";
      title = "Ablation: cache replacement policy";
      run = Policy_ablation.run;
    };
    {
      id = "ablation-tlb-batching";
      title = "Ablation: TLB shootdown and batching";
      run = Ablations.tlb_and_batching;
    };
    {
      id = "ablation-memcpy";
      title = "Ablation: AVX2 streaming memcpy vs scalar";
      run = Ablations.memcpy;
    };
    {
      id = "ablation-readahead";
      title = "Ablation: madvise-driven readahead";
      run = Ablations.readahead;
    };
    {
      id = "ablation-uring";
      title = "Extension: io_uring as the miss-path access method";
      run = Ablations.uring;
    };
    {
      id = "sweep-cache-size";
      title = "Sweep: cache size vs dataset";
      run = Sweeps.cache_size;
    };
    {
      id = "sweep-evict-batch";
      title = "Sweep: eviction/shootdown batch size";
      run = Sweeps.evict_batch;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* "fig5" selects fig5a+fig5b; an exact id still selects just itself. *)
let find_prefix id =
  match find id with
  | Some e -> [ e ]
  | None -> List.filter (fun e -> String.starts_with ~prefix:id e.id) all

(* Each entry becomes one fan-out job that prints its own header, so the
   aggregate output is byte-identical at any parallelism degree. *)
let run_selected ?(jobs = 1) ?fault entries =
  Fanout.run ~jobs ?fault
    (List.map
       (fun e ->
         Fanout.job ~name:e.id (fun () ->
             Sim.Sink.printf "\n### %s: %s\n" e.id e.title;
             e.run ()))
       entries)
