(* Integration tests for the experiment harness (lib/experiments): small
   versions of the paper's scenarios asserting the headline inequalities
   rather than absolute numbers. *)

let checki = Alcotest.(check int)

let ids_of = List.map (fun e -> e.Experiments.Registry.id)

let ablation_ids =
  [
    "ablation-policy"; "ablation-tlb-batching"; "ablation-memcpy";
    "ablation-readahead"; "ablation-uring";
  ]

let sweep_ids = [ "sweep-cache-size"; "sweep-evict-batch" ]

let registry_complete () =
  let ids = ids_of Experiments.Registry.all in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
    ([
       "table1"; "fig5a"; "fig5b"; "fig6a"; "fig6b"; "fig6c"; "fig7"; "fig8a";
       "fig8b"; "fig8c"; "fig9"; "fig10a"; "fig10b";
     ]
    @ ablation_ids @ sweep_ids);
  checki "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let prefix p = ids_of (Experiments.Registry.find_prefix p) in
  Alcotest.(check (list string)) "ablation group" ablation_ids (prefix "ablation");
  Alcotest.(check (list string)) "sweep group" sweep_ids (prefix "sweep");
  Alcotest.(check bool) "find works" true (Experiments.Registry.find "fig7" <> None);
  Alcotest.(check bool) "find unknown" true (Experiments.Registry.find "fig99" = None)

let microbench_aquila_beats_linux_single_thread () =
  let run aquila =
    let eng = Sim.Engine.create () in
    let sys =
      if aquila then
        Experiments.Microbench.Aq
          (Experiments.Scenario.make_aquila ~frames:512 ~dev:Experiments.Scenario.Pmem ())
      else
        Experiments.Microbench.Lx
          (Experiments.Scenario.make_linux ~readahead:1 ~frames:512
             ~dev:Experiments.Scenario.Pmem ())
    in
    let r =
      Experiments.Microbench.run ~eng ~sys ~file_pages:400 ~shared:true ~threads:1
        ~ops_per_thread:400 ~pattern:Experiments.Microbench.Permutation ()
    in
    r.Experiments.Microbench.throughput_ops_s
  in
  let aq = run true and lx = run false in
  Alcotest.(check bool)
    (Printf.sprintf "aquila faster on the fault path (%.0f vs %.0f)" aq lx)
    true (aq > lx)

let microbench_scales_better_shared () =
  let thr aquila threads =
    let eng = Sim.Engine.create () in
    let sys =
      if aquila then
        Experiments.Microbench.Aq
          (Experiments.Scenario.make_aquila ~frames:4096 ~dev:Experiments.Scenario.Pmem ())
      else
        Experiments.Microbench.Lx
          (Experiments.Scenario.make_linux ~readahead:1 ~frames:4096
             ~dev:Experiments.Scenario.Pmem ())
    in
    (Experiments.Microbench.run ~eng ~sys ~file_pages:3200 ~shared:true ~threads
       ~ops_per_thread:(3200 / threads) ~pattern:Experiments.Microbench.Permutation ())
      .Experiments.Microbench.throughput_ops_s
  in
  let gap1 = thr true 1 /. thr false 1 in
  let gap16 = thr true 16 /. thr false 16 in
  Alcotest.(check bool)
    (Printf.sprintf "gap grows with threads (%.2fx -> %.2fx)" gap1 gap16)
    true
    (gap16 > gap1 *. 1.5)

let microbench_counts_faults () =
  let eng = Sim.Engine.create () in
  let sys =
    Experiments.Microbench.Aq
      (Experiments.Scenario.make_aquila ~frames:512 ~dev:Experiments.Scenario.Pmem ())
  in
  let r =
    Experiments.Microbench.run ~eng ~sys ~file_pages:256 ~shared:true ~threads:2
      ~ops_per_thread:128 ~pattern:Experiments.Microbench.Permutation ()
  in
  checki "permutation touches each page once" 256 r.Experiments.Microbench.ops;
  checki "every access faulted" 256 r.Experiments.Microbench.faults

let fig8c_access_method_ordering () =
  (* Cheap re-check of the Figure 8(c) ordering with a tiny run. *)
  let cost access =
    let eng = Sim.Engine.create () in
    let stack = Experiments.Scenario.make_aquila_access ~frames:256 ~access () in
    let sys = Experiments.Microbench.Aq stack in
    let r =
      Experiments.Microbench.run ~eng ~sys ~file_pages:128 ~shared:true ~threads:1
        ~ops_per_thread:128 ~pattern:Experiments.Microbench.Permutation ()
    in
    Int64.to_float r.Experiments.Microbench.elapsed_cycles
  in
  let dax = cost (fun c _ -> Sdevice.Access.dax_pmem c (Sdevice.Pmem.create ())) in
  let host =
    cost (fun c _ ->
        Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_guest
          (Sdevice.Pmem.create ()))
  in
  Alcotest.(check bool) "DAX beats host path" true (dax < host)

(* ---- Policy ablation determinism across --jobs ---- *)

(* Fanout's parallel path emits the per-job captures with the real
   [print_string], so byte-level comparison needs OS-level stdout
   redirection rather than Sim.Sink.capture. *)
let capture_stdout f =
  let tmp = Filename.temp_file "aq-fanout" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (try f ()
   with e ->
     restore ();
     Sys.remove tmp;
     raise e);
  restore ();
  let ic = open_in_bin tmp in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  s

let policy_ablation_jobs_parity () =
  (* Every policy must produce byte-identical run output whether the two
     ablation workloads run sequentially or on two domains: virtual
     counters (and thus the printed tables) depend only on seeds. *)
  List.iter
    (fun policy ->
      let cell workload () =
        Experiments.Policy_ablation.print_rows
          [
            Experiments.Policy_ablation.run_one ~frames:64 ~threads:2
              ~ops_per_thread:200 ~workload ~policy ();
          ]
      in
      let out jobs =
        capture_stdout (fun () ->
            Experiments.Fanout.run ~jobs
              [
                Experiments.Fanout.job ~name:"pa-zipf"
                  (cell Experiments.Policy_ablation.Zipf_mix);
                Experiments.Fanout.job ~name:"pa-scan"
                  (cell Experiments.Policy_ablation.Scan_mix);
              ])
      in
      let seq = out 1 and par = out 2 in
      Alcotest.(check bool)
        (Mcache.Policy.kind_to_string policy ^ ": output non-empty")
        true
        (String.length seq > 0);
      Alcotest.(check string)
        (Mcache.Policy.kind_to_string policy
        ^ ": --jobs 2 output byte-identical to sequential")
        seq par)
    Mcache.Policy.all_kinds

let scenario_stacks_are_independent () =
  let s1 = Experiments.Scenario.make_aquila ~frames:64 ~dev:Experiments.Scenario.Pmem () in
  let s2 = Experiments.Scenario.make_aquila ~frames:64 ~dev:Experiments.Scenario.Pmem () in
  Alcotest.(check bool) "separate machines" true
    (s1.Experiments.Scenario.a_machine != s2.Experiments.Scenario.a_machine);
  Alcotest.(check bool) "separate stores" true
    (s1.Experiments.Scenario.a_store != s2.Experiments.Scenario.a_store)

(* Two live stacks in one domain bind instance cells of the same series:
   each accessor counts only its own stack's traffic, and the registry
   series is their sum. *)
let scenario_accessors_are_per_instance () =
  let module R = Metrics.Registry in
  let module D = Mcache.Dram_cache in
  let s1 = Experiments.Scenario.make_aquila ~frames:64 ~dev:Experiments.Scenario.Pmem () in
  let s2 = Experiments.Scenario.make_aquila ~frames:64 ~dev:Experiments.Scenario.Pmem () in
  let cache s = Aquila.Context.cache s.Experiments.Scenario.a_ctx in
  let faults s = Aquila.Context.faults s.Experiments.Scenario.a_ctx in
  let tlb_misses s =
    Array.map
      (fun c -> Hw.Tlb.misses c.Hw.Machine.tlb)
      (Hw.Machine.cores s.Experiments.Scenario.a_machine)
  in
  let sum = Array.fold_left ( + ) 0 in
  let families = [ "mcache_misses"; "aquila_page_faults"; "hw_tlb_misses" ] in
  let values () = List.map (fun f -> R.value f) families in
  let run s ~pages =
    ignore
      (Experiments.Microbench.run ~eng:(Sim.Engine.create ())
         ~sys:(Experiments.Microbench.Aq s) ~file_pages:pages ~shared:true
         ~threads:1 ~ops_per_thread:pages
         ~pattern:Experiments.Microbench.Permutation ())
  in
  let v0 = values () in
  (* stack 1 overflows its cache (evictions), stack 2 fits *)
  run s1 ~pages:256;
  let v1 = values () in
  checki "s1 faults: one per page" 256 (faults s1);
  checki "s2 untouched" 0 (faults s2 + D.misses (cache s2) + sum (tlb_misses s2));
  run s2 ~pages:32;
  let v2 = values () in
  checki "s2 faults: one per page" 32 (faults s2);
  checki "s1 faults unchanged" 256 (faults s1);
  Alcotest.(check bool) "s1 evicts" true (D.evictions (cache s1) > 0);
  checki "s2 does not evict" 0 (D.evictions (cache s2));
  let own s = [ D.misses (cache s); faults s; sum (tlb_misses s) ] in
  let delta a b = List.map2 ( - ) b a in
  Alcotest.(check (list int)) "s1 accessors = registry delta of run 1"
    (delta v0 v1) (own s1);
  Alcotest.(check (list int)) "s2 accessors = registry delta of run 2"
    (delta v1 v2) (own s2);
  Alcotest.(check (list int)) "registry = sum of both stacks" (delta v0 v2)
    (List.map2 ( + ) (own s1) (own s2))

(* ---- Golden output digests ---- *)

(* md5 of each fast registry entry's printed output, recorded before the
   device-read path was rewritten to land pages in place.  Any change to
   a figure's bytes fails here; a change that moves a result on purpose
   updates the table and says why. *)
let golden =
  [
    ("table1", "8530ce113d5528f61aa2bc5d4fe0ca38");
    ("fig8a", "f509aeafce7fc37e0bfcc1f3dd9bd92d");
    ("fig8b", "2f14f67147ef2c3a76e9ca18733a7f82");
    ("fig8c", "4d98dc82671399d3ea90fc4d7120863c");
    ("cluster", "03b6a6658b0a9aab7122d58e2bc5d630");
    ("clusterf", "8714971d6aace524f0c7b5eb917bc289");
    ("ablation-memcpy", "fce4bd601d2a1c4c59fd44bdcd745354");
    ("ablation-readahead", "7d99cdc5d70e7ac6f57fff949226203b");
    ("ablation-uring", "957501fa1b3ebefa531d4eef0497ca70");
  ]

let golden_digests () =
  List.iter
    (fun (id, want) ->
      let e = Option.get (Experiments.Registry.find id) in
      let (), out = Sim.Sink.capture e.Experiments.Registry.run in
      Alcotest.(check bool) (id ^ ": printed something") true (out <> "");
      Alcotest.(check string) (id ^ ": md5") want (Digest.to_hex (Digest.string out)))
    golden

let () =
  Alcotest.run "experiments"
    [
      ("registry", [ Alcotest.test_case "complete" `Quick registry_complete ]);
      ( "microbench",
        [
          Alcotest.test_case "aquila beats linux" `Quick
            microbench_aquila_beats_linux_single_thread;
          Alcotest.test_case "scalability gap grows" `Slow
            microbench_scales_better_shared;
          Alcotest.test_case "fault accounting" `Quick microbench_counts_faults;
        ] );
      ( "figures",
        [ Alcotest.test_case "fig8c ordering" `Quick fig8c_access_method_ordering ] );
      ( "scenario",
        [
          Alcotest.test_case "independence" `Quick scenario_stacks_are_independent;
          Alcotest.test_case "per-instance accessors" `Quick
            scenario_accessors_are_per_instance;
        ] );
      ( "policy ablation",
        [
          Alcotest.test_case "--jobs parity per policy" `Quick
            policy_ablation_jobs_parity;
        ] );
      ("golden", [ Alcotest.test_case "output digests" `Quick golden_digests ]);
    ]
