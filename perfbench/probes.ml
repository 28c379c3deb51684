(* Per-layer probes: host cost of one public function per layer.

   Each probe builds its state the way the workload that exercises the
   layer builds it (same stack constructors and sizes), draws its inputs
   from the benchmark's seed, runs the operation untimed until caches
   are filled, and then times [reps] loops of [ops] calls inside a span.
   The reported ns/op and words/op are medians over those loops.  Every
   probe also checks what the calls returned, so a probe that got faster
   by doing less work fails instead. *)

type span = {
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
  ops : int;
  words : float;
}

type result = {
  probe : string;
  ok : bool;
  detail : string;
  metrics : (string * float) list;
}

let recorded = ref []
let spans () = List.rev !recorded

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let reps = 3

(* [timed ~layer name ~ops body] runs [body r] for r = 1..reps, each
   inside a span of [ops] operations, and returns the median ns and
   allocated words per operation. *)
let timed ~layer name ~ops body =
  let per =
    List.init reps (fun i ->
        let r = i + 1 in
        let w0 = alloc_words () in
        let t0 = Unix.gettimeofday () in
        body r;
        let t1 = Unix.gettimeofday () in
        let words = alloc_words () -. w0 in
        recorded := { name; layer; t0; t1; ops; words } :: !recorded;
        ((t1 -. t0) *. 1e9 /. float_of_int ops, words /. float_of_int ops))
  in
  (median (List.map fst per), median (List.map snd per))

(* Run [f] as the only fiber of [eng] and return its result. *)
let in_fiber eng f =
  let r = ref None in
  ignore (Sim.Engine.spawn eng ~name:"probe" ~core:0 (fun () -> r := Some (f ())));
  Sim.Engine.run eng;
  match !r with Some v -> v | None -> failwith "probe fiber did not finish"

let check probe cond detail metrics =
  { probe; ok = cond; detail = (if cond then "ok" else detail); metrics }

let random_array rng n bound = Array.init n (fun _ -> Sim.Rng.int rng bound)

(* ---- sim: one delay, on the fast path and through the queue ---- *)

let sim_delay ~seed =
  let ops = 200_000 in
  let run ~fastpath =
    let eng = Sim.Engine.create ~seed ~fastpath () in
    let rng = Sim.Rng.create seed in
    let cycles = Array.init ops (fun _ -> Int64.of_int (1 + Sim.Rng.int rng 500)) in
    let ns, words =
      in_fiber eng (fun () ->
          Array.iter Sim.Engine.delay cycles;
          timed ~layer:"sim" (if fastpath then "sim.delay_fast" else "sim.delay_queued")
            ~ops (fun _ -> Array.iter Sim.Engine.delay cycles))
    in
    let expect = Int64.mul (Int64.of_int (reps + 1)) (Array.fold_left Int64.add 0L cycles) in
    (ns, words, Sim.Engine.now eng = expect)
  in
  let fast_ns, _, fast_ok = run ~fastpath:true in
  let q_ns, q_words, q_ok = run ~fastpath:false in
  check "sim.delay" (fast_ok && q_ok) "virtual clock is not the sum of the delays"
    [
      ("sim.delay_fast.ns_per_op", fast_ns);
      ("sim.delay_queued.ns_per_op", q_ns);
      ("sim.delay_queued.words_per_op", q_words);
    ]

(* ---- hw: TLB lookup over four times its reach, as under mmio_scale ---- *)

let hw_tlb ~seed =
  let ops = 500_000 in
  let tlb = Hw.Tlb.create () in
  let costs = Hw.Costs.default in
  let vpns = random_array (Sim.Rng.create seed) ops (4 * 1536) in
  let sink = ref 0L in
  let lookup_all () =
    Array.iter (fun vpn -> sink := Int64.add !sink (Hw.Tlb.access tlb costs ~vpn)) vpns
  in
  lookup_all ();
  let h0 = Hw.Tlb.hits tlb and m0 = Hw.Tlb.misses tlb and c0 = !sink in
  let ns, _ = timed ~layer:"hw" "hw.tlb_access" ~ops (fun _ -> lookup_all ()) in
  let misses = Hw.Tlb.misses tlb - m0 in
  (* a miss costs one page walk, a hit nothing *)
  let ok =
    Hw.Tlb.hits tlb - h0 + misses = reps * ops
    && Int64.sub !sink c0 = Int64.mul (Int64.of_int misses) costs.Hw.Costs.tlb_miss_walk
    && (ignore (Hw.Tlb.access tlb costs ~vpn:7); Hw.Tlb.access tlb costs ~vpn:7 = 0L)
  in
  check "hw.tlb_access" ok "TLB lookups miscounted or mischarged"
    [ ("hw.tlb_access.ns_per_op", ns) ]

(* ---- core / linux_sim: page touches on a mapped file (Figure 10(b) shape) ---- *)

let frames = 2048
let dataset_pages = 25600

let translate_of blob p =
  if p < Blobstore.Store.blob_pages blob then Some (Blobstore.Store.device_page blob p)
  else None

let aquila_region (s : Experiments.Scenario.aquila_stack) ~pages =
  let open Experiments.Scenario in
  Aquila.Context.enter_thread s.a_ctx;
  let blob = Blobstore.Store.create_blob s.a_store ~name:"probe" ~pages () in
  let f =
    Aquila.Context.attach_file s.a_ctx ~name:"probe" ~access:s.a_access
      ~translate:(translate_of blob) ~size_pages:pages
  in
  Aquila.Context.mmap s.a_ctx f ~npages:pages ()

let core_touch ~seed =
  let ops = 20_000 in
  let rng = Sim.Rng.create seed in
  (* hits: a region that fits the cache, faulted in before timing *)
  let hit_pages = frames / 2 in
  let s = Experiments.Scenario.make_aquila ~frames ~dev:Experiments.Scenario.Pmem () in
  let ctx = s.Experiments.Scenario.a_ctx in
  let hit_seq = random_array rng (10 * ops) hit_pages in
  let hit_ns, hit_faults, hit_acc =
    in_fiber (Sim.Engine.create ~seed ()) (fun () ->
        let r = aquila_region s ~pages:hit_pages in
        for page = 0 to hit_pages - 1 do
          Aquila.Context.touch ctx r ~page ~write:false
        done;
        let f0 = Aquila.Context.faults ctx and a0 = Aquila.Context.accesses ctx in
        let ns, _ =
          timed ~layer:"core" "core.touch_hit" ~ops:(10 * ops) (fun _ ->
              Array.iter (fun page -> Aquila.Context.touch ctx r ~page ~write:false) hit_seq)
        in
        (ns, Aquila.Context.faults ctx - f0, Aquila.Context.accesses ctx - a0))
  in
  (* faults with eviction: a file 12.5x the cache, cache filled first *)
  let s = Experiments.Scenario.make_aquila ~frames ~dev:Experiments.Scenario.Pmem () in
  let ctx = s.Experiments.Scenario.a_ctx in
  let cache = Aquila.Context.cache ctx in
  let warm = random_array rng (2 * frames) dataset_pages in
  let miss_seq = random_array rng ops dataset_pages in
  let miss_ns, miss_words, faults, evictions =
    in_fiber (Sim.Engine.create ~seed ()) (fun () ->
        let r = aquila_region s ~pages:dataset_pages in
        Array.iter (fun page -> Aquila.Context.touch ctx r ~page ~write:false) warm;
        let f0 = Aquila.Context.faults ctx and e0 = Mcache.Dram_cache.evictions cache in
        let ns, words =
          timed ~layer:"core" "core.touch_fault_evict" ~ops (fun _ ->
              Array.iter (fun page -> Aquila.Context.touch ctx r ~page ~write:false) miss_seq)
        in
        (ns, words, Aquila.Context.faults ctx - f0, Mcache.Dram_cache.evictions cache - e0))
  in
  let ok =
    hit_faults = 0
    && hit_acc = reps * 10 * ops
    && faults > reps * ops / 2
    && evictions > reps * ops / 2
  in
  check "core.touch" ok
    (Printf.sprintf "hit loop took %d faults over %d accesses; miss loop %d faults, %d evictions"
       hit_faults hit_acc faults evictions)
    [
      ("core.touch_hit.ns_per_op", hit_ns);
      ("core.touch_fault_evict.ns_per_op", miss_ns);
      ("core.touch_fault_evict.words_per_op", miss_words);
    ]

let linux_touch ~seed =
  let ops = 20_000 in
  let rng = Sim.Rng.create seed in
  let s =
    Experiments.Scenario.make_linux ~readahead:1 ~frames ~dev:Experiments.Scenario.Pmem ()
  in
  let msys = s.Experiments.Scenario.l_msys in
  let warm = random_array rng (2 * frames) dataset_pages in
  let seq = random_array rng ops dataset_pages in
  let ns, faults, accesses =
    in_fiber (Sim.Engine.create ~seed ()) (fun () ->
        Linux_sim.Mmap_sys.enter_thread msys;
        let blob =
          Blobstore.Store.create_blob s.Experiments.Scenario.l_store ~name:"probe"
            ~pages:dataset_pages ()
        in
        let f =
          Linux_sim.Mmap_sys.attach_file msys ~name:"probe"
            ~access:s.Experiments.Scenario.l_access ~translate:(translate_of blob)
            ~size_pages:dataset_pages
        in
        let r = Linux_sim.Mmap_sys.mmap msys f ~npages:dataset_pages () in
        Array.iter (fun page -> Linux_sim.Mmap_sys.touch msys r ~page ~write:false) warm;
        let f0 = Linux_sim.Mmap_sys.faults msys and a0 = Linux_sim.Mmap_sys.accesses msys in
        let ns, _ =
          timed ~layer:"linux_sim" "linux.touch_fault" ~ops (fun _ ->
              Array.iter (fun page -> Linux_sim.Mmap_sys.touch msys r ~page ~write:false) seq)
        in
        (ns, Linux_sim.Mmap_sys.faults msys - f0, Linux_sim.Mmap_sys.accesses msys - a0))
  in
  check "linux.touch_fault"
    (faults > reps * ops / 2 && accesses = reps * ops)
    (Printf.sprintf "%d faults over %d accesses" faults accesses)
    [ ("linux.touch_fault.ns_per_op", ns) ]

(* ---- sdevice: one-page reads through Aquila's NVMe and pmem paths ---- *)

let psz = Hw.Defs.page_size

(* Page [p]'s contents: seeded, and different for every page. *)
let page_bytes ~seed p =
  let rng = Sim.Rng.create ((seed * 1_000_003) + p) in
  Bytes.init psz (fun _ -> Char.chr (Sim.Rng.int rng 256))

let device_read ~seed name access ~pages ~ops =
  let rng = Sim.Rng.create seed in
  let seq = random_array rng ops pages in
  let probe_pages = random_array rng 64 pages in
  let dst = Bytes.create psz in
  in_fiber (Sim.Engine.create ~seed ()) (fun () ->
      for p = 0 to pages - 1 do
        Sdevice.Access.write_page access ~page:p ~src:(page_bytes ~seed p)
      done;
      Array.iter (fun page -> Sdevice.Access.read_page access ~page ~dst) seq;
      let ns, words =
        timed ~layer:"sdevice" name ~ops (fun _ ->
            Array.iter (fun page -> Sdevice.Access.read_page access ~page ~dst) seq)
      in
      let bad =
        Array.to_list probe_pages
        |> List.filter (fun page ->
               Sdevice.Access.read_page access ~page ~dst;
               not (Bytes.equal dst (page_bytes ~seed page)))
      in
      (ns, words, bad))

let sdevice_read ~seed =
  let pages = 4096 in
  let capacity_bytes = Int64.of_int (2 * pages * psz) in
  let costs = Hw.Costs.default in
  let nvme = Sdevice.Access.spdk_nvme costs (Sdevice.Nvme.create ~capacity_bytes ()) in
  let pmem = Sdevice.Access.dax_pmem costs (Sdevice.Pmem.create ~capacity_bytes ()) in
  let n_ns, n_words, n_bad = device_read ~seed "sdevice.nvme_read" nvme ~pages ~ops:20_000 in
  let p_ns, _, p_bad = device_read ~seed "sdevice.pmem_read" pmem ~pages ~ops:20_000 in
  check "sdevice.read" (n_bad = [] && p_bad = [])
    (Printf.sprintf "%d NVMe and %d pmem pages read back other bytes than written"
       (List.length n_bad) (List.length p_bad))
    [
      ("sdevice.nvme_read.ns_per_op", n_ns);
      ("sdevice.nvme_read.words_per_op", n_words);
      ("sdevice.pmem_read.ns_per_op", p_ns);
    ]

(* ---- uspace: user-cache reads that miss (Figure 5's read/write leg) ---- *)

let ucache_miss ~seed =
  let ops = 10_000 and pages = 4096 and cache_pages = 64 in
  let s = Experiments.Scenario.make_ucache ~cache_pages ~dev:Experiments.Scenario.Nvme () in
  let uc = s.Experiments.Scenario.u_cache in
  let rng = Sim.Rng.create seed in
  let seq = random_array rng ops pages in
  let probe_pages = random_array rng 64 pages in
  let dst = Bytes.create psz in
  let read page = Uspace.User_cache.read uc ~file_id:1 ~off:(page * psz) ~len:psz ~dst in
  let ns, words, misses, bad =
    in_fiber (Sim.Engine.create ~seed ()) (fun () ->
        let blob = Blobstore.Store.create_blob s.Experiments.Scenario.u_store ~pages () in
        let fd =
          Linux_sim.Readwrite.open_direct ~costs:Hw.Costs.default
            ~access:s.Experiments.Scenario.u_access ~translate:(translate_of blob)
            ~size_pages:pages
        in
        Uspace.User_cache.register_file uc ~file_id:1 ~fd;
        for p = 0 to pages - 1 do
          Uspace.User_cache.write uc ~file_id:1 ~off:(p * psz) ~src:(page_bytes ~seed p)
        done;
        Array.iter read seq;
        let m0 = Uspace.User_cache.misses uc in
        let ns, words =
          timed ~layer:"uspace" "uspace.ucache_read_miss" ~ops (fun _ -> Array.iter read seq)
        in
        let misses = Uspace.User_cache.misses uc - m0 in
        let bad =
          Array.to_list probe_pages
          |> List.filter (fun p ->
                 read p;
                 not (Bytes.equal dst (page_bytes ~seed p)))
        in
        (ns, words, misses, bad))
  in
  check "uspace.ucache_read_miss"
    (bad = [] && misses > reps * ops * 9 / 10)
    (Printf.sprintf "%d misses over %d reads; %d pages read back wrong" misses (reps * ops)
       (List.length bad))
    [
      ("uspace.ucache_read_miss.ns_per_op", ns);
      ("uspace.ucache_read_miss.words_per_op", words);
    ]

(* ---- kvstore: RocksDB get (Figure 5(a) shape), Kreon get/put (Figure 9 shape) ---- *)

let value_bytes = 1024
let key = Ycsb.Runner.key_of

let rocksdb_get ~seed =
  let records = 8192 and ops = 2000 in
  let rng = Sim.Rng.create seed in
  let values = Array.init records (fun _ -> Ycsb.Runner.value_of rng value_bytes) in
  (* Figure 5(a)'s cache: the whole on-device dataset fits *)
  let frames = (records * 110 / 300) + 512 in
  let s = Experiments.Scenario.make_aquila ~frames ~dev:Experiments.Scenario.Nvme () in
  let env =
    Kvstore.Env.aquila ~store:s.Experiments.Scenario.a_store ~ctx:s.Experiments.Scenario.a_ctx
      ~device_access:s.Experiments.Scenario.a_access
  in
  let seq = random_array rng ops records in
  let got = Array.make ops None in
  let ns, words, wrong =
    in_fiber (Sim.Engine.create ~seed ()) (fun () ->
        Aquila.Context.enter_thread s.Experiments.Scenario.a_ctx;
        let db = Kvstore.Rocksdb_sim.create env () in
        Kvstore.Rocksdb_sim.bulk_load db (List.init records (fun i -> (key i, values.(i))));
        for i = 0 to records - 1 do
          ignore (Kvstore.Rocksdb_sim.get db (key i))
        done;
        let keys = Array.map key seq in
        let ns, words =
          timed ~layer:"kvstore" "kvstore.rocksdb_get" ~ops (fun _ ->
              Array.iteri (fun j k -> got.(j) <- Kvstore.Rocksdb_sim.get db k) keys)
        in
        let wrong = ref 0 in
        Array.iteri (fun j i -> if got.(j) <> Some values.(i) then incr wrong) seq;
        (ns, words, !wrong))
  in
  check "kvstore.rocksdb_get" (wrong = 0)
    (Printf.sprintf "%d of %d gets returned another value than loaded" wrong ops)
    [ ("kvstore.rocksdb_get.ns_per_op", ns); ("kvstore.rocksdb_get.words_per_op", words) ]

let kreon ~seed =
  let records = 16384 and ops = 2000 in
  let rng = Sim.Rng.create seed in
  let values = Array.init records (fun _ -> Ycsb.Runner.value_of rng value_bytes) in
  let s = Experiments.Scenario.make_aquila ~frames:2048 ~dev:Experiments.Scenario.Nvme () in
  let get_seq = random_array rng ops records in
  let put_seq = random_array rng ops records in
  let updates =
    Array.init reps (fun _ -> Array.init ops (fun _ -> Ycsb.Runner.value_of rng value_bytes))
  in
  let got = Array.make ops None in
  let get_ns, put_ns, put_words, wrong_get, wrong_put =
    in_fiber (Sim.Engine.create ~seed ()) (fun () ->
        let open Experiments.Scenario in
        Aquila.Context.enter_thread s.a_ctx;
        let db =
          Kvstore.Kreon_sim.create ~ctx:s.a_ctx ~access:s.a_access ~store:s.a_store
            ~expected_records:(records * 2) ~value_bytes ()
        in
        Array.iteri (fun i v -> Kvstore.Kreon_sim.put db (key i) v) values;
        Kvstore.Kreon_sim.spill db;
        Kvstore.Kreon_sim.msync db;
        let get_keys = Array.map key get_seq and put_keys = Array.map key put_seq in
        Array.iter (fun k -> ignore (Kvstore.Kreon_sim.get db k)) get_keys;
        let get_ns, _ =
          timed ~layer:"kvstore" "kvstore.kreon_get" ~ops (fun _ ->
              Array.iteri (fun j k -> got.(j) <- Kvstore.Kreon_sim.get db k) get_keys)
        in
        let wrong_get = ref 0 in
        Array.iteri (fun j i -> if got.(j) <> Some values.(i) then incr wrong_get) get_seq;
        let put_ns, put_words =
          timed ~layer:"kvstore" "kvstore.kreon_put" ~ops (fun r ->
              let vs = updates.(r - 1) in
              Array.iteri (fun j k -> Kvstore.Kreon_sim.put db k vs.(j)) put_keys)
        in
        (* the last put to each key wins *)
        let latest = Hashtbl.create ops in
        Array.iteri (fun j i -> Hashtbl.replace latest i updates.(reps - 1).(j)) put_seq;
        let wrong_put = ref 0 in
        Hashtbl.iter
          (fun i v -> if Kvstore.Kreon_sim.get db (key i) <> Some v then incr wrong_put)
          latest;
        (get_ns, put_ns, put_words, !wrong_get, !wrong_put))
  in
  check "kvstore.kreon" (wrong_get = 0 && wrong_put = 0)
    (Printf.sprintf "%d gets returned another value than loaded; %d keys lost their last put"
       wrong_get wrong_put)
    [
      ("kvstore.kreon_get.ns_per_op", get_ns);
      ("kvstore.kreon_put.ns_per_op", put_ns);
      ("kvstore.kreon_put.words_per_op", put_words);
    ]

(* ---- ycsb: the scrambled-zipfian key generator ---- *)

let zipfian ~seed =
  let items = 16384 and ops = 1_000_000 in
  let z = Ycsb.Zipfian.zipfian (Sim.Rng.create seed) ~items in
  let hist = Array.make items 0 in
  let draw () =
    let k = Ycsb.Zipfian.next z in
    if k >= 0 && k < items then hist.(k) <- hist.(k) + 1
  in
  for _ = 1 to ops do
    draw ()
  done;
  let ns, _ =
    timed ~layer:"ycsb" "ycsb.zipfian_next" ~ops (fun _ ->
        for _ = 1 to ops do
          draw ()
        done)
  in
  let in_range = Array.fold_left ( + ) 0 hist = (reps + 1) * ops in
  (* theta = 0.99 over 16k items: the hottest key draws far above 1/items *)
  let skewed = Array.fold_left max 0 hist > 50 * (reps + 1) * ops / items in
  check "ycsb.zipfian_next" (in_range && skewed) "draws out of range or not skewed"
    [ ("ycsb.zipfian_next.ns_per_op", ns) ]

(* ---- ligra: BFS on DRAM and on an Aquila heap (Figure 6(a) shape) ---- *)

(* Reachable vertices and BFS depth from [source], computed directly. *)
let reference_bfs (g : Ligra.Graph.t) ~source =
  let level = Array.make g.Ligra.Graph.n (-1) in
  level.(source) <- 0;
  let q = Queue.create () in
  Queue.add source q;
  let visited = ref 1 and depth = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Ligra.Graph.iter_neighbors g u (fun v ->
        if level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          depth := max !depth level.(v);
          incr visited;
          Queue.add v q
        end)
  done;
  (!visited, !depth)

let ligra_bfs ~seed =
  let n = 32768 and threads = 8 in
  let g = Ligra.Rmat.generate ~seed ~n ~m:(10 * n) () in
  let elem_bytes = 32 in
  let heap_pages =
    (((2 * (n + 1 + g.Ligra.Graph.m)) + (3 * n)) * elem_bytes / psz) + 64
  in
  (* each rep gets a fresh engine and surface, built before timing; the
     BFS itself starts from a cold cache, as in fig6a *)
  let dram_surface () = (Sim.Engine.create (), Ligra.Mem_surface.dram ()) in
  let aquila_surface () =
    let eng = Sim.Engine.create () in
    let s =
      Experiments.Scenario.make_aquila ~frames:(heap_pages / 8) ~dev:Experiments.Scenario.Pmem ()
    in
    ( eng,
      in_fiber eng (fun () ->
          let r = aquila_region s ~pages:heap_pages in
          Ligra.Mem_surface.aquila ~elem_bytes s.Experiments.Scenario.a_ctx r) )
  in
  let bfs name make_surface =
    let surfaces = Array.init reps (fun _ -> make_surface ()) in
    let outcome = ref [] in
    let ns, _ =
      timed ~layer:"ligra" name ~ops:g.Ligra.Graph.m (fun r ->
          let eng, surface = surfaces.(r - 1) in
          let res = Ligra.Bfs.run ~eng ~graph:g ~surface ~threads ~source:0 () in
          outcome := (res.Ligra.Bfs.visited, res.Ligra.Bfs.rounds) :: !outcome)
    in
    (ns, !outcome)
  in
  let dram_ns, dram_out = bfs "ligra.bfs_dram" dram_surface in
  let aq_ns, aq_out = bfs "ligra.bfs_aquila" aquila_surface in
  let visited, depth = reference_bfs g ~source:0 in
  (* Bfs.run does not return its parent array; it returns how many
     vertices it reached and in how many rounds (the last finds an
     empty frontier), which the direct BFS gives too. *)
  let expect = (visited, depth + 1) in
  let ok = List.for_all (( = ) expect) (dram_out @ aq_out) in
  check "ligra.bfs" ok
    (Printf.sprintf "expected %d visited in %d rounds; DRAM and Aquila runs disagree" visited
       (depth + 1))
    [ ("ligra.bfs_dram.ns_per_edge", dram_ns); ("ligra.bfs_aquila.ns_per_edge", aq_ns) ]

(* ---- metrics: the always-on counter increment ---- *)

let metrics_incr ~seed =
  let ops = 10_000_000 in
  let cell = Metrics.Registry.counter ~help:"perfbench probe" "perfbench_probe_incr" in
  let start = Metrics.Registry.get cell in
  let warm = 1 + (seed land 0xffff) in
  for _ = 1 to warm do
    Metrics.Registry.incr cell
  done;
  let ns, _ =
    timed ~layer:"metrics" "metrics.incr" ~ops (fun _ ->
        for _ = 1 to ops do
          Metrics.Registry.incr cell
        done)
  in
  check "metrics.incr"
    (Metrics.Registry.get cell - start = warm + (reps * ops))
    "counter lost increments"
    [ ("metrics.incr.ns_per_op", ns) ]

let all =
  [
    ("sim", sim_delay);
    ("hw", hw_tlb);
    ("core", core_touch);
    ("linux_sim", linux_touch);
    ("sdevice", sdevice_read);
    ("uspace", ucache_miss);
    ("kvstore.rocksdb", rocksdb_get);
    ("kvstore.kreon", kreon);
    ("ycsb", zipfian);
    ("ligra", ligra_bfs);
    ("metrics", metrics_incr);
  ]

(* A probe that raises counts as a failed check. *)
let run_all ~seed =
  List.map
    (fun (layer, probe) ->
      try probe ~seed
      with e ->
        { probe = layer; ok = false; detail = "raised " ^ Printexc.to_string e; metrics = [] })
    all
