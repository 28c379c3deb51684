(* Tests for the YCSB workload generator and runner (lib/ycsb). *)

let checki = Alcotest.(check int)

(* ---- Distributions ---- *)

let uniform_in_bounds =
  QCheck.Test.make ~name:"uniform draws stay in bounds" ~count:200
    QCheck.(pair (int_range 1 10000) small_int)
    (fun (items, seed) ->
      let d = Ycsb.Zipfian.uniform (Sim.Rng.create seed) ~items in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Ycsb.Zipfian.next d in
        if v < 0 || v >= items then ok := false
      done;
      !ok)

let zipf_in_bounds =
  QCheck.Test.make ~name:"zipfian draws stay in bounds" ~count:100
    QCheck.(pair (int_range 2 10000) small_int)
    (fun (items, seed) ->
      let d = Ycsb.Zipfian.zipfian (Sim.Rng.create seed) ~items in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Ycsb.Zipfian.next d in
        if v < 0 || v >= items then ok := false
      done;
      !ok)

let zipf_is_skewed () =
  (* The most popular key should receive far more than 1/n of the draws. *)
  let items = 10000 and draws = 20000 in
  let d = Ycsb.Zipfian.zipfian (Sim.Rng.create 1) ~items in
  let counts = Hashtbl.create 1024 in
  for _ = 1 to draws do
    let v = Ycsb.Zipfian.next d in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool)
    (Printf.sprintf "hottest key drawn %d times (uniform would be ~2)" max_count)
    true
    (max_count > 100)

let uniform_is_not_skewed () =
  let items = 100 and draws = 20000 in
  let d = Ycsb.Zipfian.uniform (Sim.Rng.create 1) ~items in
  let counts = Array.make items 0 in
  for _ = 1 to draws do
    let v = Ycsb.Zipfian.next d in
    counts.(v) <- counts.(v) + 1
  done;
  let max_c = Array.fold_left max 0 counts in
  Alcotest.(check bool) "roughly even" true (max_c < 2 * (draws / items) + 50)

let latest_favours_recent () =
  let items = 1000 in
  let d = Ycsb.Zipfian.latest (Sim.Rng.create 1) ~items in
  let recent = ref 0 in
  for _ = 1 to 5000 do
    if Ycsb.Zipfian.next d > items - 100 then incr recent
  done;
  (* the newest 10% of keys get the bulk of the traffic *)
  Alcotest.(check bool) (Printf.sprintf "recent keys hot (%d/5000)" !recent) true
    (!recent > 2500)

let set_items_extends_range () =
  let d = Ycsb.Zipfian.latest (Sim.Rng.create 1) ~items:10 in
  Ycsb.Zipfian.set_items d 1000;
  checki "items grown" 1000 (Ycsb.Zipfian.items d);
  let saw_big = ref false in
  for _ = 1 to 200 do
    if Ycsb.Zipfian.next d >= 10 then saw_big := true
  done;
  Alcotest.(check bool) "new keys drawable" true !saw_big

(* ---- Workloads (Table 1) ---- *)

let workload_mixes_sum_to_one () =
  List.iter
    (fun (w : Ycsb.Workload.t) ->
      let sum =
        w.Ycsb.Workload.read +. w.Ycsb.Workload.update +. w.Ycsb.Workload.insert
        +. w.Ycsb.Workload.scan +. w.Ycsb.Workload.rmw
      in
      Alcotest.(check (float 1e-9)) (w.Ycsb.Workload.name ^ " sums to 1") 1.0 sum)
    Ycsb.Workload.all

let workload_table1_definitions () =
  let open Ycsb.Workload in
  Alcotest.(check (float 0.)) "A reads" 0.5 a.read;
  Alcotest.(check (float 0.)) "A updates" 0.5 a.update;
  Alcotest.(check (float 0.)) "B reads" 0.95 b.read;
  Alcotest.(check (float 0.)) "C reads" 1.0 c.read;
  Alcotest.(check (float 0.)) "D inserts" 0.05 d.insert;
  Alcotest.(check bool) "D latest" true (d.dist = Latest);
  Alcotest.(check (float 0.)) "E scans" 0.95 e.scan;
  Alcotest.(check (float 0.)) "F rmw" 0.5 f.rmw;
  Alcotest.(check bool) "lookup by name" true (by_name "e" = Some e);
  Alcotest.(check bool) "unknown name" true (by_name "z" = None)

(* ---- Runner ---- *)

let key_format () =
  Alcotest.(check string) "padded" "user0000000000000042" (Ycsb.Runner.key_of 42);
  checki "fixed width" 20 (String.length (Ycsb.Runner.key_of 123456))

(* Seed 4242 is the load stream of fig5 and fig9: a drift in the
   generated values shows here before it shows in a figure. *)
let value_stream_pinned () =
  let rng = Sim.Rng.create 4242 in
  let b = Buffer.create (64 * 1024) in
  for _ = 1 to 64 do
    Buffer.add_string b (Ycsb.Runner.value_of rng 1024)
  done;
  Alcotest.(check string)
    "md5 of 64 x 1 KiB values" "cfb274f9a9546f0a436c58fcbd12a228"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let runner_drives_kv () =
  let eng = Sim.Engine.create () in
  let table : (string, string) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to 99 do
    Hashtbl.replace table (Ycsb.Runner.key_of i) "init"
  done;
  let reads = ref 0 and writes = ref 0 and scans = ref 0 in
  let kv =
    {
      Ycsb.Runner.kv_read =
        (fun k ->
          incr reads;
          Sim.Engine.delay 1000L;
          Hashtbl.find_opt table k);
      kv_update =
        (fun k v ->
          incr writes;
          Sim.Engine.delay 1500L;
          Hashtbl.replace table k v);
      kv_insert =
        (fun k v ->
          incr writes;
          Hashtbl.replace table k v);
      kv_scan =
        (fun ~start:_ ~n:_ ->
          incr scans;
          []);
      kv_rmw = (fun k f -> Hashtbl.replace table k (f (Option.value ~default:"" (Hashtbl.find_opt table k))));
    }
  in
  let r =
    Ycsb.Runner.run ~eng ~threads:4 ~ops_per_thread:100 ~workload:Ycsb.Workload.a
      ~record_count:100 ~value_bytes:16 ~kv ()
  in
  checki "total ops" 400 r.Ycsb.Runner.ops;
  checki "latencies recorded" 400 (Stats.Histogram.count r.Ycsb.Runner.latency);
  Alcotest.(check bool) "mix has reads and updates" true (!reads > 100 && !writes > 100);
  Alcotest.(check bool) "throughput positive" true (r.Ycsb.Runner.throughput_ops_s > 0.);
  checki "per-thread contexts" 4 (List.length r.Ycsb.Runner.thread_ctxs)

let runner_load_phase () =
  let eng = Sim.Engine.create () in
  let n = ref 0 and finished = ref false in
  Ycsb.Runner.load ~eng ~record_count:250 ~value_bytes:8
    ~insert:(fun _ _ -> incr n)
    ~finish:(fun () -> finished := true)
    ();
  checki "all inserted" 250 !n;
  Alcotest.(check bool) "finish ran" true !finished

let () =
  Alcotest.run "ycsb"
    [
      ( "distributions",
        [
          QCheck_alcotest.to_alcotest uniform_in_bounds;
          QCheck_alcotest.to_alcotest zipf_in_bounds;
          Alcotest.test_case "zipf skew" `Quick zipf_is_skewed;
          Alcotest.test_case "uniform flat" `Quick uniform_is_not_skewed;
          Alcotest.test_case "latest recency" `Quick latest_favours_recent;
          Alcotest.test_case "set_items" `Quick set_items_extends_range;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "mixes sum to 1" `Quick workload_mixes_sum_to_one;
          Alcotest.test_case "table 1 definitions" `Quick workload_table1_definitions;
        ] );
      ( "runner",
        [
          Alcotest.test_case "key format" `Quick key_format;
          Alcotest.test_case "value stream pinned" `Quick value_stream_pinned;
          Alcotest.test_case "drives a kv" `Quick runner_drives_kv;
          Alcotest.test_case "load phase" `Quick runner_load_phase;
        ] );
    ]
