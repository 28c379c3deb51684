(* Engine throughput benchmark: events/sec on the DES hot path.

   Single-engine workloads:

   - a fault-heavy event loop exercising exactly the engine-facing slice
     of the Aquila fault path (costbuf accumulate + charge, labeled
     delays, occasional device idle_wait), where nearly every event is
     eligible for the delay fast path;

   - the real Aquila microbenchmark stack (page faults, evictions, I/O)
     at 1 and 16 simulated threads, where fibers contend for the virtual
     timeline and the fast path hits less often.

   Each runs with the fast path enabled and disabled ([Engine.create
   ~fastpath:false] forces every event through the queue); the ratio is
   the fast path's win.  The run doubles as the determinism smoke:
   same-seed runs must agree on event count and final virtual time with
   the fast path on, off, and across repetitions — any mismatch exits
   non-zero.  Results land in BENCH_engine.json.

   Throughput denominators count the run phase only (Engine.run /
   Microbench.run, not stack construction).  Wall-clock uses
   Unix.gettimeofday. *)

let iters =
  match Sys.getenv_opt "ENGINE_PERF_ITERS" with
  | Some s -> ( match int_of_string_opt s with Some n -> max 1 n | None -> 1_000_000)
  | None -> 1_000_000

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---- workload 1: fault-heavy event loop ---- *)

let fault_loop ~fastpath () =
  let eng = Sim.Engine.create ~seed:7 ~fastpath () in
  ignore
    (Sim.Engine.spawn eng ~name:"faulter" (fun () ->
         let rng = Sim.Engine.rng eng in
         let buf = Sim.Costbuf.create () in
         for _ = 1 to iters do
           (* the engine-facing slice of one page fault *)
           Sim.Costbuf.add buf "index" 160L;
           Sim.Costbuf.add buf "alloc" 90L;
           Sim.Costbuf.add buf "map" 210L;
           Sim.Costbuf.add buf "tlb" 120L;
           Sim.Costbuf.add buf "index" 60L;
           Sim.Costbuf.charge buf;
           Sim.Engine.delay ~label:"app" 300L;
           if Sim.Rng.int rng 8 = 0 then Sim.Engine.idle_wait 1200L
         done));
  let (), dt = wall (fun () -> Sim.Engine.run eng) in
  ((Sim.Engine.events eng, Sim.Engine.now eng), dt)

(* ---- workload 2: the real Aquila stack ---- *)

let aquila_micro ~fastpath ~threads () =
  let eng = Sim.Engine.create ~seed:42 ~fastpath () in
  let stack =
    Experiments.Scenario.make_aquila ~frames:1024 ~dev:Experiments.Scenario.Pmem
      ()
  in
  (* times the microbench run (its own engine runs included), not the
     stack construction above *)
  let _, dt =
    wall (fun () ->
        Experiments.Microbench.run ~eng
          ~sys:(Experiments.Microbench.Aq stack)
          ~file_pages:4096 ~shared:true ~threads
          ~ops_per_thread:(40_000 / threads) ~write_fraction:0.3 ())
  in
  ((Sim.Engine.events eng, Sim.Engine.now eng), dt)

(* ---- measurement ---- *)

type meas = {
  events : int;
  final : int64;
  eps_fast : float;
  eps_slow : float;
  speedup : float;
}

let failures = ref []

let check_same what (ea, ta) (eb, tb) =
  if ea <> eb || ta <> tb then
    failures :=
      Printf.sprintf "%s: (%d events, %Ld cycles) vs (%d events, %Ld cycles)"
        what ea ta eb tb
      :: !failures

let best_of n f =
  let best = ref infinity in
  let out = ref (0, 0L) in
  for _ = 1 to n do
    let r, dt = f () in
    out := r;
    if dt < !best then best := dt
  done;
  (!out, !best)

let measure name run =
  let (e1, t1), dt_fast = best_of 3 (run ~fastpath:true) in
  let (e2, t2), dt_slow = best_of 3 (run ~fastpath:false) in
  let (e3, t3), _ = best_of 1 (run ~fastpath:true) in
  check_same (name ^ " fastpath-vs-queue") (e1, t1) (e2, t2);
  check_same (name ^ " repeat-same-seed") (e1, t1) (e3, t3);
  let eps dt = float_of_int e1 /. dt in
  {
    events = e1;
    final = t1;
    eps_fast = eps dt_fast;
    eps_slow = eps dt_slow;
    speedup = eps dt_fast /. eps dt_slow;
  }

let meps x = x /. 1e6

let report name m =
  Printf.printf
    "%-24s %9d events  end %12Ld cy  %7.2f Mev/s fast  %7.2f Mev/s queued  %5.2fx\n%!"
    name m.events m.final (meps m.eps_fast) (meps m.eps_slow) m.speedup

let json_field name m =
  Printf.sprintf
    "  \"%s\": {\"events\": %d, \"final_cycles\": %Ld, \"events_per_sec\": \
     %.0f, \"events_per_sec_queued\": %.0f, \"speedup\": %.3f}"
    name m.events m.final m.eps_fast m.eps_slow m.speedup

let () =
  Printf.printf "=== engine_perf: DES hot-path throughput (iters=%d) ===\n%!" iters;
  let loop = measure "fault_loop" (fun ~fastpath () -> fault_loop ~fastpath ()) in
  report "fault-loop (1 fiber)" loop;
  let aq1 = measure "aquila_t1" (fun ~fastpath () -> aquila_micro ~fastpath ~threads:1 ()) in
  report "aquila stack, 1 thread" aq1;
  let aq16 = measure "aquila_t16" (fun ~fastpath () -> aquila_micro ~fastpath ~threads:16 ()) in
  report "aquila stack, 16 threads" aq16;
  let ok = !failures = [] in
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc "{\n  \"bench\": \"engine_perf\",\n  \"iters\": %d,\n%s,\n%s,\n%s,\n  \"determinism\": %s\n}\n"
    iters
    (json_field "fault_loop" loop)
    (json_field "aquila_t1" aq1)
    (json_field "aquila_t16" aq16)
    (if ok then "\"ok\"" else "\"FAIL\"");
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n";
  if not ok then begin
    List.iter (Printf.printf "DETERMINISM FAIL %s\n") !failures;
    exit 1
  end;
  Printf.printf
    "determinism: ok (counters identical across fastpath and repetition)\n"
