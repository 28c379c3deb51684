(* Tests for the discrete-event simulation engine (lib/sim). *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let check64 msg a b = Alcotest.(check int64) msg a b

(* ---- Pqueue ---- *)

let pqueue_order () =
  let q = Sim.Pqueue.create () in
  Sim.Pqueue.push q ~time:30 ~seq:1 "c";
  Sim.Pqueue.push q ~time:10 ~seq:2 "a";
  Sim.Pqueue.push q ~time:20 ~seq:3 "b";
  let pop () = match Sim.Pqueue.pop q with Some (_, _, v) -> v | None -> "?" in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Sim.Pqueue.is_empty q)

let pqueue_fifo_ties () =
  let q = Sim.Pqueue.create () in
  for i = 0 to 9 do
    Sim.Pqueue.push q ~time:5 ~seq:i i
  done;
  for i = 0 to 9 do
    match Sim.Pqueue.pop q with
    | Some (_, _, v) -> checki (Printf.sprintf "tie %d" i) i v
    | None -> Alcotest.fail "queue drained early"
  done

let pqueue_min_time_and_pop_min () =
  let q = Sim.Pqueue.create () in
  checki "empty min_time is max_int" max_int (Sim.Pqueue.min_time q);
  Sim.Pqueue.push q ~time:50 ~seq:0 "a";
  Sim.Pqueue.push q ~time:20 ~seq:1 "b";
  checki "min_time is head" 20 (Sim.Pqueue.min_time q);
  check Alcotest.string "pop_min takes head" "b" (Sim.Pqueue.pop_min q);
  checki "next head" 50 (Sim.Pqueue.min_time q);
  check Alcotest.string "pop_min" "a" (Sim.Pqueue.pop_min q);
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Pqueue.pop_min: empty queue") (fun () ->
      ignore (Sim.Pqueue.pop_min q))

let pqueue_prop =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing (time, seq) order"
    ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun pairs ->
      let q = Sim.Pqueue.create () in
      List.iteri (fun seq (t, v) -> Sim.Pqueue.push q ~time:t ~seq v) pairs;
      let rec drain last acc =
        match Sim.Pqueue.pop q with
        | None -> List.rev acc
        | Some (t, s, _) ->
            if compare last (t, s) > 0 then raise Exit;
            drain (t, s) ((t, s) :: acc)
      in
      match drain (-1, -1) [] with
      | l -> List.length l = List.length pairs
      | exception Exit -> false)

let pqueue_vs_reference =
  (* Interleaved pushes and pops against a sorted-list reference model:
     the heap must return exactly the reference's (time, seq, value)
     sequence, including FIFO order on time ties. *)
  QCheck.Test.make ~name:"pqueue matches sorted reference model" ~count:100
    QCheck.(list (pair (int_bound 100) bool))
    (fun script ->
      let q = Sim.Pqueue.create () in
      let model = ref [] in
      (* sorted by (time, seq) *)
      let seq = ref 0 in
      let insert (t, s, v) =
        let rec go = function
          | [] -> [ (t, s, v) ]
          | ((t', s', _) as hd) :: tl ->
              if (t, s) < (t', s') then (t, s, v) :: hd :: tl else hd :: go tl
        in
        model := go !model
      in
      List.for_all
        (fun (t, is_pop) ->
          if is_pop then
            match (Sim.Pqueue.pop q, !model) with
            | None, [] -> true
            | Some got, expect :: tl ->
                model := tl;
                got = expect
            | _ -> false
          else begin
            incr seq;
            Sim.Pqueue.push q ~time:t ~seq:!seq !seq;
            insert (t, !seq, !seq);
            true
          end)
        script
      &&
      let rec drain () =
        match (Sim.Pqueue.pop q, !model) with
        | None, [] -> true
        | Some got, expect :: tl ->
            model := tl;
            got = expect && drain ()
        | _ -> false
      in
      drain ())

let pqueue_peek_payload_and_pop_into () =
  let q = Sim.Pqueue.create () in
  Alcotest.check_raises "peek_payload on empty"
    (Invalid_argument "Pqueue.peek_payload: empty queue") (fun () ->
      ignore (Sim.Pqueue.peek_payload q));
  let sl = Sim.Pqueue.slot ~dummy:"-" in
  Alcotest.(check bool) "pop_into on empty" false (Sim.Pqueue.pop_into q sl);
  Sim.Pqueue.push q ~time:40 ~seq:0 "b";
  Sim.Pqueue.push q ~time:10 ~seq:1 "a";
  check Alcotest.string "peek_payload sees min" "a" (Sim.Pqueue.peek_payload q);
  checki "peek does not pop" 2 (Sim.Pqueue.length q);
  Alcotest.(check bool) "pops head" true (Sim.Pqueue.pop_into q sl);
  checki "slot time" 10 sl.Sim.Pqueue.s_time;
  checki "slot seq" 1 sl.Sim.Pqueue.s_seq;
  check Alcotest.string "slot value" "a" sl.Sim.Pqueue.s_val;
  Alcotest.(check bool) "slot reused" true (Sim.Pqueue.pop_into q sl);
  checki "reused slot time" 40 sl.Sim.Pqueue.s_time;
  check Alcotest.string "reused slot value" "b" sl.Sim.Pqueue.s_val;
  Alcotest.(check bool) "drained" true (Sim.Pqueue.is_empty q);
  Alcotest.(check bool) "pop_into after drain" false (Sim.Pqueue.pop_into q sl)

(* ---- Rng ---- *)

let rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    check64 "same stream" (Sim.Rng.next64 a) (Sim.Rng.next64 b)
  done

let rng_split_independent () =
  let a = Sim.Rng.create 7 in
  let c = Sim.Rng.split a in
  Alcotest.(check bool) "split differs" true (Sim.Rng.next64 a <> Sim.Rng.next64 c)

(* Known answers.  [create 0] must give the published SplitMix64 vectors;
   the seed-7 draws pin each derived function's mapping from the raw
   stream, so any change to the stream fails here and not only in a
   figure digest. *)
let rng_known_answers () =
  let r = Sim.Rng.create 0 in
  List.iter
    (fun v -> check64 "splitmix64 vector" v (Sim.Rng.next64 r))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ];
  let r = Sim.Rng.create 7 in
  check Alcotest.(list int) "int" [ 621; 951; 336; 50; 918 ]
    (List.init 5 (fun _ -> Sim.Rng.int r 1000));
  checki "int max_int" 1150299863866387076 (Sim.Rng.int r max_int);
  check Alcotest.(list int64) "int64"
    [ 653711435899L; 821841694591L; 238945538992L ]
    (List.init 3 (fun _ -> Sim.Rng.int64 r 1_000_000_000_000L));
  check Alcotest.(list (float 0.))
    "float"
    [ 0x1.a70e89da21e54p-2; 0x1.a82e79b05b5f8p-4; 0x1.eb749d6e51bacp-1 ]
    (List.init 3 (fun _ -> Sim.Rng.float r));
  check Alcotest.(list bool) "bool"
    [ false; false; false; false; true; true; true; false ]
    (List.init 8 (fun _ -> Sim.Rng.bool r));
  let c = Sim.Rng.split r in
  check64 "split child 1" 0x71aabb39d2275ec5L (Sim.Rng.next64 c);
  check64 "split child 2" 0xfcd94f15f35a483dL (Sim.Rng.next64 c);
  check64 "parent after split" 0x1b5051c62d0332cdL (Sim.Rng.next64 r)

(* Draws must not box the generator state.  [int] and [bool] return
   immediates, so they allocate nothing.  [int64] and [float] results
   cross the module boundary boxed (3 and 2 words) when the caller cannot
   inline them, as under the default -opaque dev profile; the consumer
   here unboxes them straight away, so that box is all they may cost. *)
let rng_draws_do_not_allocate () =
  let n = 10_000 in
  let words_per_draw draws =
    let r = Sim.Rng.create 1 in
    let before = Gc.minor_words () in
    let acc = draws r n in
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity acc);
    int_of_float (words /. float_of_int n)
  in
  let int r n =
    let acc = ref 0 in
    for _ = 1 to n do acc := !acc + Sim.Rng.int r 100 done;
    !acc
  in
  let bool r n =
    let acc = ref 0 in
    for _ = 1 to n do if Sim.Rng.bool r then incr acc done;
    !acc
  in
  let int64 r n =
    let acc = ref 0 in
    for _ = 1 to n do acc := !acc + Int64.to_int (Sim.Rng.int64 r 100L) done;
    !acc
  in
  let float r n =
    let acc = ref 0 in
    for _ = 1 to n do if Sim.Rng.float r < 0.5 then incr acc done;
    !acc
  in
  checki "int words/draw" 0 (words_per_draw int);
  checki "bool words/draw" 0 (words_per_draw bool);
  Alcotest.(check bool) "int64 words/draw <= 3" true (words_per_draw int64 <= 3);
  Alcotest.(check bool) "float words/draw <= 2" true (words_per_draw float <= 2)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_range 1 1000000) small_int)
    (fun (bound, seed) ->
      let r = Sim.Rng.create seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

(* ---- Engine ---- *)

let engine_delay_advances_clock () =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.delay 100L));
  Sim.Engine.run eng;
  check64 "clock" 100L (Sim.Engine.now eng)

let engine_accounting () =
  let eng = Sim.Engine.create () in
  let ctx =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.delay ~cat:Sim.Engine.User 50L;
        Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"fault" 70L;
        Sim.Engine.idle_wait 30L)
  in
  Sim.Engine.run eng;
  checki "user" 50 ctx.Sim.Engine.user;
  checki "sys" 70 ctx.Sim.Engine.sys;
  checki "idle" 30 ctx.Sim.Engine.idle;
  check64 "label" 70L (Sim.Engine.label_get ctx "fault");
  check64 "absent label" 0L (Sim.Engine.label_get ctx "nope");
  Alcotest.(check (list (pair string int64)))
    "labels list" [ ("fault", 70L) ] (Sim.Engine.labels ctx);
  check64 "total time" 150L (Sim.Engine.now eng)

let engine_parallel_fibers_overlap () =
  (* Two fibers each delaying 100 cycles run concurrently in virtual time. *)
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 (fun () -> Sim.Engine.delay 100L));
  ignore (Sim.Engine.spawn eng ~core:1 (fun () -> Sim.Engine.delay 100L));
  Sim.Engine.run eng;
  check64 "overlapped" 100L (Sim.Engine.now eng)

let engine_suspend_resume () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  let woken = ref false in
  ignore
    (Sim.Engine.spawn eng ~name:"waiter" (fun () ->
         Sim.Engine.suspend (fun resume -> resume_cell := Some resume);
         woken := true));
  ignore
    (Sim.Engine.spawn eng ~name:"waker" (fun () ->
         Sim.Engine.delay 500L;
         match !resume_cell with Some r -> r () | None -> Alcotest.fail "not registered"));
  Sim.Engine.run eng;
  Alcotest.(check bool) "woken" true !woken;
  checki "no stuck fibers" 0 (Sim.Engine.live_fibers eng)

let engine_idle_accounted_on_suspend () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  let ctx =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.suspend (fun resume -> resume_cell := Some resume))
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 400L;
         Option.get !resume_cell ()));
  Sim.Engine.run eng;
  checki "idle = blocked time" 400 ctx.Sim.Engine.idle

let engine_double_resume_rejected () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.suspend (fun resume -> resume_cell := Some resume)));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         let r = Option.get !resume_cell in
         r ();
         Alcotest.check_raises "second resume raises"
           (Invalid_argument "fiber fiber: resumed twice") (fun () -> r ())));
  Sim.Engine.run eng

let engine_deterministic () =
  let trace seed =
    let eng = Sim.Engine.create ~seed () in
    let log = Buffer.create 64 in
    for i = 0 to 4 do
      ignore
        (Sim.Engine.spawn eng ~core:i (fun () ->
             Sim.Engine.delay (Int64.of_int (Sim.Rng.int (Sim.Engine.rng eng) 100));
             Buffer.add_string log (Printf.sprintf "%d@%Ld;" i (Sim.Engine.now_f ()))))
    done;
    Sim.Engine.run eng;
    Buffer.contents log
  in
  check Alcotest.string "same trace" (trace 3) (trace 3)

let engine_blocked_fibers_reports_deadlock () =
  (* Two fibers park forever on suspend; the engine drains its runnable
     queue and [blocked_fibers] names who is stuck, for deadlock triage. *)
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"stuck-a" ~core:0 (fun () ->
         Sim.Engine.suspend (fun _resume -> ())));
  ignore
    (Sim.Engine.spawn eng ~name:"stuck-b" ~core:2 (fun () ->
         Sim.Engine.delay 10L;
         Sim.Engine.suspend (fun _resume -> ())));
  ignore (Sim.Engine.spawn eng ~name:"fine" (fun () -> Sim.Engine.delay 5L));
  Sim.Engine.run eng;
  checki "two stuck" 2 (Sim.Engine.live_fibers eng);
  Alcotest.(check (list (pair int string)))
    "who and where"
    [ (0, "stuck-a"); (2, "stuck-b") ]
    (Sim.Engine.blocked_fibers eng)

let engine_blocked_report_breaks_down_costs () =
  (* The deadlock report names each parked fiber and itemizes where its
     cycles went, so a fiber stuck after fault-injection retries
     ("io_retry" cycles) reads differently from one waiting on a lock. *)
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"retrier" ~core:1 (fun () ->
         Sim.Engine.delay ~label:"io_retry" 40_000L;
         Sim.Engine.suspend (fun _resume -> ())));
  ignore (Sim.Engine.spawn eng ~name:"fine" (fun () -> Sim.Engine.delay 5L));
  Sim.Engine.run eng;
  let report = Sim.Engine.blocked_report eng in
  let contains sub =
    let n = String.length sub and m = String.length report in
    let rec go i = i + n <= m && (String.sub report i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counts the stuck fibers" true
    (contains "1 fiber(s) blocked");
  Alcotest.(check bool) "names the fiber" true (contains "\"retrier\"");
  Alcotest.(check bool) "itemizes its labels" true (contains "io_retry");
  Alcotest.(check bool) "finished fiber absent" true (not (contains "fine"))

(* A deliberately messy engine workload: per-core rng delays, idle
   waits, suspend/resume pairs and external posts on 6 cores. *)
let mixed_workload eng =
  let ncores = 6 in
  let log = Buffer.create 512 in
  let resume_cell = ref None in
  for core = 0 to ncores - 1 do
    ignore
      (Sim.Engine.spawn eng ~core ~name:(Printf.sprintf "w%d" core) (fun () ->
           let rng = Sim.Rng.create (100 + core) in
           for op = 1 to 20 do
             Sim.Engine.delay ~label:"work"
               (Int64.of_int (1 + Sim.Rng.int rng 30));
             if Sim.Rng.int rng 5 = 0 then Sim.Engine.idle_wait 17L;
             if core = 0 && op = 5 then
               Sim.Engine.suspend (fun resume -> resume_cell := Some resume);
             if core = 1 && op = 10 then (
               match !resume_cell with Some r -> r () | None -> ());
             Buffer.add_string log
               (Printf.sprintf "%d.%d@%Ld;" core op (Sim.Engine.now_f ()))
           done))
  done;
  for i = 0 to 9 do
    Sim.Engine.post eng
      ~at:(Int64.of_int (37 * (i + 1)))
      (fun () -> Buffer.add_string log (Printf.sprintf "p%d;" i))
  done;
  Sim.Engine.run eng;
  (Sim.Engine.events eng, Sim.Engine.now eng, Buffer.contents log)

let engine_fastpath_matches_queued () =
  (* The delay fast path must be invisible: same seed with the fast path
     on and off gives identical event counts, final times, per-fiber
     accounting and interleaving — also with posts, suspend/resume and
     idle waits mixed in across 6 cores. *)
  let run fastpath =
    let eng = Sim.Engine.create ~seed:11 ~fastpath () in
    let log = Buffer.create 256 in
    let ctxs =
      List.init 3 (fun i ->
          Sim.Engine.spawn eng ~core:i (fun () ->
              let rng = Sim.Engine.rng eng in
              for _ = 1 to 50 do
                Sim.Engine.delay ~label:"work"
                  (Int64.of_int (1 + Sim.Rng.int rng 40));
                if Sim.Rng.int rng 4 = 0 then Sim.Engine.idle_wait 25L;
                Buffer.add_string log
                  (Printf.sprintf "%d@%Ld;" i (Sim.Engine.now_f ()))
              done))
    in
    Sim.Engine.run eng;
    let acct =
      List.map
        (fun c ->
          (c.Sim.Engine.user, c.Sim.Engine.idle, Sim.Engine.label_get c "work"))
        ctxs
    in
    (Sim.Engine.events eng, Sim.Engine.now eng, Buffer.contents log, acct)
  in
  let e1, t1, l1, a1 = run true and e2, t2, l2, a2 = run false in
  checki "same event count" e2 e1;
  check64 "same final time" t2 t1;
  check Alcotest.string "same interleaving" l2 l1;
  Alcotest.(check bool) "same accounting" true (a1 = a2);
  let mixed fastpath = mixed_workload (Sim.Engine.create ~seed:9 ~fastpath ()) in
  let e1, t1, l1 = mixed true and e2, t2, l2 = mixed false in
  checki "mixed: same event count" e2 e1;
  check64 "mixed: same final time" t2 t1;
  check Alcotest.string "mixed: same interleaving" l2 l1

let engine_post_and_run () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.post eng ~at:200L (fun () -> log := 200 :: !log);
  Sim.Engine.post eng ~at:50L (fun () -> log := 50 :: !log);
  Sim.Engine.post eng ~at:500L (fun () -> log := 500 :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "posts run in time order" [ 50; 200; 500 ]
    (List.rev !log);
  check64 "clock at last post" 500L (Sim.Engine.now eng)

let sink_captures_and_restores () =
  let (), captured =
    Sim.Sink.capture (fun () ->
        Sim.Sink.printf "a=%d " 1;
        let (), inner = Sim.Sink.capture (fun () -> Sim.Sink.printf "inner") in
        check Alcotest.string "nested capture" "inner" inner;
        Sim.Sink.printf "b=%d" 2;
        Sim.Sink.print_newline ())
  in
  check Alcotest.string "outer capture" "a=1 b=2\n" captured

let engine_blocked_fibers_empty_when_clean () =
  let eng = Sim.Engine.create () in
  let resume_cell = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.suspend (fun resume -> resume_cell := Some resume)));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 100L;
         Option.get !resume_cell ()));
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "nothing blocked after clean run" [] (Sim.Engine.blocked_fibers eng)

(* ---- Sync ---- *)

let mutex_excludes () =
  let eng = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 3 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           Sim.Sync.Mutex.lock m;
           incr inside;
           max_inside := max !max_inside !inside;
           Sim.Engine.delay 100L;
           decr inside;
           Sim.Sync.Mutex.unlock m))
  done;
  Sim.Engine.run eng;
  checki "mutual exclusion" 1 !max_inside;
  checki "acquisitions" 4 (Sim.Sync.Mutex.acquisitions m);
  Alcotest.(check bool) "contention recorded" true
    (Sim.Sync.Mutex.contended_cycles m > 0L)

let mutex_fifo () =
  let eng = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  let order = ref [] in
  for i = 0 to 3 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           Sim.Engine.delay (Int64.of_int i);
           (* stagger arrivals *)
           Sim.Sync.Mutex.lock m;
           order := i :: !order;
           Sim.Engine.delay 50L;
           Sim.Sync.Mutex.unlock m))
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3 ] (List.rev !order)

let resource_capacity () =
  let eng = Sim.Engine.create () in
  let r = Sim.Sync.Resource.create ~capacity:2 () in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 5 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           Sim.Sync.Resource.acquire r;
           incr inside;
           max_inside := max !max_inside !inside;
           Sim.Engine.idle_wait 100L;
           decr inside;
           Sim.Sync.Resource.release r))
  done;
  Sim.Engine.run eng;
  checki "capacity bound" 2 !max_inside;
  (* 6 jobs, 2 at a time, 100 cycles each -> 300 cycles *)
  check64 "makespan" 300L (Sim.Engine.now eng)

let barrier_synchronizes_rounds () =
  let eng = Sim.Engine.create () in
  let b = Sim.Sync.Barrier.create ~parties:4 in
  let log = ref [] in
  for i = 0 to 3 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           for round = 1 to 3 do
             Sim.Engine.delay (Int64.of_int ((i * 13) + 5));
             log := (round, i) :: !log;
             Sim.Sync.Barrier.await b
           done))
  done;
  Sim.Engine.run eng;
  (* every fiber finishes round r before any fiber starts round r+1 *)
  let rounds = List.rev_map fst !log in
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "rounds in order" true (monotone rounds);
  checki "all events" 12 (List.length !log);
  checki "barrier reset" 0 (Sim.Sync.Barrier.waiting b)

let ivar_blocks_until_filled () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Sync.Ivar.create () in
  let got = ref 0 in
  ignore (Sim.Engine.spawn eng (fun () -> got := Sim.Sync.Ivar.read iv));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 200L;
         Sim.Sync.Ivar.fill iv 42));
  Sim.Engine.run eng;
  checki "value" 42 !got

let waitq_signal_broadcast () =
  let eng = Sim.Engine.create () in
  let q = Sim.Sync.Waitq.create () in
  let woke = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Sync.Waitq.wait q;
           incr woke))
  done;
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Alcotest.(check bool) "signal one" true (Sim.Sync.Waitq.signal q);
         Sim.Engine.delay 10L;
         checki "broadcast rest" 2 (Sim.Sync.Waitq.broadcast q)));
  Sim.Engine.run eng;
  checki "all woke" 3 !woke

(* ---- Costbuf ---- *)

let costbuf_charges_once () =
  let eng = Sim.Engine.create () in
  let ctx =
    Sim.Engine.spawn eng (fun () ->
        let b = Sim.Costbuf.create () in
        Sim.Costbuf.add b "x" 30L;
        Sim.Costbuf.add b "y" 70L;
        Sim.Costbuf.add b "x" 10L;
        check64 "total" 110L (Sim.Costbuf.total b);
        Sim.Costbuf.charge b;
        check64 "reset" 0L (Sim.Costbuf.total b))
  in
  Sim.Engine.run eng;
  check64 "time" 110L (Sim.Engine.now eng);
  check64 "label x" 40L (Sim.Engine.label_get ctx "x");
  check64 "label y" 70L (Sim.Engine.label_get ctx "y")

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick pqueue_order;
          Alcotest.test_case "fifo on ties" `Quick pqueue_fifo_ties;
          Alcotest.test_case "min_time / pop_min" `Quick
            pqueue_min_time_and_pop_min;
          Alcotest.test_case "peek_payload / pop_into" `Quick
            pqueue_peek_payload_and_pop_into;
          QCheck_alcotest.to_alcotest pqueue_prop;
          QCheck_alcotest.to_alcotest pqueue_vs_reference;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split" `Quick rng_split_independent;
          Alcotest.test_case "known answers" `Quick rng_known_answers;
          Alcotest.test_case "draws do not allocate" `Quick rng_draws_do_not_allocate;
          QCheck_alcotest.to_alcotest rng_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick engine_delay_advances_clock;
          Alcotest.test_case "accounting" `Quick engine_accounting;
          Alcotest.test_case "parallel overlap" `Quick engine_parallel_fibers_overlap;
          Alcotest.test_case "suspend/resume" `Quick engine_suspend_resume;
          Alcotest.test_case "idle on suspend" `Quick engine_idle_accounted_on_suspend;
          Alcotest.test_case "double resume" `Quick engine_double_resume_rejected;
          Alcotest.test_case "deterministic" `Quick engine_deterministic;
          Alcotest.test_case "fastpath invisible" `Quick
            engine_fastpath_matches_queued;
          Alcotest.test_case "blocked fibers named" `Quick
            engine_blocked_fibers_reports_deadlock;
          Alcotest.test_case "blocked fibers empty" `Quick
            engine_blocked_fibers_empty_when_clean;
          Alcotest.test_case "blocked report breakdown" `Quick
            engine_blocked_report_breaks_down_costs;
          Alcotest.test_case "post / run" `Quick engine_post_and_run;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex excludes" `Quick mutex_excludes;
          Alcotest.test_case "mutex fifo" `Quick mutex_fifo;
          Alcotest.test_case "resource capacity" `Quick resource_capacity;
          Alcotest.test_case "barrier" `Quick barrier_synchronizes_rounds;
          Alcotest.test_case "ivar" `Quick ivar_blocks_until_filled;
          Alcotest.test_case "waitq" `Quick waitq_signal_broadcast;
        ] );
      ("costbuf", [ Alcotest.test_case "labels and charge" `Quick costbuf_charges_once ]);
      ("sink", [ Alcotest.test_case "capture" `Quick sink_captures_and_restores ]);
    ]
