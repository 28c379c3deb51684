(* Tests for the fault-injection layer (lib/fault) and the
   crash-consistency checker (lib/fault/check.ml). *)

let psz = Hw.Defs.page_size
let c = Hw.Costs.default
let checki = Alcotest.(check int)

(* ---- Plan spec parsing ---- *)

let spec_roundtrip () =
  let specs =
    [
      Fault.Plan.default;
      {
        Fault.Plan.seed = 11;
        read_error = 0.001;
        write_error = 0.002;
        permanent = 0.25;
        torn_write = 0.5;
        latency_spike = 0.01;
        spike_factor = 8;
        crash_at = Some 120000;
        node = None;
      };
      { Fault.Plan.default with Fault.Plan.crash_at = Some 1 };
      { Fault.Plan.default with Fault.Plan.crash_at = Some 9; node = Some 2 };
    ]
  in
  List.iter
    (fun s ->
      match Fault.Plan.parse (Fault.Plan.to_string s) with
      | Ok s' ->
          Alcotest.(check bool) (Fault.Plan.to_string s) true (s = s')
      | Error m -> Alcotest.fail m)
    specs;
  (match Fault.Plan.parse "" with
  | Ok s -> Alcotest.(check bool) "empty is default" true (s = Fault.Plan.default)
  | Error m -> Alcotest.fail m);
  (match Fault.Plan.parse "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  match Fault.Plan.parse "read=oops" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value accepted"

(* ---- Draw determinism ---- *)

let draw_sequence spec =
  let p = Fault.Plan.make spec in
  let out = ref [] in
  let push s = out := s :: !out in
  for i = 0 to 199 do
    (match Fault.draw_read p ~dev:"d" ~page:i ~count:2 with
    | None -> push "r-ok"
    | Some e -> push ("r-" ^ Fault.error_to_string e));
    (match Fault.draw_write p ~dev:"d" ~page:(1000 + i) ~count:3 with
    | Fault.W_ok -> push "w-ok"
    | Fault.W_error e -> push ("w-" ^ Fault.error_to_string e)
    | Fault.W_torn n -> push (Printf.sprintf "w-torn%d" n));
    push (string_of_int (Fault.draw_spike p))
  done;
  (List.rev !out, Fault.Plan.counters p)

let draws_deterministic () =
  let spec =
    {
      Fault.Plan.default with
      Fault.Plan.read_error = 0.3;
      write_error = 0.3;
      torn_write = 0.5;
      latency_spike = 0.2;
      spike_factor = 8;
    }
  in
  let s1, c1 = draw_sequence spec in
  let s2, c2 = draw_sequence spec in
  Alcotest.(check (list string)) "same seed, same draws" s1 s2;
  Alcotest.(check (list (pair string int))) "same counters" c1 c2;
  let s3, _ = draw_sequence { spec with Fault.Plan.seed = spec.Fault.Plan.seed + 1 } in
  Alcotest.(check bool) "different seed, different draws" true (s1 <> s3)

let zero_probability_draws_nothing () =
  let s, counters = draw_sequence Fault.Plan.default in
  Alcotest.(check bool) "no injected faults" true
    (List.for_all (fun x -> x = "r-ok" || x = "w-ok" || x = "1") s);
  List.iter
    (fun (name, n) -> if name <> "probes" then checki name 0 n)
    counters

(* ---- Crash at an exact event ---- *)

let crash_at_exact_event () =
  let spec = { Fault.Plan.default with Fault.Plan.crash_at = Some 500 } in
  let run () =
    try
      Fault.with_plan (Fault.Plan.make spec) (fun () ->
          let eng = Sim.Engine.create () in
          ignore
            (Sim.Engine.spawn eng ~core:0 (fun () ->
                 for _ = 1 to 10_000 do
                   Sim.Engine.delay 10L
                 done));
          Sim.Engine.run eng;
          Alcotest.fail "expected a crash")
    with Fault.Crash { at_event } -> at_event
  in
  let a = run () in
  let b = run () in
  checki "same event on repeat" a b;
  Alcotest.(check bool) "at or just after the ordinal" true (a >= 500 && a <= 505)

(* ---- Access-layer retry policy ---- *)

let retry_exhaustion_and_backoff () =
  let spec = { Fault.Plan.default with Fault.Plan.read_error = 1.0 } in
  let plan = Fault.Plan.make spec in
  let final = ref 0L in
  Fault.with_plan plan (fun () ->
      let eng = Sim.Engine.create () in
      let dev = Sdevice.Nvme.create ~name:"t-nvme" () in
      let acc = Sdevice.Access.spdk_nvme c dev in
      let dst = Bytes.create psz in
      let raised = ref false in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             match Sdevice.Access.read_pages acc ~page:0 ~count:1 ~dst with
             | () -> ()
             | exception Fault.Io_error { write = false; error = Fault.Transient; _ }
               ->
                 raised := true));
      Sim.Engine.run eng;
      Alcotest.(check bool) "transient read error surfaced" true !raised;
      final := Sim.Engine.now eng);
  checki "4 retries before giving up" 4 (Fault.Plan.retries plan);
  (* exponential virtual-time backoff: 20k + 40k + 80k + 160k cycles *)
  Alcotest.(check bool)
    (Printf.sprintf "backoff advanced virtual time (%Ld)" !final)
    true
    (!final >= 300_000L)

let permanent_fails_fast_and_sticks () =
  let spec =
    { Fault.Plan.default with Fault.Plan.read_error = 1.0; permanent = 1.0 }
  in
  let plan = Fault.Plan.make spec in
  Fault.with_plan plan (fun () ->
      let eng = Sim.Engine.create () in
      let dev = Sdevice.Nvme.create ~name:"t-nvme" () in
      let acc = Sdevice.Access.spdk_nvme c dev in
      let dst = Bytes.create psz in
      let errors = ref [] in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             for _ = 1 to 2 do
               match Sdevice.Access.read_pages acc ~page:7 ~count:1 ~dst with
               | () -> ()
               | exception Fault.Io_error { error; _ } -> errors := error :: !errors
             done));
      Sim.Engine.run eng;
      Alcotest.(check bool) "both permanent" true
        (!errors = [ Fault.Permanent; Fault.Permanent ]));
  checki "no retries on permanent failures" 0 (Fault.Plan.retries plan)

(* ---- Torn writes ---- *)

let torn_write_persists_page_prefix () =
  let spec =
    { Fault.Plan.default with Fault.Plan.write_error = 1.0; torn_write = 1.0 }
  in
  let plan = Fault.Plan.make spec in
  let dev = ref None in
  Fault.with_plan plan (fun () ->
      let eng = Sim.Engine.create () in
      let d = Sdevice.Nvme.create ~name:"t-nvme" () in
      dev := Some d;
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             let src = Bytes.make (4 * psz) 'T' in
             match
               Sdevice.Block_dev.write_result d ~addr:0L ~src ~src_off:0
                 ~len:(4 * psz)
             with
             | Ok () -> Alcotest.fail "expected the write to fail"
             | Error Fault.Transient -> ()
             | Error Fault.Permanent -> Alcotest.fail "permanent with perm=0"));
      Sim.Engine.run eng);
  Alcotest.(check bool) "torn write counted" true (Fault.Plan.torn_writes plan >= 1);
  (* the device holds a strict page-aligned prefix of the span: whole
     pages of 'T', then untouched zeros — never a partial page *)
  let store = Sdevice.Block_dev.store (Option.get !dev) in
  let page_bytes p =
    let b = Bytes.create psz in
    Sdevice.Pagestore.read_page store ~page:p ~dst:b;
    b
  in
  let uniform b ch =
    let ok = ref true in
    Bytes.iter (fun x -> if x <> ch then ok := false) b;
    !ok
  in
  let n = ref 0 in
  while !n < 4 && uniform (page_bytes !n) 'T' do
    incr n
  done;
  Alcotest.(check bool) "strict prefix" true (!n < 4);
  for p = !n to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "page %d untouched" p)
      true
      (uniform (page_bytes p) '\000')
  done

(* ---- SIGBUS through the DRAM cache ---- *)

let make_cache_rig () =
  let machine = Hw.Machine.create () in
  let pt = Hw.Page_table.create () in
  let cache =
    Mcache.Dram_cache.create ~costs:c ~machine ~page_table:pt
      (Mcache.Dram_cache.default_config ~frames:16)
  in
  let dev = Sdevice.Nvme.create ~name:"t-nvme" () in
  let access = Sdevice.Access.spdk_nvme c dev in
  Mcache.Dram_cache.register_file cache ~file_id:1 ~access
    ~translate:(fun p -> if p < 256 then Some p else None);
  Mcache.Dram_cache.set_shoot_cores cache [ 0 ];
  (cache, pt)

let key p = Mcache.Pagekey.make ~file:1 ~page:p

let sigbus_on_unreadable_page () =
  let spec =
    { Fault.Plan.default with Fault.Plan.read_error = 1.0; permanent = 1.0 }
  in
  let plan = Fault.Plan.make spec in
  let cache = ref None in
  Fault.with_plan plan (fun () ->
      let ca, _pt = make_cache_rig () in
      cache := Some ca;
      let eng = Sim.Engine.create () in
      let got = ref false in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             try
               Mcache.Dram_cache.fault ca ~core:0 ~key:(key 3) ~vpn:10
                 ~write:false ()
             with Fault.Sigbus { file = 1; page = 3 } -> got := true));
      Sim.Engine.run eng;
      Alcotest.(check bool) "sigbus delivered with file/page" true !got);
  checki "cache counted it" 1 (Mcache.Dram_cache.sigbus_count (Option.get !cache));
  checki "plan counted it" 1 (Fault.Plan.sigbus_count plan)

(* ---- Degradation to read-only ---- *)

let degrade_to_read_only_after_error_storm () =
  let spec = { Fault.Plan.default with Fault.Plan.write_error = 1.0 } in
  let plan = Fault.Plan.make spec in
  let cache = ref None in
  Fault.with_plan plan (fun () ->
      let ca, _pt = make_cache_rig () in
      cache := Some ca;
      let eng = Sim.Engine.create () in
      ignore
        (Sim.Engine.spawn eng ~core:0 (fun () ->
             Mcache.Dram_cache.fault ca ~core:0 ~key:(key 0) ~vpn:10 ~write:true ();
             (* every write-back round fails: msync refuses to ack (it
                raises Io_error, the page stays dirty) and after the
                streak limit the cache refuses new writes rather than
                acknowledging data it can no longer make durable *)
             for _ = 1 to 8 do
               match Mcache.Dram_cache.msync ca ~core:0 () with
               | () -> Alcotest.fail "msync acked a failed flush"
               | exception Fault.Io_error { write = true; _ } -> ()
             done;
             Alcotest.(check bool) "degraded" true (Mcache.Dram_cache.degraded ca);
             Alcotest.(check bool) "failed pages stayed dirty" true
               (Mcache.Dram_cache.dirty_pages ca >= 1);
             try
               Mcache.Dram_cache.fault ca ~core:0 ~key:(key 1) ~vpn:11 ~write:true ();
               Alcotest.fail "expected Read_only"
             with Fault.Read_only _ -> ()));
      Sim.Engine.run eng);
  let ca = Option.get !cache in
  Alcotest.(check bool) "write-back errors counted" true
    (Mcache.Dram_cache.wb_errors ca >= 8);
  Alcotest.(check bool) "plan write errors counted" true
    (Fault.Plan.write_errors plan >= 8);
  (* a reboot clears the degradation along with the volatile state *)
  Mcache.Dram_cache.crash ca;
  Alcotest.(check bool) "crash resets read-only" false (Mcache.Dram_cache.degraded ca)

(* ---- The shared sweep harness (Fault.Sweep) ---- *)

(* A synthetic workload: records every spec it ran under, reports
   [events] events, crashes whenever a crash is armed, and lets the
   caller pick the fingerprint of each call. *)
let synthetic ?(events = 1000) ~fingerprint () =
  let calls = ref [] in
  let once ~seed ~(spec : Fault.Plan.spec) =
    calls := (seed, spec) :: !calls;
    {
      Fault.Sweep.crashed = spec.Fault.Plan.crash_at <> None;
      events;
      fingerprint = fingerprint (List.length !calls);
      violations = [];
    }
  in
  (once, fun () -> List.rev !calls)

let sweep_nondeterminism_gate () =
  (* probes of one seed are calls 1 and 2 of 1 + 2 + points calls *)
  let once, _ =
    synthetic ~fingerprint:(fun n -> if n mod 2 = 0 then "even" else "odd") ()
  in
  let r =
    Fault.Sweep.run ~mode:"syn" ~spec:Fault.Plan.default ~seeds:[ 4; 9 ]
      ~points:2 once
  in
  Alcotest.(check (list string))
    "one violation per seed, labelled with the seed"
    [
      "[syn seed=4] nondeterministic: events 1000/1000, fingerprints differ";
      "[syn seed=9] nondeterministic: events 1000/1000, fingerprints differ";
    ]
    r.Fault.Report.violations;
  let once, _ = synthetic ~fingerprint:(fun _ -> "same") () in
  let r =
    Fault.Sweep.run ~mode:"syn" ~spec:Fault.Plan.default ~seeds:[ 4; 9 ]
      ~points:2 once
  in
  Alcotest.(check (list string)) "stable fingerprint passes" []
    r.Fault.Report.violations

let sweep_combos_and_ordinals () =
  let events = 777 and points = 5 and seeds = [ 1; 2; 3 ] in
  let want = List.init points (fun i -> max 1 (events * (i + 1) / (points + 1))) in
  let once, calls = synthetic ~events ~fingerprint:(fun _ -> "") () in
  let r =
    Fault.Sweep.run ~mode:"syn" ~spec:Fault.Plan.default ~seeds ~points
      ~targets:[ 0; 1 ] once
  in
  checki "combos = seeds x points x targets" (3 * points * 2) r.Fault.Report.combos;
  checki "every combo crashed" r.Fault.Report.combos r.Fault.Report.crashes;
  let crash_specs =
    List.filter (fun (_, s) -> s.Fault.Plan.crash_at <> None) (calls ())
  in
  Alcotest.(check (list (pair int (pair int int))))
    "ordinal-major, target-minor crash plans per seed"
    (List.concat_map
       (fun seed ->
         List.concat_map (fun at -> [ (seed, (at, 0)); (seed, (at, 1)) ]) want)
       seeds)
    (List.map
       (fun (seed, s) ->
         (seed, (Option.get s.Fault.Plan.crash_at, Option.get s.Fault.Plan.node)))
       crash_specs);
  checki "two probes per seed" (2 * 3)
    (List.length (calls ()) - List.length crash_specs);
  (* without targets the caller's node is left alone *)
  let once, calls = synthetic ~fingerprint:(fun _ -> "") () in
  let spec = { Fault.Plan.default with Fault.Plan.node = Some 5 } in
  let r = Fault.Sweep.run ~mode:"syn" ~spec ~seeds:[ 1 ] ~points:3 once in
  checki "combos = seeds x points" 3 r.Fault.Report.combos;
  Alcotest.(check bool) "node untouched" true
    (List.for_all (fun (_, s) -> s.Fault.Plan.node = Some 5) (calls ()));
  (* a run shorter than the point count still crashes at event >= 1 *)
  let once, calls = synthetic ~events:2 ~fingerprint:(fun _ -> "") () in
  ignore
    (Fault.Sweep.run ~mode:"syn" ~spec:Fault.Plan.default ~seeds:[ 1 ]
       ~points:2 once);
  Alcotest.(check (list (option int))) "tiny run clamps to 1"
    [ None; None; Some 1; Some 1 ]
    (List.map (fun (_, s) -> s.Fault.Plan.crash_at) (calls ()))

let sweep_labels () =
  let once ~seed:_ ~(spec : Fault.Plan.spec) =
    {
      Fault.Sweep.crashed = true;
      events = 30;
      fingerprint = "";
      violations =
        (if spec.Fault.Plan.crash_at = None then [] else [ "boom" ]);
    }
  in
  let r =
    Fault.Sweep.run ~mode:"m" ~spec:Fault.Plan.default ~seeds:[ 7 ] ~points:1
      ~targets:[ 2 ] once
  in
  Alcotest.(check (list string)) "with targets"
    [ "[m seed=7 crash=15 node=2] boom" ] r.Fault.Report.violations;
  let r =
    Fault.Sweep.run ~mode:"m" ~spec:Fault.Plan.default ~seeds:[ 7 ] ~points:1 once
  in
  Alcotest.(check (list string)) "without targets"
    [ "[m seed=7 crash=15] boom" ] r.Fault.Report.violations

(* ---- The acknowledged-write KV oracle (Fault.Kv_oracle) ---- *)

let kv_oracle_verdicts () =
  let o = Fault.Kv_oracle.create () in
  Fault.Kv_oracle.write o ~key:"a" ~op:1 "a1";
  Fault.Kv_oracle.ack o ~key:"a" ~op:1;
  Fault.Kv_oracle.write o ~key:"a" ~op:2 "a2";
  Fault.Kv_oracle.ack o ~key:"a" ~op:2;
  Fault.Kv_oracle.write o ~key:"a" ~op:3 "a3";
  Fault.Kv_oracle.write o ~key:"b" ~op:4 "b4";
  let check name want key got =
    Alcotest.(check (option string)) name want (Fault.Kv_oracle.check o ~key got)
  in
  check "lost" (Some "key a lost: acked at op 2") "a" None;
  check "stale" (Some "key a stale: returned op 1 but op 2 was acked") "a" (Some "a1");
  check "foreign" (Some "key a returned foreign bytes \"b4\"") "a" (Some "b4");
  check "acked value accepted" None "a" (Some "a2");
  check "later unacked value accepted" None "a" (Some "a3");
  check "unacked and absent accepted" None "b" None;
  check "unacked value accepted" None "b" (Some "b4");
  Alcotest.(check bool) "written" true (Fault.Kv_oracle.written o ~key:"b" "b4");
  Alcotest.(check bool) "not written" false (Fault.Kv_oracle.written o ~key:"b" "a1");
  Alcotest.(check (list string)) "keys sorted" [ "a"; "b" ] (Fault.Kv_oracle.keys o)

(* ---- The crash-consistency checker ---- *)

let checker_micro_clean () =
  let r = Fault_check.Check.run_micro ~seeds:[ 1; 2 ] ~points:5 () in
  Alcotest.(check bool)
    (Format.asprintf "%a" (Fault.Report.pp "faultcheck") r)
    true (Fault.Report.ok r);
  checki "all combos crashed" r.Fault.Report.combos
    r.Fault.Report.crashes

let checker_kreon_clean () =
  let r = Fault_check.Check.run_kreon ~seeds:[ 1 ] ~points:5 () in
  Alcotest.(check bool)
    (Format.asprintf "%a" (Fault.Report.pp "faultcheck") r)
    true (Fault.Report.ok r)

let checker_rejects_node_plans () =
  (* a node-targeted plan never arms the engine crash hook: sweeping it
     would run every combo uncut and pass vacuously *)
  let spec = { Fault.Plan.default with Fault.Plan.node = Some 1 } in
  List.iter
    (fun (name, run) ->
      match run () with
      | _ -> Alcotest.failf "%s accepted node=1" name
      | exception Invalid_argument _ -> ())
    [
      ("run_micro", fun () -> Fault_check.Check.run_micro ~spec ~seeds:[ 1 ] ~points:1 ());
      ("run_kreon", fun () -> Fault_check.Check.run_kreon ~spec ~seeds:[ 1 ] ~points:1 ());
    ]

let checker_catches_broken_variant () =
  (* wb_protect:false skips re-write-protecting clean pages after msync,
     so post-msync stores escape dirty tracking and are silently lost on
     the power cut — the checker must notice. *)
  let r =
    Fault_check.Check.run_micro ~broken:true ~seeds:[ 1; 2; 3 ] ~points:10 ()
  in
  Alcotest.(check bool) "violations reported" false (Fault.Report.ok r)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "spec roundtrip" `Quick spec_roundtrip;
          Alcotest.test_case "deterministic draws" `Quick draws_deterministic;
          Alcotest.test_case "zero-probability plan" `Quick
            zero_probability_draws_nothing;
        ] );
      ( "injection",
        [
          Alcotest.test_case "crash at exact event" `Quick crash_at_exact_event;
          Alcotest.test_case "retry + backoff" `Quick retry_exhaustion_and_backoff;
          Alcotest.test_case "permanent sticks" `Quick
            permanent_fails_fast_and_sticks;
          Alcotest.test_case "torn write prefix" `Quick
            torn_write_persists_page_prefix;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "sigbus" `Quick sigbus_on_unreadable_page;
          Alcotest.test_case "read-only fallback" `Quick
            degrade_to_read_only_after_error_storm;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "probe-twice determinism gate" `Quick
            sweep_nondeterminism_gate;
          Alcotest.test_case "combos and crash ordinals" `Quick
            sweep_combos_and_ordinals;
          Alcotest.test_case "violation labels" `Quick sweep_labels;
          Alcotest.test_case "kv oracle verdicts" `Quick kv_oracle_verdicts;
        ] );
      ( "checker",
        [
          Alcotest.test_case "micro clean" `Quick checker_micro_clean;
          Alcotest.test_case "kreon clean" `Quick checker_kreon_clean;
          Alcotest.test_case "broken variant caught" `Quick
            checker_catches_broken_variant;
          Alcotest.test_case "node plans rejected" `Quick
            checker_rejects_node_plans;
        ] );
    ]
