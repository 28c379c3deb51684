(* Tests for the open-loop load generator (lib/loadgen): arrival-stream
   purity, bounded-queue admission control, deterministic shedding, SLO
   accounting, and the metrics it exports. *)

let checki = Alcotest.(check int)

(* A backend with a fixed service time: capacity is exactly
   workers * clock_hz / svc ops/s, so saturation points are easy to
   place on either side. *)
let fixed_backend ?(svc = 10_000L) ?(degraded = fun () -> false) () =
  { Loadgen.name = "fixed"; serve = (fun _ -> Sim.Engine.delay svc); degraded }

let cfg ?(process = Loadgen.Arrival.Poisson { rate = 50_000. })
    ?(horizon = 12_000_000) ?(workers = 2) ?(queue_cap = 64) ?(slo_cycles = 0)
    ?(seed = 7) ?(shed_when_degraded = false) () =
  {
    Loadgen.process;
    horizon;
    workers;
    queue_cap;
    slo_cycles;
    seed;
    shed_when_degraded;
  }

let drain_clean eng =
  checki "no live fibers after drain" 0 (Sim.Engine.live_fibers eng);
  Alcotest.(check (list (pair int string)))
    "blocked_report clean" []
    (Sim.Engine.blocked_fibers eng)

(* ---- arrival streams ---- *)

let arrival_purity =
  QCheck.Test.make
    ~name:"arrival streams are pure in (seed, rate, horizon)"
    ~count:50
    QCheck.(
      triple (int_range 1 1_000_000) (int_range 100 2_000_000)
        (int_range 1_000 5_000_000))
    (fun (seed, ratei, horizon) ->
      let rate = float_of_int ratei in
      let processes =
        [
          Loadgen.Arrival.Poisson { rate };
          Loadgen.Arrival.shaped Loadgen.Arrival.Mmpp_shape ~rate ~horizon;
          Loadgen.Arrival.shaped Loadgen.Arrival.Diurnal_shape ~rate ~horizon;
        ]
      in
      List.for_all
        (fun p ->
          let a = Loadgen.Arrival.generate ~seed ~horizon p in
          let b = Loadgen.Arrival.generate ~seed ~horizon p in
          let monotone = ref true in
          Array.iteri
            (fun i t ->
              if t < 1 || t >= horizon then monotone := false;
              if i > 0 && t <= a.(i - 1) then monotone := false)
            a;
          a = b && !monotone)
        processes)

let arrival_mean_rate () =
  let horizon = 48_000_000 in
  List.iter
    (fun shape ->
      let p = Loadgen.Arrival.shaped shape ~rate:500_000. ~horizon in
      Alcotest.(check (float 1.))
        (Loadgen.Arrival.shape_name shape ^ " mean rate")
        500_000. (Loadgen.Arrival.mean_rate p);
      (* realized arrivals within 15% of offered * window *)
      let n =
        Array.length (Loadgen.Arrival.generate ~seed:3 ~horizon p)
      in
      let expect = 500_000. *. float_of_int horizon /. Loadgen.Arrival.clock_hz in
      if float_of_int n < 0.85 *. expect || float_of_int n > 1.15 *. expect then
        Alcotest.failf "%s: %d arrivals, expected ~%.0f"
          (Loadgen.Arrival.shape_name shape)
          n expect)
    Loadgen.Arrival.[ Poisson_shape; Mmpp_shape; Diurnal_shape ]

let arrival_invalid () =
  List.iter
    (fun p ->
      Alcotest.check_raises "rejects bad params"
        (Invalid_argument
           (match p with
           | Loadgen.Arrival.Poisson _ ->
               "Arrival.generate: rate must be > 0"
           | Loadgen.Arrival.Mmpp _ ->
               "Arrival.generate: MMPP rates must be >= 0 and not both 0"
           | Loadgen.Arrival.Diurnal _ ->
               "Arrival.generate: need 0 <= rate_lo <= rate_hi"))
        (fun () ->
          ignore (Loadgen.Arrival.generate ~seed:1 ~horizon:1000 p)))
    [
      Loadgen.Arrival.Poisson { rate = 0. };
      Loadgen.Arrival.Mmpp
        { rate_on = 0.; rate_off = 0.; mean_on = 10.; mean_off = 10. };
      Loadgen.Arrival.Diurnal { rate_lo = 5.; rate_hi = 1.; period = 100. };
    ]

(* ---- admission control / determinism ---- *)

let summary (r : Loadgen.result) =
  ( r.Loadgen.arrivals,
    r.Loadgen.admitted,
    r.Loadgen.completions,
    r.Loadgen.shed_full,
    r.Loadgen.shed_degraded,
    r.Loadgen.slo_violations,
    r.Loadgen.max_depth,
    List.map (Stats.Histogram.percentile r.Loadgen.sojourn) [ 50.; 99.; 99.9 ] )

(* A saturating MMPP burst against a small bounded queue: must shed (not
   block), drain without deadlock, and do exactly the same thing twice. *)
let burst_sheds_deterministically () =
  let process =
    Loadgen.Arrival.shaped Loadgen.Arrival.Mmpp_shape ~rate:500_000.
      ~horizon:12_000_000
  in
  (* capacity 2 * 2.4e9 / 50k = 96k ops/s << 500k offered *)
  let run () =
    let eng = Sim.Engine.create () in
    let r =
      Loadgen.run eng
        (cfg ~process ~workers:2 ~queue_cap:16 ())
        (fun () -> fixed_backend ~svc:50_000L ())
    in
    drain_clean eng;
    (summary r, Sim.Engine.events eng, Sim.Engine.now eng)
  in
  let a = run () and b = run () in
  let (ar, _, comp, shed_full, _, _, maxq, _), _, _ = a in
  if shed_full = 0 then Alcotest.fail "saturating burst shed nothing";
  checki "queue never exceeds cap" 16 maxq;
  checki "admitted all served" (ar - shed_full) comp;
  if a <> b then Alcotest.fail "repeat run disagrees (nondeterministic)"

let slo_accounting () =
  let run slo_cycles =
    let eng = Sim.Engine.create () in
    Loadgen.run eng (cfg ~slo_cycles ()) (fun () -> fixed_backend ())
  in
  let lax = run 100_000_000 in
  checki "generous SLO: no violations" 0 lax.Loadgen.slo_violations;
  let strict = run 1 in
  checki "1-cycle SLO: every completion violates" strict.Loadgen.completions
    strict.Loadgen.slo_violations;
  let off = run 0 in
  checki "slo_cycles = 0 disables accounting" 0 off.Loadgen.slo_violations

(* The degraded knob: once the backend reports degraded, arrivals are
   shed at admission — deterministically — and served ones still finish. *)
let degraded_shedding () =
  let run () =
    let served = ref 0 in
    let eng = Sim.Engine.create () in
    let backend () =
      {
        Loadgen.name = "degrading";
        serve =
          (fun _ ->
            Sim.Engine.delay 10_000L;
            incr served);
        degraded = (fun () -> !served >= 5);
      }
    in
    let r = Loadgen.run eng (cfg ~shed_when_degraded:true ()) backend in
    drain_clean eng;
    r
  in
  let a = run () in
  if a.Loadgen.shed_degraded = 0 then
    Alcotest.fail "degraded backend shed nothing";
  if a.Loadgen.completions < 5 then
    Alcotest.fail "requests admitted before degradation must still finish";
  checki "degraded shedding is deterministic"
    a.Loadgen.shed_degraded (run ()).Loadgen.shed_degraded;
  (* knob off: same backend, nothing shed for degradation *)
  let served = ref 0 in
  let eng = Sim.Engine.create () in
  let r =
    Loadgen.run eng
      (cfg ~shed_when_degraded:false ())
      (fun () ->
        {
          Loadgen.name = "degrading";
          serve =
            (fun _ ->
              Sim.Engine.delay 10_000L;
              incr served);
          degraded = (fun () -> !served >= 5);
        })
  in
  checki "knob off: no degraded shedding" 0 r.Loadgen.shed_degraded

(* The open-loop mechanism itself produces the hockey stick: p99 sojourn
   under 4x overload dwarfs p99 at 10% utilization on the same backend. *)
let hockey_stick_mechanism () =
  let p99 rate =
    let eng = Sim.Engine.create () in
    let r =
      Loadgen.run eng
        (cfg
           ~process:(Loadgen.Arrival.Poisson { rate })
           ~workers:1 ~queue_cap:256 ())
        (fun () -> fixed_backend ~svc:10_000L ())
    in
    Int64.to_float (Stats.Histogram.percentile r.Loadgen.sojourn 99.)
  in
  (* capacity = 240k ops/s at svc 10k cycles *)
  let light = p99 24_000. and overload = p99 960_000. in
  if overload < 10. *. light then
    Alcotest.failf "no hockey stick: p99 %.0f at 10%% load, %.0f at 4x" light
      overload

(* Loadgen's own metrics: sojourn histogram + counters land in the
   registry. *)
let loadgen_metrics_cross_check () =
  Metrics.Registry.reset ();
  let eng = Sim.Engine.create () in
  let r = Loadgen.run eng (cfg ~slo_cycles:1 ()) (fun () -> fixed_backend ()) in
  checki "completions counter"
    r.Loadgen.completions
    (Metrics.Registry.value "loadgen_completions_total");
  checki "arrivals counter" r.Loadgen.arrivals
    (Metrics.Registry.value "loadgen_arrivals_total");
  checki "slo counter" r.Loadgen.slo_violations
    (Metrics.Registry.value "loadgen_slo_violations_total");
  (* earlier tests registered sojourn series for other backend labels;
     reset () keeps them in the snapshot at zero, so pick the live one *)
  let s =
    List.find
      (fun s ->
        s.Metrics.Registry.s_name = "loadgen_sojourn_cycles"
        && s.Metrics.Registry.s_count > 0)
      (Metrics.Registry.snapshot ())
  in
  checki "sojourn sample count" r.Loadgen.completions
    s.Metrics.Registry.s_count

let () =
  Alcotest.run "loadgen"
    [
      ( "arrival",
        [
          QCheck_alcotest.to_alcotest arrival_purity;
          Alcotest.test_case "mean rate honoured" `Quick arrival_mean_rate;
          Alcotest.test_case "invalid params rejected" `Quick arrival_invalid;
        ] );
      ( "admission",
        [
          Alcotest.test_case "saturating burst sheds, no deadlock" `Quick
            burst_sheds_deterministically;
          Alcotest.test_case "SLO accounting" `Quick slo_accounting;
          Alcotest.test_case "degraded-mode shedding" `Quick degraded_shedding;
          Alcotest.test_case "hockey-stick mechanism" `Quick
            hockey_stick_mechanism;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "loadgen metrics cross-check" `Quick
            loadgen_metrics_cross_check;
        ] );
    ]
