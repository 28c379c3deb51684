(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the ablation benches from DESIGN.md §5, and times the
   core substrate data structures with Bechamel.

   --jobs N (or BENCH_JOBS=N) fans the experiments, ablations and sweeps
   out over N OCaml domains; per-job seeds and domain-local ambient state
   keep every result — and the output bytes — identical to a sequential
   run.  The Bechamel wall-clock microbenchmarks stay sequential so their
   timings are not perturbed by sibling domains. *)

(* Same flag names and spec syntax as bin/aquila_cli.exe: --fault-plan
   SPEC injects seeded device faults into every experiment, ablation and
   sweep job; --crash-at N is shorthand for adding 'crash=N' to the
   plan.  Each job builds its own plan from the spec, so injection
   composes with --jobs and the output stays byte-identical at any
   fan-out degree. *)
let fault_of_argv () =
  let plan = ref None and crash_at = ref None in
  let argv = Sys.argv in
  let value_of i flag =
    let fl = String.length flag in
    let s = argv.(i) in
    if s = flag && i + 1 < Array.length argv then Some argv.(i + 1)
    else if
      String.length s > fl + 1
      && String.sub s 0 (fl + 1) = flag ^ "="
    then Some (String.sub s (fl + 1) (String.length s - fl - 1))
    else None
  in
  for i = 1 to Array.length argv - 1 do
    (match value_of i "--fault-plan" with
    | Some s -> plan := Some s
    | None -> ());
    match value_of i "--crash-at" with
    | Some s -> crash_at := int_of_string_opt s
    | None -> ()
  done;
  let base =
    match !plan with
    | None -> Fault.Plan.default
    | Some s -> (
        match Fault.Plan.parse s with
        | Ok spec -> spec
        | Error msg ->
            Printf.eprintf "bench: --fault-plan: %s\n%!" msg;
            exit 2)
  in
  match !crash_at with
  | Some at -> Some { base with Fault.Plan.crash_at = Some at }
  | None -> if !plan = None then None else Some base

(* --policy NAME sets the ambient cache-replacement policy every Aquila
   stack picks up (ablations that pin their own policy still win). *)
let policy_of_argv () =
  let argv = Sys.argv in
  let policy = ref None in
  let value_of i flag =
    let fl = String.length flag in
    let s = argv.(i) in
    if s = flag && i + 1 < Array.length argv then Some argv.(i + 1)
    else if String.length s > fl + 1 && String.sub s 0 (fl + 1) = flag ^ "="
    then Some (String.sub s (fl + 1) (String.length s - fl - 1))
    else None
  in
  for i = 1 to Array.length argv - 1 do
    match value_of i "--policy" with
    | Some s -> (
        match Mcache.Policy.kind_of_string s with
        | Ok k -> policy := Some k
        | Error msg ->
            Printf.eprintf "bench: --policy: %s\n%!" msg;
            exit 2)
    | None -> ()
  done;
  !policy

(* --metrics-out FILE writes the merged aqmetrics snapshot of the whole
   harness run (same format rules as aquila_cli: .prom/.txt is
   Prometheus exposition, anything else flat JSON). *)
let metrics_out_of_argv () =
  let argv = Sys.argv in
  let out = ref None in
  let value_of i flag =
    let fl = String.length flag in
    let s = argv.(i) in
    if s = flag && i + 1 < Array.length argv then Some argv.(i + 1)
    else if String.length s > fl + 1 && String.sub s 0 (fl + 1) = flag ^ "="
    then Some (String.sub s (fl + 1) (String.length s - fl - 1))
    else None
  in
  for i = 1 to Array.length argv - 1 do
    match value_of i "--metrics-out" with
    | Some s -> out := Some s
    | None -> ()
  done;
  !out

let jobs_of_argv () =
  let jobs = ref 1 in
  (match Sys.getenv_opt "BENCH_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n -> jobs := n | None -> ())
  | None -> ());
  let argv = Sys.argv in
  for i = 1 to Array.length argv - 1 do
    match argv.(i) with
    | "--jobs" | "-j" when i + 1 < Array.length argv -> (
        match int_of_string_opt argv.(i + 1) with
        | Some n -> jobs := n
        | None -> ())
    | s when String.length s > 7 && String.sub s 0 7 = "--jobs=" -> (
        match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
        | Some n -> jobs := n
        | None -> ())
    | _ -> ()
  done;
  max 1 !jobs

let () =
  let jobs = jobs_of_argv () in
  let fault = fault_of_argv () in
  (match policy_of_argv () with
  | Some k -> Experiments.Scenario.set_policy k
  | None -> ());
  Printf.printf "=== Aquila (EuroSys '21) reproduction benchmark harness ===\n";
  Printf.printf "%s\n" Experiments.Scenario.scale_note;
  if jobs > 1 then Printf.printf "(fan-out: up to %d parallel domains)\n" jobs;
  (match Experiments.Scenario.policy () with
  | Mcache.Policy.Clock -> ()
  | k ->
      Printf.printf "(cache replacement policy: %s)\n"
        (Mcache.Policy.kind_to_string k));
  (match fault with
  | Some spec ->
      Printf.printf "(fault injection: %s)\n" (Fault.Plan.to_string spec)
  | None -> ());
  Experiments.Scenario.with_metrics ?out:(metrics_out_of_argv ()) (fun () ->
      Experiments.Registry.run_all ~jobs ?fault ();
      Printf.printf "\n### Ablations (DESIGN.md section 5)\n%!";
      Experiments.Fanout.run ~jobs ?fault Ablations.jobs;
      Printf.printf "\n### Sensitivity sweeps (beyond the paper's fixed points)\n%!";
      Experiments.Fanout.run ~jobs ?fault Sweeps.jobs);
  Printf.printf "\n### Substrate microbenchmarks (Bechamel, wall-clock of the simulator's own data structures)\n%!";
  Micro_bechamel.run ()
