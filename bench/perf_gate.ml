(* CI perf-trajectory gate over the BENCH_*.json files.

   Usage:
     perf_gate BASELINE.json CURRENT.json [--threshold 0.25]
     perf_gate --selftest FILE.json

   Both bench JSONs are objects whose numeric leaves are addressable by
   dotted path ("zipf.lru.vtime_per_op", "aquila_t16.final_cycles"); a
   tiny scanner below extracts exactly those (path, number) pairs, so no
   JSON library is needed.

   Only deterministic virtual counters are gated — wall-clock throughput
   is real but noisy on shared CI runners, so it is recorded in the
   artifacts yet never failed on:

     lower-is-better: vtime_per_op, misses, evictions, wb_pages,
                      final_cycles
     higher-is-better: hit_rate
     skipped: anything else, and any key ending in ".wall"

   A counter regresses when it moves past the threshold (default 25 %) in
   its bad direction.  Keys present on only one side are warnings, not
   failures (benches evolve).  Exit codes: 0 pass, 1 regression (or
   selftest found a toothless rule), 2 usage/parse error.

   --selftest is the teeth test (same idea as faultcheck --broken): for
   every gated key in FILE it fabricates a >threshold regression and
   asserts the gate trips, and asserts FILE-vs-itself passes — proving
   the gate can actually fail before CI trusts a green result. *)

let threshold = ref 0.25

(* ---- number extraction ---- *)

exception Parse of string

let parse_numbers src =
  let n = String.length src in
  let pos = ref 0 in
  let out = ref [] in
  let fail msg = raise (Parse (Printf.sprintf "at byte %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let read_string () =
    expect '"';
    let b = Buffer.create 16 in
    while !pos < n && src.[!pos] <> '"' do
      if src.[!pos] = '\\' && !pos + 1 < n then incr pos;
      Buffer.add_char b src.[!pos];
      incr pos
    done;
    if !pos >= n then fail "unterminated string";
    incr pos;
    Buffer.contents b
  in
  let read_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match src.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec value prefix =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos else members prefix
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos else elements prefix 0
    | Some '"' -> ignore (read_string ())
    | Some ('t' | 'f' | 'n') ->
        while !pos < n && match src.[!pos] with 'a' .. 'z' -> true | _ -> false
        do
          incr pos
        done
    | Some _ ->
        let v = read_number () in
        out := (prefix, v) :: !out
    | None -> fail "unexpected end of input"
  and members prefix =
    skip_ws ();
    let k = read_string () in
    skip_ws ();
    expect ':';
    value (join prefix k);
    skip_ws ();
    match peek () with
    | Some ',' ->
        incr pos;
        members prefix
    | Some '}' -> incr pos
    | _ -> fail "expected , or } in object"
  and elements prefix i =
    value (join prefix (string_of_int i));
    skip_ws ();
    match peek () with
    | Some ',' ->
        incr pos;
        elements prefix (i + 1)
    | Some ']' -> incr pos
    | _ -> fail "expected , or ] in array"
  in
  value "";
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  List.rev !out

let parse_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "perf_gate: %s\n" msg;
      exit 2
  in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  try parse_numbers src
  with Parse msg ->
    Printf.eprintf "perf_gate: %s: %s\n" path msg;
    exit 2

(* ---- gate rules ---- *)

type dir = Lower | Higher

let leaf key =
  (* aqmetrics keys carry a {label=value,...} suffix
     ("mcache_hits{policy=clock}"); the gated leaf is the family name with
     that suffix stripped, so one rule covers every labelled series. *)
  let key =
    match String.index_opt key '{' with
    | Some i -> String.sub key 0 i
    | None -> key
  in
  match String.rindex_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let dir_of key =
  if String.length key >= 5 && leaf key = "wall" then None
  else
    match leaf key with
    | "vtime_per_op" | "misses" | "evictions" | "wb_pages" | "final_cycles" ->
        Some Lower
    (* engine workloads (BENCH_engine.json): event totals are exact
       functions of the schedule — more events is a regression. *)
    | "events" -> Some Lower
    | "hit_rate" -> Some Higher
    (* aqmetrics families (BENCH_metrics.json, labelled series).  All are
       deterministic virtual counters; engine_events_fast is deliberately
       ungated — fast-path/queued shifts are legal optimizations. *)
    | "mcache_hits" -> Some Higher
    | "mcache_misses" | "mcache_evictions" | "mcache_wb_pages"
    | "mcache_sigbus" | "hw_tlb_misses" | "hw_tlb_shootdowns"
    | "aquila_page_faults" | "engine_events" | "sdevice_reads"
    | "sdevice_writes" | "fault_injected" | "linux_cache_misses" ->
        Some Lower
    (* aqcluster failover smoke (BENCH_cluster.json): the scenario is a
       fixed schedule, so fewer acked ops — or more failovers, resync
       pages or retries — means replication or recovery got worse. *)
    | "acked_ops" -> Some Higher
    | "failovers" | "resync_pages" | "rpc_retries" -> Some Lower
    (* open-loop smoke (BENCH_openloop.json): fixed overload points, so
       the sojourn tail, the shed and SLO-violation counts and the
       completion total are exact functions of the backend's service
       path — serving fewer requests, or shedding / violating / tailing
       more, is a regression.  p50_cycles stays advisory: the median
       moves with benign scheduling shifts the tail gate already bounds. *)
    | "completions" -> Some Higher
    | "shed" | "slo_violations" | "p99_cycles" | "p999_cycles" -> Some Lower
    | _ -> None

type verdict = { failures : (string * float * float) list; checked : int }

let gate baseline current =
  let cur = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace cur k v) current;
  let failures = ref [] and checked = ref 0 in
  List.iter
    (fun (k, b) ->
      match dir_of k with
      | None -> ()
      | Some d -> (
          match Hashtbl.find_opt cur k with
          | None -> Printf.printf "warn: %s missing from current run\n" k
          | Some c ->
              incr checked;
              let bad =
                if b = 0. then (match d with Lower -> c > 0. | Higher -> false)
                else
                  match d with
                  | Lower -> c > b *. (1. +. !threshold)
                  | Higher -> c < b *. (1. -. !threshold)
              in
              if bad then failures := (k, b, c) :: !failures))
    baseline;
  { failures = List.rev !failures; checked = !checked }

let report v =
  List.iter
    (fun (k, b, c) ->
      Printf.printf "REGRESSION %-40s baseline %.4f -> current %.4f\n" k b c)
    v.failures;
  Printf.printf "perf_gate: %d counters checked, %d regressions (threshold %.0f%%)\n"
    v.checked (List.length v.failures) (100. *. !threshold)

(* ---- selftest: prove the gate has teeth ---- *)

let selftest path =
  let base = parse_numbers (let ic = open_in_bin path in
                            let s = really_input_string ic (in_channel_length ic) in
                            close_in ic; s) in
  let gated = List.filter (fun (k, _) -> dir_of k <> None) base in
  if gated = [] then begin
    Printf.printf "selftest FAIL: %s has no gated counters\n" path;
    exit 1
  end;
  let clean = gate base base in
  if clean.failures <> [] then begin
    Printf.printf "selftest FAIL: file-vs-itself reported regressions\n";
    report clean;
    exit 1
  end;
  let missed = ref [] and tested = ref 0 and zeros = ref 0 in
  List.iter
    (fun (k, v) ->
      if v = 0. then incr zeros
      else begin
        incr tested;
        let factor =
          match dir_of k with Some Lower -> 1.5 | _ -> 0.5
        in
        let perturbed =
          List.map (fun (k', v') -> if k' = k then (k', v' *. factor) else (k', v')) base
        in
        let verdict = gate base perturbed in
        if not (List.exists (fun (k', _, _) -> k' = k) verdict.failures) then
          missed := k :: !missed
      end)
    gated;
  Printf.printf
    "selftest: %d gated counters perturbed, %d zero-valued skipped, %d missed\n"
    !tested !zeros (List.length !missed);
  if !missed <> [] then begin
    List.iter (Printf.printf "selftest FAIL: gate did not trip on %s\n")
      (List.rev !missed);
    exit 1
  end;
  if !tested = 0 then begin
    Printf.printf "selftest FAIL: every gated counter was zero — nothing proven\n";
    exit 1
  end;
  Printf.printf "selftest: ok (every fabricated regression tripped the gate)\n"

(* ---- driver ---- *)

let usage () =
  prerr_endline
    "usage: perf_gate BASELINE.json CURRENT.json [--threshold F]\n\
    \       perf_gate --selftest FILE.json";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let rec positional acc = function
    | [] -> List.rev acc
    | "--threshold" :: f :: rest -> (
        match float_of_string_opt f with
        | Some t when t > 0. ->
            threshold := t;
            positional acc rest
        | _ -> usage ())
    | a :: rest -> positional (a :: acc) rest
  in
  match positional [] (List.tl args) with
  | [ "--selftest"; path ] -> selftest path
  | [ base_path; cur_path ] ->
      let v = gate (parse_file base_path) (parse_file cur_path) in
      report v;
      if v.checked = 0 then begin
        Printf.printf "perf_gate: nothing gated — refusing to pass vacuously\n";
        exit 1
      end;
      if v.failures <> [] then exit 1
  | _ -> usage ()
