(* Host-cost benchmark of the paper suite: the per-process half.

   perfbench/run.py starts this executable once per measurement, so every
   pass begins from the same fresh process, exactly as a user running
   [aquila_cli run ID] pays for it:

     main.exe setup  WORKLOAD        prepare, print "ready", exit
     main.exe e2e    WORKLOAD        one untraced pass, host cost
     main.exe traced WORKLOAD        one pass under the virtual-time
                                     tracer, with the pass's layer counts
     main.exe probes SEED            the per-layer probes (Probes)

   Each mode prints "ready" once it is prepared and, as its last line, a
   JSON object that run.py reads.  A pass captures the experiment's
   output with Sim.Sink.capture and checks it against the workload's
   reference digest, the md5 of what [aquila_cli run ID] prints. *)

type workload = { name : string; id : string; digest : string }

(* Why these four experiments: see README.md ("Workloads").  The
   registry experiments use their built-in seeds, so the digests are
   fixed; giving them a seed needs a change under lib/. *)
let workloads =
  [
    { name = "kv_read"; id = "fig5a"; digest = "43a6633774a92fb6546f1dbaab93c5c2" };
    { name = "kv_write"; id = "fig9"; digest = "3de8e1db08fdd7b9b53312b9d72e55e2" };
    { name = "mmio_scale"; id = "fig10b"; digest = "8ab128f4261a88accbcf54f90b7f40c7" };
    { name = "graph_bfs"; id = "fig6a"; digest = "4583b740ecb2e5cb8a86ac63987af666" };
  ]

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let entry_of w =
  match Experiments.Registry.find w.id with
  | Some e -> e
  | None -> fail "workload %s: no registry experiment %s" w.name w.id

(* The bytes [aquila_cli run ID] prints. *)
let run_captured entry =
  Sim.Sink.capture (fun () ->
      Sim.Sink.printf "Aquila reproduction — %s\n" Experiments.Scenario.scale_note;
      Experiments.Registry.run_selected [ entry ])

let digest_ok w out = Digest.to_hex (Digest.string out) = w.digest

(* One byte of [out] flipped: the digest check must reject it, or it
   would not catch a changed result either. *)
let perturb out =
  if out = "" then "\000"
  else
    let b = Bytes.of_string out in
    let i = String.length out / 2 in
    Bytes.set b i (Char.chr (Char.code out.[i] lxor 1));
    Bytes.to_string b

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted, major, promoted)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type pass = {
  ok : bool;
  detail : string;
  selfcheck : bool;
  wall : float;
  cpu : float;
  alloc : float;
  major : float;
  promoted : float;
  minor_gcs : int;
  major_gcs : int;
}

(* One experiment run with its host cost.  A raised exception counts as
   a failed pass, like a digest mismatch. *)
let measured_pass w entry =
  let g0 = Gc.quick_stat () in
  let a0, m0, p0 = alloc_words () in
  let c0 = cpu_now () in
  let t0 = Unix.gettimeofday () in
  let result = try Ok (snd (run_captured entry)) with e -> Error e in
  let t1 = Unix.gettimeofday () in
  let c1 = cpu_now () in
  let a1, m1, p1 = alloc_words () in
  let g1 = Gc.quick_stat () in
  let out = match result with Ok out -> out | Error _ -> "" in
  let ok, detail =
    match result with
    | Ok out when digest_ok w out -> (true, "digest matches")
    | Ok out -> (false, "digest " ^ Digest.to_hex (Digest.string out) ^ " <> " ^ w.digest)
    | Error e -> (false, "raised " ^ Printexc.to_string e)
  in
  let selfcheck = not (digest_ok w (perturb out)) in
  {
    ok;
    detail;
    selfcheck;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    alloc = a1 -. a0;
    major = m1 -. m0;
    promoted = p1 -. p0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let num f = Printf.sprintf "%.17g" f

let pass_fields p =
  [
    ("ok", string_of_bool p.ok);
    ("detail", json_string p.detail);
    ("selfcheck", string_of_bool p.selfcheck);
    ("wall_s", num p.wall);
    ("cpu_s", num p.cpu);
    ("ocaml", json_string Sys.ocaml_version);
  ]

let e2e w =
  let entry = entry_of w in
  print_endline "ready";
  let p = measured_pass w entry in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  print_endline
    (json_obj
       (pass_fields p
       @ [
           ("alloc_mwords", num (p.alloc /. 1e6));
           ("major_mwords", num (p.major /. 1e6));
           ("peak_heap_mb", num (float_of_int (top * 8) /. 1048576.));
         ]))

(* Layer counts of one pass, read from the always-on metrics registry
   (summed over every label set) and the GC.  A host-only change must
   leave every one of them unchanged. *)
let registry_counts =
  [
    ("sim.events", "engine_events");
    ("sim.events_fast", "engine_events_fast");
    ("sim.suspends", "engine_suspends");
    ("hw.tlb_hits", "hw_tlb_hits");
    ("hw.tlb_misses", "hw_tlb_misses");
    ("hw.shootdowns", "hw_tlb_shootdowns");
    ("hw.ipis", "hw_ipis_sent");
    ("core.page_faults", "aquila_page_faults");
    ("core.mem_accesses", "aquila_mem_accesses");
    ("mcache.hits", "mcache_hits");
    ("mcache.misses", "mcache_misses");
    ("mcache.evictions", "mcache_evictions");
    ("mcache.wb_ios", "mcache_wb_ios");
    ("mcache.wb_pages", "mcache_wb_pages");
    ("linux.cache_hits", "linux_cache_hits");
    ("linux.cache_misses", "linux_cache_misses");
    ("linux.evictions", "linux_cache_evictions");
    ("linux.wb_ios", "linux_cache_wb_ios");
    ("sdevice.reads", "sdevice_reads");
    ("sdevice.writes", "sdevice_writes");
  ]

(* The traced pass runs under the repo's own virtual-time tracer (its
   default per-core rings), so run.py's trace.overhead is what turning
   tracing on costs this experiment. *)
let traced w =
  let entry = entry_of w in
  print_endline "ready";
  Metrics.Registry.reset ();
  ignore (Trace.start ());
  let p = measured_pass w entry in
  ignore (Trace.stop ());
  let counts =
    List.map (fun (k, fam) -> (k, string_of_int (Metrics.Registry.value fam))) registry_counts
    @ [
        ("gc.minor_collections", string_of_int p.minor_gcs);
        ("gc.major_collections", string_of_int p.major_gcs);
        ("gc.promoted_words", num p.promoted);
      ]
  in
  print_endline (json_obj (pass_fields p @ [ ("counts", json_obj counts) ]))

let probes seed =
  print_endline "ready";
  let results = Probes.run_all ~seed in
  let checks =
    List.map
      (fun (r : Probes.result) ->
        json_obj
          [
            ("probe", json_string r.Probes.probe);
            ("ok", string_of_bool r.Probes.ok);
            ("detail", json_string r.Probes.detail);
          ])
      results
  in
  let metrics =
    List.concat_map
      (fun (r : Probes.result) -> List.map (fun (k, v) -> (k, num v)) r.Probes.metrics)
      results
  in
  List.iter
    (fun (s : Probes.span) ->
      Printf.printf "span %s (in %s): %.6f s, %d ops, %.0f words\n" s.Probes.name
        s.Probes.layer (s.Probes.t1 -. s.Probes.t0) s.Probes.ops s.Probes.words)
    (Probes.spans ());
  print_endline
    (json_obj [ ("checks", "[" ^ String.concat ", " checks ^ "]"); ("metrics", json_obj metrics) ])

let () =
  let find name =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> fail "unknown workload %S" name
  in
  match Array.to_list Sys.argv |> List.tl with
  | [ "setup"; name ] ->
      let w = find name in
      ignore (entry_of w);
      print_endline "ready";
      print_endline (json_obj [ ("experiment", json_string w.id) ])
  | [ "e2e"; name ] -> e2e (find name)
  | [ "traced"; name ] -> traced (find name)
  | [ "probes"; seed ] -> (
      match int_of_string_opt seed with
      | Some s -> probes s
      | None -> fail "bad seed %S" seed)
  | _ -> fail "usage: main.exe (setup|e2e|traced) WORKLOAD | probes SEED"
