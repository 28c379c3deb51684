(* Crash-consistency checker (DESIGN.md §7).

   Each combo runs a workload under a fault plan that cuts the power at a
   chosen engine event, then inspects the surviving device bytes against a
   host-side durability oracle, and finally restarts a fresh stack over
   the same device to prove the data is reachable again.  Two flavours:

   - micro: full-page versioned writes through an Aquila mmap over an
     NVMe block device.  Every page on the device must decode to a
     version v with synced(p) <= v <= latest(p), carry its own page
     number, and have an internally consistent fill pattern (no tear
     inside an acknowledged page).
   - kreon: a Kreon-sim instance over DAX pmem.  After crash + recover,
     every key acked by a completed msync must return its acked value or
     a later one; no key may return bytes that were never written.

   Everything is deterministic: the workload draws from its own seeded
   RNG, injection draws from the plan's stream, and crash points are
   event ordinals — so a (seed, crash point) pair is exactly repeatable. *)

let psz = Hw.Defs.page_size

let pp_report = Fault.Report.pp "faultcheck"

(* ---- micro: versioned full-page writes over NVMe ---- *)

let micro_pages = 96
let micro_frames = 48
let micro_ops = 400
let micro_sync_every = 24

(* Page image: bytes 0-7 version (LE), 8-15 page number (LE), the rest a
   fill byte derived from (seed, page, version) — any torn or misdirected
   page decodes as corrupt. *)
let fill_byte ~seed ~page ~version = (seed + (page * 31) + (version * 7)) land 0xff

let encode_page ~seed ~page ~version =
  let b = Bytes.make psz (Char.chr (fill_byte ~seed ~page ~version)) in
  Bytes.set_int64_le b 0 (Int64.of_int version);
  Bytes.set_int64_le b 8 (Int64.of_int page);
  b

type decoded = Zero | Version of int | Corrupt of string

let decode_page ~seed ~page buf =
  let v = Int64.to_int (Bytes.get_int64_le buf 0) in
  if v = 0 then
    if Bytes.for_all (fun c -> c = '\000') buf then Zero
    else Corrupt "version 0 but page not blank"
  else
    let p = Int64.to_int (Bytes.get_int64_le buf 8) in
    if p <> page then Corrupt (Printf.sprintf "holds page %d's image" p)
    else begin
      let fb = Char.chr (fill_byte ~seed ~page ~version:v) in
      let rec consistent i =
        i >= psz || (Bytes.get buf i = fb && consistent (i + 1))
      in
      if consistent 16 then Version v
      else Corrupt (Printf.sprintf "torn fill at version %d" v)
    end

type run_result = {
  crashed : bool;
  events : int;  (* total events (probe) or the crash ordinal *)
  counters : (string * int) list;  (* plan injection counters *)
  store_digest : string;  (* device bytes after the run *)
  run_violations : string list;
}

let micro_store_digest store =
  let buf = Bytes.create psz in
  let all = Buffer.create (micro_pages * psz) in
  for p = 0 to micro_pages - 1 do
    Sdevice.Pagestore.read_page store ~page:p ~dst:buf;
    Buffer.add_bytes all buf
  done;
  Digest.string (Buffer.contents all)

let cache_policy policy cfg =
  {
    cfg with
    Aquila.Context.cache =
      { cfg.Aquila.Context.cache with Mcache.Dram_cache.policy };
  }

(* One run: workload under the plan (possibly crashing), oracle check on
   the raw device, then a restart read-back through a fresh stack. *)
let micro_once ~seed ~(spec : Fault.Plan.spec) ~broken ~policy () =
  let nvme = Sdevice.Nvme.create ~name:"check-nvme" () in
  let store = Sdevice.Block_dev.store nvme in
  let latest = Array.make micro_pages 0 in
  let synced = Array.make micro_pages 0 in
  let plan = Fault.Plan.make { spec with Fault.Plan.seed } in
  let crashed = ref false in
  let events = ref 0 in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let translate p = if p < micro_pages then Some p else None in
  (try
     Fault.with_plan plan (fun () ->
         let eng = Sim.Engine.create () in
         let cfg =
           cache_policy policy
             (Aquila.Context.default_config ~cache_frames:micro_frames)
         in
         let cfg =
           if broken then
             {
               cfg with
               Aquila.Context.cache =
                 { cfg.Aquila.Context.cache with Mcache.Dram_cache.wb_protect = false };
             }
           else cfg
         in
         let ctx = Aquila.Context.create cfg in
         let access = Sdevice.Access.spdk_nvme (Aquila.Context.costs ctx) nvme in
         ignore
           (Sim.Engine.spawn eng ~core:0 (fun () ->
                Aquila.Context.enter_thread ctx;
                let file =
                  Aquila.Context.attach_file ctx ~name:"check.dat" ~access
                    ~translate ~size_pages:micro_pages
                in
                let region = Aquila.Context.mmap ctx file ~npages:micro_pages () in
                let rng = Sim.Rng.create (0x51ed2706 + seed) in
                let sync () =
                  (* only a completed msync acknowledges durability *)
                  try
                    Aquila.Context.msync ctx region;
                    Array.blit latest 0 synced 0 micro_pages
                  with Fault.Io_error _ -> ()
                in
                try
                  for i = 1 to micro_ops do
                    let p = Sim.Rng.int rng micro_pages in
                    let v = latest.(p) + 1 in
                    latest.(p) <- v;
                    (try
                       Aquila.Context.write ctx region ~off:(p * psz)
                         ~src:(encode_page ~seed ~page:p ~version:v)
                     with
                    | Fault.Sigbus _ ->
                        (* the store never happened: roll the oracle back *)
                        latest.(p) <- v - 1
                    | Fault.Read_only _ ->
                        latest.(p) <- v - 1;
                        raise Exit);
                    if i mod micro_sync_every = 0 then sync ()
                  done;
                  sync ()
                with Exit -> ()));
         Sim.Engine.run eng;
         events := Sim.Engine.events eng)
   with Fault.Crash { at_event } ->
     crashed := true;
     events := at_event);
  (* Oracle: inspect the device bytes that survived the cut. *)
  let buf = Bytes.create psz in
  for p = 0 to micro_pages - 1 do
    Sdevice.Pagestore.read_page store ~page:p ~dst:buf;
    match decode_page ~seed ~page:p buf with
    | Zero ->
        if synced.(p) > 0 then
          violation "page %d lost: blank on device but version %d was acked" p
            synced.(p)
    | Version v ->
        if v < synced.(p) then
          violation "page %d stale: device holds v%d but v%d was acked" p v
            synced.(p);
        if v > latest.(p) then
          violation "page %d from the future: device v%d, last written v%d" p v
            latest.(p)
    | Corrupt msg -> violation "page %d corrupt: %s" p msg
  done;
  (* Restart: a fresh stack over the surviving device (no plan installed)
     must serve exactly the durable bytes through the mmap path. *)
  let eng = Sim.Engine.create () in
  let ctx =
    Aquila.Context.create
      (cache_policy policy
         (Aquila.Context.default_config ~cache_frames:micro_frames))
  in
  let access = Sdevice.Access.spdk_nvme (Aquila.Context.costs ctx) nvme in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Aquila.Context.enter_thread ctx;
         let file =
           Aquila.Context.attach_file ctx ~name:"check.dat" ~access ~translate
             ~size_pages:micro_pages
         in
         let region = Aquila.Context.mmap ctx file ~npages:micro_pages () in
         let got = Bytes.create psz in
         let want = Bytes.create psz in
         for p = 0 to micro_pages - 1 do
           Aquila.Context.read ctx region ~off:(p * psz) ~len:psz ~dst:got;
           Sdevice.Pagestore.read_page store ~page:p ~dst:want;
           if not (Bytes.equal got want) then
             violation "restart: mmap read of page %d differs from device" p
         done));
  (try Sim.Engine.run eng
   with e -> violation "restart verification failed: %s" (Printexc.to_string e));
  {
    crashed = !crashed;
    events = !events;
    counters = Fault.Plan.counters plan;
    store_digest = micro_store_digest store;
    run_violations = List.rev !violations;
  }

(* ---- kreon: KV store commit protocol over DAX pmem ---- *)

let kreon_ops = 240
let kreon_sync_every = 30
let kreon_keyspace = 60
let kreon_capacity_pages = 16384

let kreon_config =
  (* small L0 so the run spills through the levels a few times *)
  { Kvstore.Kreon_sim.l0_limit_entries = 48; level_ratio = 4; nlevels = 3 }

let kv_key rng = Printf.sprintf "key%03d" (Sim.Rng.int rng kreon_keyspace)
let kv_value ~seed ~op key = Printf.sprintf "v%04d.%d.%s" op seed key

let kreon_once ~seed ~(spec : Fault.Plan.spec) ~policy () =
  let pmem =
    Sdevice.Pmem.create ~name:"check-pmem"
      ~capacity_bytes:(Int64.of_int (kreon_capacity_pages * psz))
      ()
  in
  (* history: key -> (op, value) list, newest first; acked: key -> op of
     the value covered by the last *completed* msync *)
  let history : (string, (int * string) list) Hashtbl.t = Hashtbl.create 64 in
  let acked : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let pending : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let plan = Fault.Plan.make { spec with Fault.Plan.seed } in
  let crashed = ref false in
  let events = ref 0 in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let mk_stack () =
    let ctx =
      Aquila.Context.create
        (cache_policy policy (Aquila.Context.default_config ~cache_frames:256))
    in
    let store = Blobstore.Store.create ~capacity_pages:kreon_capacity_pages () in
    let access = Sdevice.Access.dax_pmem (Aquila.Context.costs ctx) pmem in
    (ctx, store, access)
  in
  let mk_db ctx store access =
    Kvstore.Kreon_sim.create ~ctx ~access ~store ~expected_records:kreon_ops
      ~value_bytes:24 ~config:kreon_config ()
  in
  (try
     Fault.with_plan plan (fun () ->
         let eng = Sim.Engine.create () in
         let ctx, store, access = mk_stack () in
         ignore
           (Sim.Engine.spawn eng ~core:0 (fun () ->
                Aquila.Context.enter_thread ctx;
                let db = mk_db ctx store access in
                let rng = Sim.Rng.create (0x9e3779b9 + seed) in
                try
                  for i = 1 to kreon_ops do
                    let k = kv_key rng in
                    let v = kv_value ~seed ~op:i k in
                    (* record the write intent first: a crash inside put
                       can land after an internal spill already committed
                       the log record, so the value may legitimately be
                       recovered even though put never returned *)
                    Hashtbl.replace history k
                      ((i, v)
                      :: (try Hashtbl.find history k with Not_found -> []));
                    Kvstore.Kreon_sim.put db k v;
                    Hashtbl.replace pending k i;
                    if i mod kreon_sync_every = 0 then begin
                      Kvstore.Kreon_sim.msync db;
                      Hashtbl.iter (Hashtbl.replace acked) pending;
                      Hashtbl.reset pending
                    end
                  done
                with Fault.Io_error _ | Fault.Sigbus _ | Fault.Read_only _ ->
                  (* storm severe enough to fail the store: stop the
                     workload; everything acked so far must still hold *)
                  ()));
         Sim.Engine.run eng;
         events := Sim.Engine.events eng)
   with Fault.Crash { at_event } ->
     crashed := true;
     events := at_event);
  (* Restart (no plan): a fresh stack over the surviving pmem — the same
     creation sequence reproduces the blob layout — then recover and
     check every key against the oracle. *)
  let eng = Sim.Engine.create () in
  let ctx, store, access = mk_stack () in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Aquila.Context.enter_thread ctx;
         let db = mk_db ctx store access in
         (* a recover that blows up on the surviving bytes is itself a
            durability violation (e.g. a superblock committed ahead of
            the log pages it references) *)
         (try Kvstore.Kreon_sim.recover db
          with e ->
            violation "recover failed on surviving device: %s"
              (Printexc.to_string e);
            raise Exit);
         Hashtbl.iter
           (fun k hist ->
             let got = Kvstore.Kreon_sim.get db k in
             match Hashtbl.find_opt acked k with
             | Some acked_op -> (
                 (* acked: must return the acked value or a later one
                    (a spill or a crashed msync may have committed more) *)
                 match got with
                 | None -> violation "key %s lost: acked at op %d" k acked_op
                 | Some v ->
                     if
                       not
                         (List.exists
                            (fun (op, v') -> op >= acked_op && String.equal v v')
                            hist)
                     then
                       violation "key %s: %S matches no write since acked op %d"
                         k v acked_op)
             | None -> (
                 (* never acked: may be absent, or hold any value this
                    run actually wrote (an uncompleted commit may have
                    landed) — but never foreign bytes *)
                 match got with
                 | None -> ()
                 | Some v ->
                     if not (List.exists (fun (_, v') -> String.equal v v') hist)
                     then violation "key %s: recovered bytes %S never written" k v))
           history));
  (try Sim.Engine.run eng with
  | Exit -> ()
  | e -> violation "restart verification failed: %s" (Printexc.to_string e));
  {
    crashed = !crashed;
    events = !events;
    counters = Fault.Plan.counters plan;
    store_digest = "";
    run_violations = List.rev !violations;
  }

(* ---- sweep drivers ---- *)

let label mode seed crash_at msg =
  Printf.sprintf "[%s seed=%d%s] %s" mode seed
    (match crash_at with None -> "" | Some at -> Printf.sprintf " crash=%d" at)
    msg

(* Probe the full run twice (determinism check), then sweep [points]
   crash ordinals spread over the observed event count. *)
let sweep ~mode ~(spec : Fault.Plan.spec) ~seeds ~points once =
  let combos = ref 0 in
  let crashes = ref 0 in
  let violations = ref [] in
  let add ~seed ~crash_at msgs =
    violations :=
      List.rev_append (List.rev_map (label mode seed crash_at) msgs) !violations
  in
  List.iter
    (fun seed ->
      let spec = { spec with Fault.Plan.seed; crash_at = None } in
      let probe = once ~seed ~spec () in
      add ~seed ~crash_at:None probe.run_violations;
      let probe2 = once ~seed ~spec () in
      if
        probe.events <> probe2.events
        || probe.counters <> probe2.counters
        || not (String.equal probe.store_digest probe2.store_digest)
      then
        add ~seed ~crash_at:None
          [
            Printf.sprintf
              "nondeterministic: events %d/%d, device or counters differ"
              probe.events probe2.events;
          ];
      for i = 1 to points do
        let at = max 1 (probe.events * i / (points + 1)) in
        let spec = { spec with Fault.Plan.crash_at = Some at } in
        let r = once ~seed ~spec () in
        incr combos;
        if r.crashed then incr crashes;
        add ~seed ~crash_at:(Some at) r.run_violations
      done)
    seeds;
  {
    Fault.Report.combos = !combos;
    crashes = !crashes;
    violations = List.rev !violations;
  }

let run_micro ?(spec = Fault.Plan.default) ?(broken = false)
    ?(policy = Mcache.Policy.Clock) ~seeds ~points () =
  sweep
    ~mode:(if broken then "micro/broken" else "micro")
    ~spec ~seeds ~points
    (fun ~seed ~spec () -> micro_once ~seed ~spec ~broken ~policy ())

let run_kreon ?(spec = Fault.Plan.default) ?(policy = Mcache.Policy.Clock)
    ~seeds ~points () =
  sweep ~mode:"kreon" ~spec ~seeds ~points (fun ~seed ~spec () ->
      kreon_once ~seed ~spec ~policy ())
