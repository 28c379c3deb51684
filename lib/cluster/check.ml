(* clustercheck: the no-lost-acknowledged-writes sweep (DESIGN.md §11).

   Fault.Sweep probes each seed twice (determinism gate over event
   count, acked ops and device bytes), then sweeps crash ordinals spread
   over the observed event count, crossed with *which node* dies: a
   primary crash and a mid-chain replica crash exercise different
   failover paths.

   Each combo runs a seeded mixed workload through Cluster.kv while the
   armed plan downs the target node at the exact ordinal, lets failover
   and recovery drain, then checks three oracles:

   1. no lost acks — every write the client saw acknowledged must read
      back as that value or a later one (never older, never absent);
   2. no foreign bytes — reads only ever return values the client wrote;
   3. convergence — after resync every placement member of every key
      holds identical state.

   1 and 2 are Fault.Kv_oracle.  Finally the whole cluster is restarted
   over the surviving devices (fresh engine, WAL replay only) and
   oracles 1 and 3 re-checked: what the cluster serves must be
   reconstructible from durable state alone. *)

(* ---- workload ---- *)

let check_ops = 150
let check_keyspace = 32

let kv_key rng = Printf.sprintf "key%03d" (Sim.Rng.int rng check_keyspace)
let kv_value ~seed ~op key = Printf.sprintf "v%05d.%d.%s" op seed key

let read (kv : Ycsb.Runner.kv) key =
  try kv.Ycsb.Runner.kv_read key with Rpc.Unreachable _ -> None

(* Read every written key back through the cluster API and judge it. *)
let oracle_readback ~eng ~kv ~oracle ~violation ~tag =
  ignore
    (Sim.Engine.spawn eng ~name:(tag ^ "-oracle") (fun () ->
         List.iter
           (fun key ->
             Fault.Kv_oracle.check oracle ~key (read kv key)
             |> Option.iter (fun msg -> violation (tag ^ ": " ^ msg)))
           (Fault.Kv_oracle.keys oracle)));
  Sim.Engine.run eng

let cluster_once ~seed ~(spec : Fault.Plan.spec) ~(cfg : Cluster.config) =
  let plan = Fault.Plan.make spec in
  let oracle = Fault.Kv_oracle.create () in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let events = ref 0 in
  let eng = Sim.Engine.create () in
  let cl = Cluster.create ~cfg ~eng () in
  Fault.with_plan plan (fun () ->
      Cluster.boot cl;
      Cluster.arm_fault cl plan;
      let kv = Cluster.kv cl in
      ignore
        (Sim.Engine.spawn eng ~name:"client" ~core:cfg.Cluster.nodes (fun () ->
             let rng = Sim.Rng.create (0xc105ed + seed) in
             for i = 1 to check_ops do
               let key = kv_key rng in
               if i mod 5 = 0 then begin
                 (* read: may see anything from this run, never foreign *)
                 match read kv key with
                 | Some v when not (Fault.Kv_oracle.written oracle ~key v) ->
                     violation "run: key %s read foreign bytes %S" key v
                 | _ -> ()
               end
               else begin
                 let v = kv_value ~seed ~op:i key in
                 Fault.Kv_oracle.write oracle ~key ~op:i v;
                 match kv.Ycsb.Runner.kv_update key v with
                 | () -> Fault.Kv_oracle.ack oracle ~key ~op:i
                 | exception Rpc.Unreachable _ -> ()
               end
             done));
      Sim.Engine.run eng;
      (* final anti-entropy pass now that writers stopped, then oracles *)
      ignore
        (Sim.Engine.spawn eng ~name:"final-resync" ~core:cfg.Cluster.nodes
           (fun () -> ignore (Cluster.resync cl)));
      Sim.Engine.run eng;
      oracle_readback ~eng ~kv ~oracle ~violation:(violation "%s") ~tag:"run";
      List.iter (fun v -> violation "run: %s" v) (Cluster.convergence_violations cl);
      events := Sim.Engine.events eng);
  (* restart verification: a fresh cluster over the surviving devices
     must serve the same durable truth (no plan installed) *)
  let eng2 = Sim.Engine.create () in
  let cl2 = Cluster.create ~cfg ~devices:(Cluster.devices cl) ~eng:eng2 () in
  (try
     Cluster.boot cl2;
     oracle_readback ~eng:eng2 ~kv:(Cluster.kv cl2) ~oracle
       ~violation:(violation "%s") ~tag:"restart";
     List.iter
       (fun v -> violation "restart: %s" v)
       (Cluster.convergence_violations cl2)
   with e ->
     violation "restart verification failed: %s" (Printexc.to_string e));
  {
    Fault.Sweep.crashed = Fault.Plan.crashed plan;
    events = !events;
    fingerprint =
      Printf.sprintf "acked=%d:%s"
        (Cluster.stats cl).Cluster.acked_writes
        (Digest.to_hex (Cluster.device_digest cl));
    violations = !violations;
  }

let sweep ?(broken = false) ?(cfg = Cluster.default_config) ~seeds ~points () =
  let cfg = { cfg with Cluster.broken } in
  Fault.Sweep.run ~mode:"cluster" ~spec:Fault.Plan.default ~seeds ~points
    ~targets:(List.init cfg.Cluster.nodes Fun.id)
    (fun ~seed ~spec -> cluster_once ~seed ~spec ~cfg)
