(* aqcluster assembly: N nodes on one engine behind the consistent-hash
   router, chain replication with ack-after-K-durable, crash-ordinal
   failover and resync.  DESIGN.md §11 documents the invariants; the
   sweep in check.ml proves them point by point.

   Topology: node i's handler fibers run on core i; the external client
   runs on core N.  Everything shares one deterministic engine, so the
   whole cluster is byte-identical across --jobs and repeat runs, and
   an aqfault crash ordinal lands on exactly the same operation every
   time. *)

type config = {
  nodes : int;
  replicas : int;  (** total copies per key, primary included *)
  vnodes : int;
  node : Node.config;
  rpc : Rpc.config;
  broken : bool;  (** teeth test: ack after the primary's durable write *)
  recovery_delay : int;  (** cycles from crash to the node's restart *)
}

let default_config =
  {
    nodes = 5;
    replicas = 3;
    vnodes = 16;
    node = Node.default_config;
    rpc = Rpc.default_config;
    broken = false;
    recovery_delay = 3_000_000;
  }

type req =
  | Put of { key : string; value : string; op : int; chain : int list }
  | Repl of { key : string; value : string; op : int; chain : int list }
  | Get of { key : string }
  | Scan of { start : string; n : int }
  | Push of { key : string; r : Node.record }

type resp =
  | Ack
  | Value of string option
  | Recs of (string * Node.record) list
  | Adopted of bool
  | Nack of string

type stats = {
  mutable acked_writes : int;
  mutable redirected : int;
  mutable failovers : int;
  mutable resync_pages : int;
  mutable crash_ordinals : int list;  (** newest first *)
}

type t = {
  eng : Sim.Engine.t;
  cfg : config;
  nodes : Node.t array;
  live : bool array;
  router : Router.t;
  rpc : (req, resp) Rpc.t;
  stats : stats;
  client_core : int;
  mutable next_op : int;
}

(* Per-domain metric cells, lazily bound (lib/fault pattern) so the
   cluster composes with the --jobs fan-out. *)
let m_acked_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"cluster writes acked after K durable copies"
        "cluster_acked_writes")

let m_failovers_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"cluster node crashes that triggered failover"
        "cluster_failovers")

let m_redirected_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter
        ~help:"client ops re-routed to a different primary after a timeout"
        "cluster_redirected_ops")

let m_resync_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter
        ~help:"WAL pages pushed to repair replicas after a membership change"
        "cluster_resync_pages")

let m_lag_key : Metrics.Registry.hcell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.histogram
        ~help:"cycles from primary-durable to full-chain ack"
        "cluster_replication_lag")

let stats t = t.stats
let rpc_timeouts t = Rpc.timeouts t.rpc
let rpc_retries t = Rpc.retries t.rpc
let live_view t = Array.copy t.live
let node t i = t.nodes.(i)
let degraded t = Array.exists Node.degraded t.nodes
let devices t = Array.map Node.device t.nodes

(* ---- request handlers (run in per-request fibers on the node's core) ---- *)

let forward_chain t node ~key ~value ~op ~chain ~observe_lag =
  match chain with
  | [] -> Ack
  | next :: rest -> (
      let t0 = Sim.Engine.now t.eng in
      match
        try
          Rpc.call_retry t.rpc ~src:(Node.id node) ~dst:next
            (Repl { key; value; op; chain = rest })
        with Rpc.Unreachable { node = n; _ } ->
          Nack (Printf.sprintf "replica %d unreachable" n)
      with
      | Ack ->
          if observe_lag then
            Metrics.Registry.observe
              (Domain.DLS.get m_lag_key)
              (Int64.to_int (Int64.sub (Sim.Engine.now t.eng) t0));
          Ack
      | Nack _ as n -> n
      | _ -> Nack "unexpected replication response")

let handle_put t node ~key ~value ~op ~chain ~is_primary =
  Node.ensure_up node;
  (* idempotent: client retries and re-routed chains re-send the op *)
  (match Node.find node key with
  | Some r when r.Node.op >= op -> ()
  | _ -> Node.append node ~key ~r:{ Node.op; value = Some value });
  if is_primary && t.cfg.broken then begin
    (* BROKEN (teeth test): acknowledge after the local durable write
       only, replicate asynchronously — a primary crash in the window
       loses the acked write, which the sweep oracle must catch *)
    (if chain <> [] then
       ignore
         (Sim.Engine.spawn t.eng ~name:"async-repl" ~core:(Node.id node)
            (fun () ->
              Sim.Engine.set_node_id (Sim.Engine.self ()) (Node.id node);
              (* replication lags the ack by a batching delay — exactly
                 the window a crash must land in for the oracle to fire *)
              Sim.Engine.idle_wait 400_000L;
              try
                Node.ensure_up node;
                ignore
                  (forward_chain t node ~key ~value ~op ~chain
                     ~observe_lag:false)
              with Rpc.Drop -> ())));
    Ack
  end
  else forward_chain t node ~key ~value ~op ~chain ~observe_lag:is_primary

let handle t node = function
  | Put { key; value; op; chain } ->
      handle_put t node ~key ~value ~op ~chain ~is_primary:true
  | Repl { key; value; op; chain } ->
      handle_put t node ~key ~value ~op ~chain ~is_primary:false
  | Get { key } ->
      Value
        (match Node.find node key with
        | Some { Node.value = Some v; _ } -> Some v
        | _ -> None)
  | Scan { start; n } ->
      Node.ensure_up node;
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: tl -> x :: take (k - 1) tl
      in
      Recs
        (Node.entries node
        |> List.filter (fun (k, (r : Node.record)) ->
               String.compare k start >= 0 && r.Node.value <> None)
        |> take n)
  | Push { key; r } ->
      Node.ensure_up node;
      let local = Node.peek node key in
      let adopt =
        if Node.tainted node then local <> Some r
        else
          match local with
          | Some l -> r.Node.op > l.Node.op
          | None -> r.Node.value <> None
      in
      if adopt then Node.append node ~key ~r;
      Adopted adopt

(* ---- construction ---- *)

let create ?(cfg = default_config) ?devices ~eng () =
  if cfg.nodes <= 0 then invalid_arg "Cluster.create: nodes must be positive";
  if cfg.replicas <= 0 || cfg.replicas > cfg.nodes then
    invalid_arg "Cluster.create: need 1 <= replicas <= nodes";
  (match devices with
  | Some d when Array.length d <> cfg.nodes ->
      invalid_arg "Cluster.create: device count mismatch"
  | _ -> ());
  let nodes =
    Array.init cfg.nodes (fun i ->
        Node.create
          ?nvme:(Option.map (fun d -> d.(i)) devices)
          ~id:i cfg.node)
  in
  let live = Array.make cfg.nodes true in
  let router = Router.create ~nodes:cfg.nodes ~vnodes:cfg.vnodes () in
  let rpc =
    Rpc.create ~eng ~cfg:cfg.rpc ~nodes:cfg.nodes ~alive:(fun i ->
        Node.is_up nodes.(i))
  in
  let t =
    {
      eng;
      cfg;
      nodes;
      live;
      router;
      rpc;
      stats =
        {
          acked_writes = 0;
          redirected = 0;
          failovers = 0;
          resync_pages = 0;
          crash_ordinals = [];
        };
      client_core = cfg.nodes;
      next_op = 0;
    }
  in
  Array.iteri (fun i n -> Rpc.set_handler rpc i (handle t n)) nodes;
  t

(* Bring every node's stack up (WAL replay) and drain: after [boot] the
   cluster serves; restart verification reuses it over old devices. *)
let boot t =
  Array.iteri
    (fun i n ->
      ignore
        (Sim.Engine.spawn t.eng
           ~name:(Printf.sprintf "node%d-boot" i)
           ~core:i
           (fun () ->
             Sim.Engine.set_node_id (Sim.Engine.self ()) i;
             Node.open_stack n)))
    t.nodes;
  Sim.Engine.run t.eng

(* ---- resync / anti-entropy ----

   Control plane reads memtables directly (the simulator plays the
   omniscient cluster manager); the data itself moves through Push RPCs
   so resync pages are durably appended, costed and counted.  The
   authoritative record for a key is the max-op copy among *untainted*
   live nodes: every acked write has K durable copies, so after a single
   crash some untainted holder always survives, while a rejoining node's
   divergent WAL tail (the broken variant's lost-ack window, or writes
   that never completed their chain) loses and is truncated. *)

let union_keys t =
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun i n -> if t.live.(i) then List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys n))
    t.nodes;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort String.compare

let resync t =
  let pushed = ref 0 in
  List.iter
    (fun key ->
      let placement = Router.place t.router ~live:t.live ~key ~k:t.cfg.replicas in
      let winner =
        Array.to_list t.nodes
        |> List.filter_map (fun n ->
               if t.live.(Node.id n) && not (Node.tainted n) then
                 Node.peek n key
               else None)
        |> List.fold_left
             (fun best (r : Node.record) ->
               match best with
               | Some (b : Node.record) when b.Node.op >= r.Node.op -> best
               | _ -> Some r)
             None
      in
      let target =
        (* no untainted copy: the key lives only in a rejoining node's
           divergent tail — truncate it (the promoted primary's history
           is authoritative, exactly as in chain replication) *)
        match winner with
        | Some w -> w
        | None -> { Node.op = 0; value = None }
      in
      List.iter
        (fun m ->
          let n = t.nodes.(m) in
          let local = Node.peek n key in
          let behind =
            if Node.tainted n then local <> Some target
            else
              match (local, target.Node.value) with
              | Some l, _ -> target.Node.op > l.Node.op
              | None, Some _ -> true
              | None, None -> false
          in
          if behind then
            match Rpc.call t.rpc ~src:(-1) ~dst:m (Push { key; r = target }) with
            | Some (Adopted true) ->
                incr pushed;
                t.stats.resync_pages <- t.stats.resync_pages + 1;
                Metrics.Registry.incr (Domain.DLS.get m_resync_key)
            | _ -> ())
        placement)
    (union_keys t);
  !pushed

(* ---- failover ---- *)

let recover t i =
  let n = t.nodes.(i) in
  Sim.Engine.set_node_id (Sim.Engine.self ()) i;
  Node.reopen n;
  Node.set_tainted n true;
  t.live.(i) <- true;
  ignore (resync t);
  Node.set_tainted n false

(* Down node [i] at event ordinal [ordinal]: volatile state dies, the
   router re-routes (placement is a pure function of the live set, so
   the next replica in ring order is the promoted primary), the
   surviving members re-replicate shifted keys, and the node restarts
   after [recovery_delay].  Runs from the engine event hook — state
   mutation and spawns only, no fiber effects, no raise. *)
let crash_node t i ~ordinal =
  if t.live.(i) && Node.is_up t.nodes.(i) then begin
    t.live.(i) <- false;
    Node.crash t.nodes.(i);
    t.stats.failovers <- t.stats.failovers + 1;
    t.stats.crash_ordinals <- ordinal :: t.stats.crash_ordinals;
    Metrics.Registry.incr (Domain.DLS.get m_failovers_key);
    ignore
      (Sim.Engine.spawn t.eng ~name:"failover-resync" ~core:t.client_core
         (fun () -> ignore (resync t)));
    Sim.Engine.post t.eng
      ~at:(Int64.add (Sim.Engine.now t.eng) (Int64.of_int t.cfg.recovery_delay))
      (fun () ->
        ignore
          (Sim.Engine.spawn t.eng
             ~name:(Printf.sprintf "node%d-recover" i)
             ~core:i
             (fun () -> recover t i)))
  end

(* Arm a node-targeted aqfault crash: the plan's [crash_at]/[node] are
   consumed here (Fault.arm deliberately skips the raising domain hook
   when [node] is set) so the cut downs one node instead of the engine. *)
let arm_fault t plan =
  let spec = Fault.Plan.spec plan in
  match spec.Fault.Plan.crash_at with
  | None -> ()
  | Some at ->
      let target =
        match spec.Fault.Plan.node with Some i -> i mod t.cfg.nodes | None -> 0
      in
      let fired = ref false in
      Sim.Engine.set_event_hook t.eng
        (Some
           (fun n ->
             if (not !fired) && n >= at then begin
               fired := true;
               Fault.Plan.note_crash plan;
               crash_node t target ~ordinal:n
             end))

(* ---- client ops ---- *)

let gave_up ~attempts = Rpc.Unreachable { node = -1; attempts }

(* One client operation: place, try the primary, and on silence back
   off, re-place (the live set may have changed — a redirect) and
   retry, up to the RPC budget. *)
let client_op t ~key ~(mk : chain:int list -> req) ~(accept : resp -> 'a option)
    : 'a =
  let max_attempts = t.cfg.rpc.Rpc.max_attempts in
  let rec go attempt last =
    if attempt >= max_attempts then raise (gave_up ~attempts:attempt);
    match Router.place t.router ~live:t.live ~key ~k:t.cfg.replicas with
    | [] ->
        (* whole cluster down: wait out the backoff and re-place *)
        Rpc.note_retry t.rpc;
        Sim.Engine.idle_wait
          (Int64.of_int (Rpc.backoff_delay t.cfg.rpc ~attempt));
        go (attempt + 1) last
    | primary :: chain -> (
        (match last with
        | Some p when p <> primary ->
            t.stats.redirected <- t.stats.redirected + 1;
            Metrics.Registry.incr (Domain.DLS.get m_redirected_key)
        | _ -> ());
        match Rpc.call t.rpc ~src:(-1) ~dst:primary (mk ~chain) with
        | Some r when accept r <> None -> Option.get (accept r)
        | _ ->
            Rpc.note_retry t.rpc;
            Sim.Engine.idle_wait
              (Int64.of_int (Rpc.backoff_delay t.cfg.rpc ~attempt));
            go (attempt + 1) (Some primary))
  in
  go 0 None

let put t key value =
  t.next_op <- t.next_op + 1;
  let op = t.next_op in
  client_op t ~key
    ~mk:(fun ~chain -> Put { key; value; op; chain })
    ~accept:(function Ack -> Some () | _ -> None);
  t.stats.acked_writes <- t.stats.acked_writes + 1;
  Metrics.Registry.incr (Domain.DLS.get m_acked_key)

let get t key =
  client_op t ~key
    ~mk:(fun ~chain:_ -> Get { key })
    ~accept:(function Value v -> Some v | _ -> None)

let scan t ~start ~n =
  (* hash partitioning scatters ranges over every node: ask each live
     node for its n smallest matches, merge max-op per key, cut to n *)
  let best = Hashtbl.create 64 in
  Array.iteri
    (fun i _ ->
      if t.live.(i) then
        match Rpc.call t.rpc ~src:(-1) ~dst:i (Scan { start; n }) with
        | Some (Recs rs) ->
            List.iter
              (fun (k, (r : Node.record)) ->
                match Hashtbl.find_opt best k with
                | Some (b : Node.record) when b.Node.op >= r.Node.op -> ()
                | _ -> Hashtbl.replace best k r)
              rs
        | _ -> () (* a dead or slow node: replicas cover its ranges *))
    t.nodes;
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  Hashtbl.fold
    (fun k (r : Node.record) acc ->
      match r.Node.value with Some v -> (k, v) :: acc | None -> acc)
    best []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> take n

let kv t =
  {
    Ycsb.Runner.kv_read = (fun k -> get t k);
    kv_update = (fun k v -> put t k v);
    kv_insert = (fun k v -> put t k v);
    kv_scan = (fun ~start ~n -> scan t ~start ~n);
    kv_rmw =
      (fun k f ->
        let v = match get t k with Some v -> v | None -> "" in
        put t k (f v));
  }

(* ---- oracle helpers ---- *)

(* After resync, every placement member must hold the same visible
   (op, value) for every key — tombstones and absence are equivalent. *)
let convergence_violations t =
  let out = ref [] in
  List.iter
    (fun key ->
      let placement = Router.place t.router ~live:t.live ~key ~k:t.cfg.replicas in
      let views =
        List.map
          (fun m ->
            ( m,
              match Node.peek t.nodes.(m) key with
              | Some { Node.op; value = Some v } -> Some (op, v)
              | _ -> None ))
          placement
      in
      match views with
      | [] -> ()
      | (_, first) :: rest ->
          List.iter
            (fun (m, view) ->
              if view <> first then
                out :=
                  Printf.sprintf
                    "key %s diverges: node %d holds %s, node %d holds %s" key
                    (fst (List.hd views))
                    (match first with
                    | Some (op, v) -> Printf.sprintf "(op %d, %S)" op v
                    | None -> "nothing")
                    m
                    (match view with
                    | Some (op, v) -> Printf.sprintf "(op %d, %S)" op v
                    | None -> "nothing")
                  :: !out)
            rest)
    (union_keys t);
  List.rev !out

let device_digest t =
  Array.to_list t.nodes
  |> List.map (fun n ->
         Sdevice.Pagestore.digest (Sdevice.Block_dev.store (Node.device n)))
  |> String.concat ""
  |> Digest.string
