(* Conservative parallel discrete-event simulation (PDES) on OCaml 5
   domains.

   A cluster runs N shards, each a full single-queue [Engine] owned by
   one domain.  Shards free-run in lockstepped windows: every window the
   cluster agrees on the global minimum next-event time T, then each
   shard executes its local events in [T, T + lookahead) without any
   further coordination.  The lookahead is the Chandy–Misra–Bryant
   promise: no shard may inject an event into another shard less than
   [lookahead] cycles after its own current time, so nothing a peer does
   during the window can land inside the window — see
   [Hw.Costs.min_cross_shard_latency] for the model-derived floor.

   Cross-shard events travel through per-shard inboxes (a mutex-guarded
   list; posts only happen while peers are inside their run phase, so
   drain/publish phases never contend).  Each post carries a
   deterministic merge key [(at, source shard, source ordinal)], and a
   drain delivers in sorted key order, so the receiving engine assigns
   the same (time, seq) schedule on every run — wall-clock races decide
   only *when* an inbox entry is observed, never *where* it lands in
   virtual time.  A post made during window W is sealed into the inbox
   before the W-close barrier and therefore drained by every mode at the
   top of window W+1.

   [deterministic] mode replays the exact same window algorithm on the
   calling domain, visiting shards in ascending sid order — byte-for-byte
   the schedule of the free-running mode, single-threaded.  Tests compare
   the two to prove the parallel run honest. *)

(* Sense-reversing barrier on a stdlib mutex + condvar (domain-safe).
   [await] returns only after all [n] parties arrive; the phase counter
   is the sense, so back-to-back barriers cannot tangle. *)
module Bar = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    n : int;
    mutable arrived : int;
    mutable phase : int;
  }

  let create n =
    { lock = Mutex.create (); cond = Condition.create (); n; arrived = 0; phase = 0 }

  let await b =
    Mutex.lock b.lock;
    let ph = b.phase in
    b.arrived <- b.arrived + 1;
    if b.arrived = b.n then begin
      b.arrived <- 0;
      b.phase <- ph + 1;
      Condition.broadcast b.cond
    end
    else
      while b.phase = ph do
        Condition.wait b.cond b.lock
      done;
    Mutex.unlock b.lock
end

type t = { sid : int; eng : Engine.t; cl : cluster; mutable out_ord : int }

and item = { at : int; src : int; ord : int; fn : t -> unit }

and inbox = { ilock : Mutex.t; mutable items : item list }

and cluster = {
  n : int;
  la : int;
  inboxes : inbox array;
  engines : Engine.t option array;
  handles : t option array;
  next : int array; (* published next-event time per shard, max_int = drained *)
  posts : int Atomic.t;
  drains : int array; (* inbox items delivered, per shard (owner-written) *)
  mutable windows : int; (* written by shard 0 / the det loop only *)
  fails : (exn * Printexc.raw_backtrace) option array;
}

type stats = {
  shards : int;
  lookahead : int;
  events : int;
  final_cycles : int64;
  cross_posts : int;
  windows : int;
  run_wall_s : float;
  shard_events : int array;
  shard_drains : int array;
}

let sid sh = sh.sid
let engine sh = sh.eng
let shards sh = sh.cl.n
let lookahead sh = Int64.of_int sh.cl.la

let post sh ~to_ ~at f =
  let cl = sh.cl in
  if to_ < 0 || to_ >= cl.n then
    invalid_arg (Printf.sprintf "Shard.post: target %d outside [0, %d)" to_ cl.n);
  let at = Int64.to_int at in
  if to_ = sh.sid then
    (* Local delivery needs no promise: the event merges into this
       shard's own queue under the normal (time, seq) order. *)
    Engine.post sh.eng ~at:(Int64.of_int at) (fun () -> f sh)
  else begin
    let now = Int64.to_int (Engine.now sh.eng) in
    if at < now + cl.la then
      invalid_arg
        (Printf.sprintf
           "Shard.post: timestamp %d violates lookahead %d (shard %d at %d): \
            cross-shard events must land >= now + lookahead"
           at cl.la sh.sid now);
    sh.out_ord <- sh.out_ord + 1;
    Atomic.incr cl.posts;
    let it = { at; src = sh.sid; ord = sh.out_ord; fn = f } in
    let ib = cl.inboxes.(to_) in
    Mutex.lock ib.ilock;
    ib.items <- it :: ib.items;
    Mutex.unlock ib.ilock
  end

(* Deliver everything in this shard's inbox to its engine, in merge-key
   order.  Source ordinals are deterministic (each shard's simulation
   is), so the delivery order — and the seq numbers the engine assigns —
   never depends on which domain won the inbox mutex first. *)
let drain cl sh =
  let ib = cl.inboxes.(sh.sid) in
  Mutex.lock ib.ilock;
  let items = ib.items in
  ib.items <- [];
  Mutex.unlock ib.ilock;
  match items with
  | [] -> ()
  | items ->
      cl.drains.(sh.sid) <- cl.drains.(sh.sid) + List.length items;
      let items =
        List.sort
          (fun a b ->
            if a.at <> b.at then Int.compare a.at b.at
            else if a.src <> b.src then Int.compare a.src b.src
            else Int.compare a.ord b.ord)
          items
      in
      List.iter
        (fun it -> Engine.post sh.eng ~at:(Int64.of_int it.at) (fun () -> it.fn sh))
        items

let fail cl sid e = cl.fails.(sid) <- Some (e, Printexc.get_raw_backtrace ())

let global_min cl =
  let m = ref max_int in
  for s = 0 to cl.n - 1 do
    if cl.next.(s) < !m then m := cl.next.(s)
  done;
  !m

let horizon_of cl t = if t > max_int - cl.la then max_int else t + cl.la

(* One shard's life in free-running mode.  Two barriers per window:
   after publishing next-event times (so the global min T is computed
   from a consistent snapshot) and after the run phase (so every window-W
   post is sealed before any window-W+1 drain).  A failed shard keeps
   honouring the barrier protocol while publishing max_int — peers
   finish their work, nobody deadlocks, the exception re-raises after
   join. *)
let window_loop cl bar sh =
  let dead = ref (cl.fails.(sh.sid) <> None) in
  let running = ref true in
  while !running do
    if not !dead then begin
      try
        drain cl sh;
        cl.next.(sh.sid) <- Engine.next_time sh.eng
      with e ->
        fail cl sh.sid e;
        dead := true
    end;
    if !dead then cl.next.(sh.sid) <- max_int;
    Bar.await bar;
    let t = global_min cl in
    if t = max_int then running := false
    else begin
      (if sh.sid = 0 then cl.windows <- cl.windows + 1);
      if not !dead then (
        try Engine.run_until sh.eng ~horizon:(horizon_of cl t)
        with e ->
          fail cl sh.sid e;
          dead := true)
    end;
    Bar.await bar
  done

(* Deterministic replay of the same window algorithm, single-domain,
   shards visited in ascending sid order.  Exceptions behave like a dead
   shard in free mode: recorded, the rest of the cluster drains. *)
let det_loop cl =
  let each f =
    Array.iter (function Some sh -> f sh | None -> ()) cl.handles
  in
  let running = ref true in
  while !running do
    each (fun sh ->
        if cl.fails.(sh.sid) = None then (
          try
            drain cl sh;
            cl.next.(sh.sid) <- Engine.next_time sh.eng
          with e -> fail cl sh.sid e);
        if cl.fails.(sh.sid) <> None then cl.next.(sh.sid) <- max_int);
    let t = global_min cl in
    if t = max_int then running := false
    else begin
      cl.windows <- cl.windows + 1;
      each (fun sh ->
          if cl.fails.(sh.sid) = None then
            try Engine.run_until sh.eng ~horizon:(horizon_of cl t)
            with e -> fail cl sh.sid e)
    end
  done

let reraise_first_failure cl =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    cl.fails

let make_shard cl ~seed sid build =
  let eng = Engine.create ~seed:(seed + (7919 * sid)) () in
  let sh = { sid; eng; cl; out_ord = 0 } in
  cl.engines.(sid) <- Some eng;
  cl.handles.(sid) <- Some sh;
  build sh;
  sh

let collect_stats cl ~run_wall_s =
  let events = ref 0 and final = ref 0L in
  let shard_events =
    Array.map
      (function
        | Some eng ->
            events := !events + Engine.events eng;
            if Engine.now eng > !final then final := Engine.now eng;
            Engine.events eng
        | None -> 0)
      cl.engines
  in
  {
    shards = cl.n;
    lookahead = cl.la;
    events = !events;
    final_cycles = !final;
    cross_posts = Atomic.get cl.posts;
    windows = cl.windows;
    run_wall_s;
    shard_events;
    shard_drains = Array.copy cl.drains;
  }

let run ?(deterministic = false) ?(seed = 42) ~shards:n ~lookahead build =
  if n < 1 then invalid_arg "Shard.run: shards must be >= 1";
  let la = Int64.to_int lookahead in
  if la < 1 then invalid_arg "Shard.run: lookahead must be >= 1 cycle";
  let cl =
    {
      n;
      la;
      inboxes = Array.init n (fun _ -> { ilock = Mutex.create (); items = [] });
      engines = Array.make n None;
      handles = Array.make n None;
      next = Array.make n max_int;
      posts = Atomic.make 0;
      drains = Array.make n 0;
      windows = 0;
      fails = Array.make n None;
    }
  in
  if deterministic || n = 1 then begin
    for sid = 0 to n - 1 do
      try ignore (make_shard cl ~seed sid build) with e -> fail cl sid e
    done;
    let t0 = Unix.gettimeofday () in
    det_loop cl;
    let dt = Unix.gettimeofday () -. t0 in
    reraise_first_failure cl;
    collect_stats cl ~run_wall_s:dt
  end
  else begin
    (* Workers build their own engine so metric cells, trace buffers and
       the ambient-engine DLS slot land on the owning domain, then meet
       at a barrier.  Shard 0 (this domain) stamps wall time inside the
       barriers, so the reported seconds cover the windowed run only —
       not Domain.spawn, stack construction, or join/teardown. *)
    let bar = Bar.create n in
    let t0 = ref 0. and t1 = ref 0. in
    let body sid =
      (try ignore (make_shard cl ~seed sid build) with e -> fail cl sid e);
      Bar.await bar;
      if sid = 0 then t0 := Unix.gettimeofday ();
      (match cl.handles.(sid) with
      | Some sh -> window_loop cl bar sh
      | None ->
          (* build failed: keep the barrier protocol alive as a drained
             shard so peers can finish *)
          let running = ref true in
          while !running do
            cl.next.(sid) <- max_int;
            Bar.await bar;
            if global_min cl = max_int then running := false;
            Bar.await bar
          done);
      if sid = 0 then t1 := Unix.gettimeofday ()
    in
    let doms =
      List.init (n - 1) (fun i ->
          Domain.spawn (fun () ->
              try body (i + 1) with e -> fail cl (i + 1) e))
    in
    (try body 0 with e -> fail cl 0 e);
    List.iter Domain.join doms;
    reraise_first_failure cl;
    collect_stats cl ~run_wall_s:(!t1 -. !t0)
  end
