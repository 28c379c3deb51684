type error = Transient | Permanent

exception Crash of { at_event : int }
exception Io_error of { dev : string; write : bool; page : int; error : error }
exception Sigbus of { file : int; page : int }
exception Read_only of string

let error_to_string = function Transient -> "transient" | Permanent -> "permanent"

let () =
  Printexc.register_printer (function
    | Crash { at_event } -> Some (Printf.sprintf "Fault.Crash(at_event=%d)" at_event)
    | Io_error { dev; write; page; error } ->
        Some
          (Printf.sprintf "Fault.Io_error(%s %s page %d: %s)" dev
             (if write then "write" else "read")
             page (error_to_string error))
    | Sigbus { file; page } ->
        Some (Printf.sprintf "Fault.Sigbus(file %d page %d)" file page)
    | Read_only why -> Some (Printf.sprintf "Fault.Read_only(%s)" why)
    | _ -> None)

module Plan = struct
  type spec = {
    seed : int;
    read_error : float;
    write_error : float;
    permanent : float;
    torn_write : float;
    latency_spike : float;
    spike_factor : int;
    crash_at : int option;
    node : int option;
  }

  let default =
    {
      seed = 1;
      read_error = 0.0;
      write_error = 0.0;
      permanent = 0.0;
      torn_write = 0.0;
      latency_spike = 0.0;
      spike_factor = 8;
      crash_at = None;
      node = None;
    }

  let prob what v =
    if Float.is_nan v || v < 0.0 || v > 1.0 then
      Error (Printf.sprintf "fault plan: %s must be a probability in [0,1]" what)
    else Ok v

  let parse s =
    let ( let* ) = Result.bind in
    let fields =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun f -> f <> "")
    in
    List.fold_left
      (fun acc field ->
        let* sp = acc in
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "fault plan: expected key=value, got %S" field)
        | Some i ->
            let key = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            let* f =
              match float_of_string_opt v with
              | Some f -> Ok f
              | None -> Error (Printf.sprintf "fault plan: bad number %S for %s" v key)
            in
            (match key with
            | "seed" -> Ok { sp with seed = int_of_float f }
            | "read" ->
                let* p = prob "read" f in
                Ok { sp with read_error = p }
            | "write" ->
                let* p = prob "write" f in
                Ok { sp with write_error = p }
            | "perm" ->
                let* p = prob "perm" f in
                Ok { sp with permanent = p }
            | "torn" ->
                let* p = prob "torn" f in
                Ok { sp with torn_write = p }
            | "spike" ->
                let* p = prob "spike" f in
                Ok { sp with latency_spike = p }
            | "spikex" ->
                if f < 2.0 then Error "fault plan: spikex must be >= 2"
                else Ok { sp with spike_factor = int_of_float f }
            | "crash" ->
                if f < 0.0 then Error "fault plan: crash must be >= 0"
                else Ok { sp with crash_at = Some (int_of_float f) }
            | "node" ->
                if f < 0.0 then Error "fault plan: node must be >= 0"
                else Ok { sp with node = Some (int_of_float f) }
            | k -> Error (Printf.sprintf "fault plan: unknown key %S" k)))
      (Ok default) fields

  let to_string sp =
    let b = Buffer.create 64 in
    Buffer.add_string b (Printf.sprintf "seed=%d" sp.seed);
    let fld k v = if v > 0.0 then Buffer.add_string b (Printf.sprintf ",%s=%g" k v) in
    fld "read" sp.read_error;
    fld "write" sp.write_error;
    fld "perm" sp.permanent;
    fld "torn" sp.torn_write;
    fld "spike" sp.latency_spike;
    if sp.latency_spike > 0.0 then
      Buffer.add_string b (Printf.sprintf ",spikex=%d" sp.spike_factor);
    (match sp.crash_at with
    | Some n -> Buffer.add_string b (Printf.sprintf ",crash=%d" n)
    | None -> ());
    (match sp.node with
    | Some i -> Buffer.add_string b (Printf.sprintf ",node=%d" i)
    | None -> ());
    Buffer.contents b

  type t = {
    sp : spec;
    rng : Sim.Rng.t;
    bad : (string * int, unit) Hashtbl.t; (* (device, page) failed permanently *)
    mutable n_probes : int;
    mutable n_read_errors : int;
    mutable n_write_errors : int;
    mutable n_torn : int;
    mutable n_spikes : int;
    mutable n_retries : int;
    mutable n_sigbus : int;
    mutable did_crash : bool;
  }

  let make sp =
    {
      sp;
      rng = Sim.Rng.create sp.seed;
      bad = Hashtbl.create 16;
      n_probes = 0;
      n_read_errors = 0;
      n_write_errors = 0;
      n_torn = 0;
      n_spikes = 0;
      n_retries = 0;
      n_sigbus = 0;
      did_crash = false;
    }

  let spec t = t.sp
  let probes t = t.n_probes
  let read_errors t = t.n_read_errors
  let write_errors t = t.n_write_errors
  let torn_writes t = t.n_torn
  let latency_spikes t = t.n_spikes
  let retries t = t.n_retries
  let sigbus_count t = t.n_sigbus
  let crashed t = t.did_crash
  let note_crash t = t.did_crash <- true

  let counters t =
    [
      ("probes", t.n_probes);
      ("read_errors", t.n_read_errors);
      ("write_errors", t.n_write_errors);
      ("torn_writes", t.n_torn);
      ("latency_spikes", t.n_spikes);
      ("retries", t.n_retries);
      ("sigbus", t.n_sigbus);
      ("crashed", if t.did_crash then 1 else 0);
    ]
end

(* Plans can be constructed on one domain and drawn from another (the
   fan-out makes them per job), so metric cells are bound lazily per
   domain instead of living in the plan record.  Draws only happen when
   injection is active, so the DLS lookup costs nothing in clean runs. *)
let m_injected_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter
        ~help:"faults injected (I/O errors, torn writes, latency spikes)"
        "fault_injected")

let m_retries_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"I/O retries caused by injected faults"
        "fault_retries")

let m_crashes_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"injected crashes fired" "fault_crashes")

let note_injected () = Metrics.Registry.incr (Domain.DLS.get m_injected_key)

let live_plans = Atomic.make 0

let plan_key : Plan.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let crash_hook (p : Plan.t) at =
  fun (n : int) ->
    if n >= at && not p.Plan.did_crash then begin
      p.Plan.did_crash <- true;
      Metrics.Registry.incr (Domain.DLS.get m_crashes_key);
      raise (Crash { at_event = n })
    end

(* A node-targeted plan ([node=I]) never arms the raising domain hook:
   the crash belongs to one cluster node, not the whole engine run, so
   the cluster layer consumes [crash_at]/[node] itself and downs just
   that node (calling {!Plan.note_crash} when it fires). *)
let arm p =
  match (p.Plan.sp.Plan.crash_at, p.Plan.sp.Plan.node) with
  | Some at, None -> Sim.Engine.set_domain_event_hook (Some (crash_hook p at))
  | _ -> Sim.Engine.set_domain_event_hook None

let install p =
  let slot = Domain.DLS.get plan_key in
  if !slot = None then Atomic.incr live_plans;
  slot := Some p;
  arm p

let clear () =
  let slot = Domain.DLS.get plan_key in
  if !slot <> None then Atomic.decr live_plans;
  slot := None;
  Sim.Engine.set_domain_event_hook None

let active () =
  if Atomic.get live_plans = 0 then None else !(Domain.DLS.get plan_key)

let with_plan p f =
  let slot = Domain.DLS.get plan_key in
  let saved = !slot in
  if saved = None then Atomic.incr live_plans;
  slot := Some p;
  arm p;
  Fun.protect
    ~finally:(fun () ->
      (if saved = None then
         match !slot with Some _ -> Atomic.decr live_plans | None -> ());
      slot := saved;
      match saved with
      | Some prev -> arm prev
      | None -> Sim.Engine.set_domain_event_hook None)
    f

type write_outcome = W_ok | W_error of error | W_torn of int

let span_bad (p : Plan.t) ~dev ~page ~count =
  let rec go i =
    if i >= count then false
    else if Hashtbl.mem p.Plan.bad (dev, page + i) then true
    else go (i + 1)
  in
  (* only pay the per-page lookups once some page actually went bad *)
  Hashtbl.length p.Plan.bad > 0 && go 0

let draw_permanence (p : Plan.t) ~dev ~page =
  if p.Plan.sp.Plan.permanent > 0.0 && Sim.Rng.float p.Plan.rng < p.Plan.sp.Plan.permanent
  then begin
    Hashtbl.replace p.Plan.bad (dev, page) ();
    Permanent
  end
  else Transient

let draw_read (p : Plan.t) ~dev ~page ~count =
  p.Plan.n_probes <- p.Plan.n_probes + 1;
  if span_bad p ~dev ~page ~count then begin
    p.Plan.n_read_errors <- p.Plan.n_read_errors + 1;
    note_injected ();
    Some Permanent
  end
  else if p.Plan.sp.Plan.read_error > 0.0 && Sim.Rng.float p.Plan.rng < p.Plan.sp.Plan.read_error
  then begin
    p.Plan.n_read_errors <- p.Plan.n_read_errors + 1;
    note_injected ();
    Some (draw_permanence p ~dev ~page)
  end
  else None

let draw_write (p : Plan.t) ~dev ~page ~count =
  p.Plan.n_probes <- p.Plan.n_probes + 1;
  if span_bad p ~dev ~page ~count then begin
    p.Plan.n_write_errors <- p.Plan.n_write_errors + 1;
    note_injected ();
    W_error Permanent
  end
  else if
    p.Plan.sp.Plan.write_error > 0.0
    && Sim.Rng.float p.Plan.rng < p.Plan.sp.Plan.write_error
  then begin
    p.Plan.n_write_errors <- p.Plan.n_write_errors + 1;
    note_injected ();
    if
      count > 1
      && p.Plan.sp.Plan.torn_write > 0.0
      && Sim.Rng.float p.Plan.rng < p.Plan.sp.Plan.torn_write
    then begin
      p.Plan.n_torn <- p.Plan.n_torn + 1;
      W_torn (Sim.Rng.int p.Plan.rng count)
    end
    else W_error (draw_permanence p ~dev ~page)
  end
  else W_ok

let draw_spike (p : Plan.t) =
  if
    p.Plan.sp.Plan.latency_spike > 0.0
    && Sim.Rng.float p.Plan.rng < p.Plan.sp.Plan.latency_spike
  then begin
    p.Plan.n_spikes <- p.Plan.n_spikes + 1;
    note_injected ();
    max 2 p.Plan.sp.Plan.spike_factor
  end
  else 1

let note_retry (p : Plan.t) =
  p.Plan.n_retries <- p.Plan.n_retries + 1;
  Metrics.Registry.incr (Domain.DLS.get m_retries_key)
let note_sigbus (p : Plan.t) = p.Plan.n_sigbus <- p.Plan.n_sigbus + 1

module Report = struct
  type t = { combos : int; crashes : int; violations : string list }

  let empty = { combos = 0; crashes = 0; violations = [] }
  let ok r = r.violations = []

  let merge a b =
    {
      combos = a.combos + b.combos;
      crashes = a.crashes + b.crashes;
      violations = a.violations @ b.violations;
    }

  let pp header ppf r =
    Fmt.pf ppf "%s: %d combos, %d crashed, %d violations@." header r.combos
      r.crashes (List.length r.violations);
    List.iter (fun v -> Fmt.pf ppf "  VIOLATION %s@." v) r.violations
end

module Sweep = struct
  type run = {
    crashed : bool;
    events : int;
    fingerprint : string;
    violations : string list;
  }

  let label mode ~seed ?crash_at ?node msg =
    let opt key = Option.fold ~none:"" ~some:(Printf.sprintf " %s=%d" key) in
    Printf.sprintf "[%s seed=%d%s%s] %s" mode seed (opt "crash" crash_at)
      (opt "node" node) msg

  let run ~mode ~(spec : Plan.spec) ~seeds ~points ?targets once =
    let combos = ref 0 and crashes = ref 0 and violations = ref [] in
    let add labelled = violations := List.rev_append labelled !violations in
    let nodes =
      match targets with None -> [ None ] | Some ts -> List.map Option.some ts
    in
    List.iter
      (fun seed ->
        let spec = { spec with Plan.seed; crash_at = None } in
        let probe = once ~seed ~spec in
        let probe2 = once ~seed ~spec in
        add (List.map (label mode ~seed) probe.violations);
        let same_print = String.equal probe.fingerprint probe2.fingerprint in
        if probe.events <> probe2.events || not same_print then
          add
            [
              label mode ~seed
                (Printf.sprintf
                   "nondeterministic: events %d/%d, fingerprints %s"
                   probe.events probe2.events
                   (if same_print then "equal" else "differ"));
            ];
        for i = 1 to points do
          let at = max 1 (probe.events * i / (points + 1)) in
          List.iter
            (fun node ->
              let crash = { spec with crash_at = Some at } in
              let crash = if node = None then crash else { crash with node } in
              let r = once ~seed ~spec:crash in
              incr combos;
              if r.crashed then incr crashes;
              add (List.map (label mode ~seed ~crash_at:at ?node) r.violations))
            nodes
        done)
      seeds;
    {
      Report.combos = !combos;
      crashes = !crashes;
      violations = List.rev !violations;
    }
end

module Kv_oracle = struct
  (* history: key -> every (op, value) written, newest first;
     acked: key -> op of the last acknowledged write *)
  type t = {
    history : (string, (int * string) list) Hashtbl.t;
    acked : (string, int) Hashtbl.t;
  }

  let create () = { history = Hashtbl.create 64; acked = Hashtbl.create 64 }

  let writes t key =
    Option.value (Hashtbl.find_opt t.history key) ~default:[]

  let write t ~key ~op v =
    Hashtbl.replace t.history key ((op, v) :: writes t key)

  let ack t ~key ~op = Hashtbl.replace t.acked key op

  let keys t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.history []
    |> List.sort String.compare

  let find t ~key v =
    List.find_opt (fun (_, v') -> String.equal v v') (writes t key)

  let written t ~key v = find t ~key v <> None

  let check t ~key got =
    let acked = Hashtbl.find_opt t.acked key in
    match (got, acked) with
    | None, None -> None
    | None, Some a -> Some (Printf.sprintf "key %s lost: acked at op %d" key a)
    | Some v, _ -> (
        match (find t ~key v, acked) with
        | None, _ ->
            Some (Printf.sprintf "key %s returned foreign bytes %S" key v)
        | Some (op, _), Some a when op < a ->
            Some
              (Printf.sprintf "key %s stale: returned op %d but op %d was acked"
                 key op a)
        | Some _, _ -> None)
end
