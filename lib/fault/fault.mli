(** aqfault: seeded, deterministic fault injection for the simulated stack.

    A {!Plan.t} is a bag of injection probabilities plus its own
    splitmix64 stream ({!Sim.Rng}), installed ambiently per domain like
    the tracer in {!Trace}: instrumented sites in [sdevice] consult the
    active plan on every device I/O, and the engine fires a {!Crash} at a
    chosen event ordinal through {!Sim.Engine.set_domain_event_hook}.
    Because every draw comes from the plan's private stream (never from
    the engine RNG) and sites are visited in deterministic virtual-time
    order, the same seed and spec inject byte-identical faults — across
    repeat runs and across [--jobs] fan-out degrees, where each job
    installs its own plan built from the same spec.

    With no plan installed anywhere, every hook reduces to one atomic
    load and branch ([Atomic.get live_plans = 0]); [bench/fault_smoke]
    gates that cost at <1% of the engine_perf fault loop. *)

type error =
  | Transient  (** retryable: the next attempt may succeed *)
  | Permanent  (** media failure: the page is gone for good *)

exception Crash of { at_event : int }
(** Power loss injected at an engine event boundary.  Propagates out of
    {!Sim.Engine.run}; volatile state (DRAM cache, translations) must be
    discarded by the harness ({!Mcache.Dram_cache.crash}) while device
    {!Sdevice.Pagestore} bytes that completed their writes survive. *)

exception Io_error of { dev : string; write : bool; page : int; error : error }
(** A device I/O that still failed after the access-layer retry policy. *)

exception Sigbus of { file : int; page : int }
(** Unrecoverable read error surfaced to the application — the simulated
    equivalent of the SIGBUS a real mmap delivers on a media error. *)

exception Read_only of string
(** Raised on write faults once a cache degraded to read-only mode after
    an error storm (see DESIGN.md §7): better than acknowledging writes
    that can no longer be made durable. *)

val error_to_string : error -> string

module Plan : sig
  type spec = {
    seed : int;  (** seeds the plan's private RNG stream *)
    read_error : float;  (** P(device read fails) per I/O *)
    write_error : float;  (** P(device write fails) per I/O *)
    permanent : float;  (** P(a failure marks the page bad for good) *)
    torn_write : float;  (** P(a failing multi-page write persists a prefix) *)
    latency_spike : float;  (** P(service time is multiplied) per I/O *)
    spike_factor : int;  (** service-time multiplier for spikes (>= 2) *)
    crash_at : int option;  (** crash at the first event ordinal >= this *)
    node : int option;
        (** restrict the crash to one cluster node: the raising engine
            hook is NOT armed; the cluster layer downs node [I] at the
            ordinal instead while other nodes run clean *)
  }

  val default : spec
  (** All probabilities zero, no crash: installing it injects nothing
      (used to measure hook overhead and RNG-draw determinism). *)

  val parse : string -> (spec, string) result
  (** [parse "seed=7,read=0.01,write=0.01,perm=0.1,torn=0.5,spike=0.02,spikex=8,crash=120000,node=2"]
      — comma-separated [key=value] over {!default}; unknown keys are an
      error.  The empty string is {!default}. *)

  val to_string : spec -> string
  (** Canonical round-trippable form of [parse]. *)

  type t

  val make : spec -> t
  val spec : t -> spec

  (** {1 Injection counters} *)

  val probes : t -> int
  (** Injection sites consulted (every device I/O under the plan). *)

  val read_errors : t -> int
  val write_errors : t -> int
  val torn_writes : t -> int
  val latency_spikes : t -> int
  val retries : t -> int
  val sigbus_count : t -> int
  val crashed : t -> bool

  val note_crash : t -> unit
  (** Record that the plan's crash fired.  Used by the cluster layer,
      which consumes node-targeted crashes itself instead of letting the
      engine hook raise. *)

  val counters : t -> (string * int) list
  (** All of the above as [(name, count)] rows, fixed order — two runs
      with the same seed and spec produce identical lists. *)
end

(** {1 Ambient plan (domain-local)} *)

val live_plans : int Atomic.t
(** Process-wide count of installed plans.  Hot sites check
    [Atomic.get live_plans > 0] before anything else, so the no-plan
    path is one load and branch. *)

val install : Plan.t -> unit
(** Installs [plan] as the calling domain's active plan (replacing any)
    and arms the domain's engine crash hook when [spec.crash_at] is set —
    engines created afterwards in this domain pick it up. *)

val clear : unit -> unit
(** Uninstalls the domain's plan and disarms the crash hook. *)

val active : unit -> Plan.t option
(** The calling domain's plan, or [None].  Cheap when no plan is
    installed in any domain. *)

val with_plan : Plan.t -> (unit -> 'a) -> 'a
(** [with_plan p f] runs [f] with [p] installed, restoring the previous
    plan (and crash hook) afterwards — exception-safe; [Crash] escapes
    after restoration. *)

(** {1 Injection decisions}

    Called by instrumented sites with the active plan in hand.  All
    randomness comes from the plan's stream; a zero-probability knob
    consumes no draws, so enabling one fault class does not shift
    another's stream. *)

type write_outcome =
  | W_ok
  | W_error of error
  | W_torn of int
      (** the first [n] pages of the span persisted, then the write
          failed ([0 <= n < count]); reported as a {!Transient} error *)

val draw_read : Plan.t -> dev:string -> page:int -> count:int -> error option
(** Decide the fate of a read of [count] device pages at [page].  Spans
    touching a page previously marked bad always fail {!Permanent}. *)

val draw_write : Plan.t -> dev:string -> page:int -> count:int -> write_outcome

val draw_spike : Plan.t -> int
(** Service-time multiplier for the next I/O: 1 almost always,
    [spike_factor] on a latency spike. *)

val note_retry : Plan.t -> unit
val note_sigbus : Plan.t -> unit

(** {1 Crash-sweep reports}

    The result shared by both crash sweeps: [aquila_cli faultcheck]
    ([Fault_check.Check]) and [aquila_cli clustercheck]
    ([Aqcluster.Check]). *)

module Report : sig
  type t = {
    combos : int;  (** crash runs, probe runs excluded *)
    crashes : int;  (** combos whose run actually hit the injected crash *)
    violations : string list;  (** oracle failures, labelled *)
  }

  val empty : t
  val ok : t -> bool

  val merge : t -> t -> t
  (** Order-sensitive on [violations]; merge sub-reports in seed order so
      fan-out output is byte-identical at any [--jobs] degree. *)

  val pp : string -> Format.formatter -> t -> unit
  (** [pp header] prints ["header: N combos, C crashed, V violations"],
      then one ["  VIOLATION ..."] line per violation. *)
end
