(** Inter-node RPC with bounded retry/timeout/backoff (DESIGN.md §11).

    All traffic lives on one {!Sim.Engine}: a request pays
    [wire_latency] cycles to the destination core, runs in a fresh
    handler fiber there (tagged via {!Sim.Engine.set_node_id} so
    blocked reports name the node), and the reply pays the wire again.
    A per-attempt timeout is armed as an external event on the caller's
    core; messages touching a down node are dropped at delivery, so
    failures surface as timeouts — never as exceptions leaking across
    the simulated wire. *)

type config = {
  wire_latency : int;  (** one-way wire cycles *)
  timeout : int;  (** per-attempt reply budget, cycles *)
  backoff_base : int;  (** sleep before the first retry *)
  backoff_cap : int;  (** backoff ceiling *)
  max_attempts : int;  (** total attempts before {!Unreachable} *)
}

val default_config : config

val backoff_delay : config -> attempt:int -> int
(** Pure backoff schedule: [min cap (base * 2^attempt)] — attempt 0 is
    the sleep after the first failure. *)

exception Unreachable of { node : int; attempts : int }
(** Raised by {!call_retry} once every attempt timed out. *)

exception Drop
(** Raised by a handler to drop the request without replying (e.g. the
    node noticed it is down mid-operation); the caller times out. *)

type ('req, 'resp) t

val create :
  eng:Sim.Engine.t ->
  cfg:config ->
  nodes:int ->
  alive:(int -> bool) ->
  ('req, 'resp) t
(** [alive] is consulted at every delivery (request, handler reply) so
    a crash mid-flight drops exactly the messages a power cut would. *)

val set_handler : ('req, 'resp) t -> int -> ('req -> 'resp) -> unit

val call : ('req, 'resp) t -> src:int -> dst:int -> 'req -> 'resp option
(** One attempt from the calling fiber ([src = -1] for the external
    client); [None] on timeout.  Must run inside a fiber. *)

val call_retry : ('req, 'resp) t -> src:int -> dst:int -> 'req -> 'resp
(** {!call} with up to [max_attempts] attempts separated by
    {!backoff_delay} idle-waits; raises {!Unreachable} on exhaustion. *)

val note_retry : ('req, 'resp) t -> unit
(** Count a caller-level retry (the cluster client re-routing a request
    after a timeout) in the same counters as {!call_retry}'s own. *)

val counter : help:string -> string -> Metrics.Registry.cell Lazy.t
(** [counter ~help name] is an instance cell of counter family [name],
    bound when first forced, so the family is exported only once some
    instance has counted in it. *)

val count : Metrics.Registry.cell Lazy.t -> int
(** The cell's value; 0 while it is unbound. *)

val timeouts : ('req, 'resp) t -> int
val retries : ('req, 'resp) t -> int
(** The instance's registry cells. *)
