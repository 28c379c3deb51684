(** Crash-consistency checker for the simulated stack (DESIGN.md §7).

    A {e combo} is one (workload seed, crash event ordinal) pair: the
    workload runs under a {!Fault.Plan} whose [crash_at] cuts the power at
    that engine event, the surviving device bytes are checked against a
    host-side durability oracle, and a fresh stack is then restarted over
    the same device to prove the durable data is reachable again.

    The oracle is the paper-level durability contract: every page/key
    acknowledged by a {e completed} msync must survive intact (no loss, no
    staleness, no intra-page tear), while writes that were never acked may
    land fully, partially (page-granular) or not at all.

    Crash points are spread over the event count observed in a probe run,
    which is also executed twice to assert determinism (identical event
    counts, injection counters and — for micro — device bytes). *)

val pp_report : Format.formatter -> Fault.Report.t -> unit
(** {!Fault.Report.pp} under the ["faultcheck"] header. *)

val run_micro :
  ?spec:Fault.Plan.spec ->
  ?broken:bool ->
  ?policy:Mcache.Policy.kind ->
  seeds:int list ->
  points:int ->
  unit ->
  Fault.Report.t
(** Versioned full-page writes through an Aquila mmap over an NVMe block
    device: [micro_ops] random single-page writes with an msync every few
    ops, [points] crash ordinals per seed.  [spec] adds error injection on
    top of the crash (its [seed]/[crash_at] fields are overridden per
    combo).  [broken:true] disables {!Mcache.Dram_cache.config.wb_protect}
    — a deliberately broken stack whose durability violations this checker
    must report (see the test suite). *)

val run_kreon :
  ?spec:Fault.Plan.spec ->
  ?policy:Mcache.Policy.kind ->
  seeds:int list ->
  points:int ->
  unit ->
  Fault.Report.t
(** The same sweep over a {!Kvstore.Kreon_sim} instance on DAX pmem:
    random puts with periodic msync commits, crash, restart + recover,
    then every acked key must return its acked (or a later) value and no
    key may return bytes that were never written. *)
