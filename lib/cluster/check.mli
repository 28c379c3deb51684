(** Cluster crash sweep: the no-lost-acknowledged-writes oracle behind
    [aquila_cli clustercheck] (DESIGN.md §11).

    For every (seed × crash-ordinal × crashed-node) point: run a seeded
    workload through {!Cluster.kv} while an armed aqfault plan downs the
    target node at the exact engine event ordinal, let failover +
    recovery + resync drain, then verify (1) every acknowledged write
    reads back as its value or a later one, (2) reads never return
    foreign bytes, (3) all replicas of every key converge — and repeat
    (1) and (3) on a fresh cluster restarted from the surviving devices.
    With [~broken:true] the cluster acks before replicating; the sweep
    must then report violations, proving the oracle has teeth.  Print
    reports with [Fault.Report.pp "clustercheck"]. *)

val sweep :
  ?broken:bool -> ?cfg:Cluster.config -> seeds:int list -> points:int ->
  unit -> Fault.Report.t
(** {!Fault.Sweep.run} in mode ["cluster"]: per seed, two no-crash
    probes (byte-level determinism gate over event count, acked ops and
    device bytes), then [points] crash ordinals spread over the probe's
    event count, each crossed with every node as the crash target. *)
