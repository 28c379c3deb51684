(** Ligra-style direction-optimizing parallel BFS.

    Frontier-based breadth-first search with the sparse (top-down) /
    dense (bottom-up) switch of Shun & Blelloch's edgeMap, parallelized
    over simulated threads with per-round barriers — the workload of the
    paper's Section 6.2.  All arrays (CSR out- and in-edges, parents,
    frontiers) live on a {!Mem_surface.t}, so the same code runs
    in-memory, over Linux [mmap], or over Aquila.  The four CSR arrays
    are the {!Graph.t}'s own, {!Mem_surface.place}d read-only rather
    than copied, so one graph can serve many runs, on several domains
    at once; bottom-up rounds probe each in-list in {!Graph.t}'s
    in-edge order. *)

type result = {
  rounds : int;
  visited : int;
  elapsed_cycles : int64;
  thread_ctxs : Sim.Engine.ctx list;
      (** worker contexts, for user/system/idle breakdowns (Figure 6(c)) *)
}

val run :
  eng:Sim.Engine.t ->
  graph:Graph.t ->
  surface:Mem_surface.t ->
  threads:int ->
  source:int ->
  ?cycles_per_edge:int64 ->
  ?cycles_per_vertex:int64 ->
  unit ->
  result
(** [run ~eng ~graph ~surface ~threads ~source ()] executes BFS to
    completion (spawns fibers and drains the engine).  [cycles_per_edge]
    (default 60) and [cycles_per_vertex] (default 120) model Ligra's
    algorithmic compute, charged as user time in batches. *)
