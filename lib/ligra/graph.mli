(** Directed graph in compressed sparse row (CSR) form — Ligra's in-memory
    representation.  Like Ligra's graph, it keeps both directions: the
    out-CSR for top-down (sparse) rounds and the in-CSR for bottom-up
    (dense) rounds.  Both are built once, when the graph is. *)

type t = {
  n : int;  (** vertices *)
  m : int;  (** directed edges *)
  offsets : int array;  (** length n+1; edges of v are [offsets.(v) .. offsets.(v+1)) *)
  edges : int array;  (** length m; target vertices, in input order per source *)
  in_offsets : int array;
      (** length n+1; in-edges of v are [in_offsets.(v) .. in_offsets.(v+1)) *)
  in_edges : int array;
      (** length m; source vertices, one per edge (duplicates kept).
          Each in-list is ordered by source ascending: bottom-up BFS
          probes it in this order, so the order fixes which parent it
          picks and which pages it touches. *)
}

val of_edge_list : n:int -> (int * int) list -> t
(** [of_edge_list ~n edges] builds the CSR (duplicates kept, as R-MAT
    produces them; self-loops kept). *)

val of_edge_array : n:int -> (int * int) array -> t

val out_degree : t -> int -> int
val iter_neighbors : t -> int -> (int -> unit) -> unit
val bytes : t -> int
(** Approximate in-memory footprint of the out-CSR (8 bytes per
    offset/edge), used to size mmio heaps. *)
