(** Heap surface: where Ligra's arrays live.

    The paper's Ligra experiment converts every [malloc]/[free] into an
    allocation over a memory-mapped file on fast storage (Section 6.2).
    A surface is either plain DRAM (the in-memory baseline — data-plane
    accesses cost nothing beyond the algorithm's own compute) or an mmio
    region (Aquila or Linux mmap), where each page-granular access runs
    through the full mmio machinery.

    The arrays themselves hold {e real values} in OCaml memory; the
    surface charges the memory-system cost of each access at page
    granularity via an external {!Sim.Costbuf.t}, so tight loops charge
    in batches (see {!Aquila.Context.touch_buf}). *)

type t

val dram : unit -> t
(** The malloc/free baseline. *)

val aquila : ?elem_bytes:int -> Aquila.Context.t -> Aquila.Context.region -> t
(** A bump allocator over an Aquila mmio region.  [elem_bytes] (default 8)
    is the on-surface footprint of one element: scaled-down graphs pack
    unrealistically many vertices per 4 KiB page, so experiments inflate
    the footprint to preserve the paper's elements-per-page ratio
    (DESIGN.md §2). *)

val linux : ?elem_bytes:int -> Linux_sim.Mmap_sys.t -> Linux_sim.Mmap_sys.region -> t
(** A bump allocator over a Linux [mmap] region. *)

val name : t -> string

type 'a arr
(** An allocated array of elements (8 bytes each on the surface). *)

val alloc : t -> len:int -> init:(int -> 'a) -> 'a arr
(** [alloc t ~len ~init] carves [len * elem_bytes] bytes from the surface.
    Raises [Failure] when an mmio surface is exhausted. *)

val place : t -> 'a array -> 'a arr
(** [place t data] carves the surface range exactly as [alloc] would for
    [Array.length data] elements, but uses [data] itself as the backing
    store instead of a copy.  A placed array is read-only: {!set} on it
    raises [Invalid_argument], because [data] may be shared — one graph
    serves BFS runs on several domains at once. *)

val elem_bytes : t -> int

val get : 'a arr -> buf:Sim.Costbuf.t -> int -> 'a
(** [get a ~buf i] reads element [i], touching its page (read). *)

val set : 'a arr -> buf:Sim.Costbuf.t -> int -> 'a -> unit
(** [set a ~buf i v] writes element [i], touching its page (write —
    dirty-tracked on mmio surfaces).  Raises [Invalid_argument] on a
    {!place}d array. *)

val len : 'a arr -> int

val free : 'a arr -> unit
(** Drops the array's reference to its backing store; a placed array's
    data is left to its owner.  The surface range is not reused —
    Ligra's allocation pattern is phase-based. *)
