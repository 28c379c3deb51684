(** aqmetrics registry: always-on named counters/gauges/histograms.

    Families are identified by name and a fixed set of label names; each
    distinct label-value combination is a {e series} bound to a slot in a
    per-domain flat [int array].  Binding a series (the [counter] /
    [gauge] / [histogram] calls) is a cold path under a global mutex —
    do it once, at component-creation time, from the domain that will
    use the cell.  The returned cell is then a raw (array, index) pair:
    {!incr} / {!add} / {!set} / {!observe} are single unboxed int stores
    with no allocation, safe to leave enabled on every hot path.

    {!snapshot} merges every domain's array by summation and sorts by
    (name, labels), so output is byte-identical regardless of how work
    was spread across domains ([--jobs N] determinism). *)

type kind = Counter | Gauge | Histogram

(** Number of power-of-two histogram buckets: bucket [k] counts
    observations [v] with [2^k <= v < 2^(k+1)] ([v <= 1] lands in
    bucket 0, overflow saturates into the last bucket).  The buckets are
    the Prometheus [le] export format only; quantiles come from
    {!Stats.Histogram.percentile}. *)
val hbuckets : int

type cell
(** A bound counter or gauge series, local to the binding domain. *)

type hcell
(** A bound histogram series, local to the binding domain. *)

val counter : ?help:string -> ?labels:(string * string) list -> string -> cell
(** [counter ?help ?labels name] registers (or re-binds) the series of
    counter family [name] with the given label set for the calling
    domain.  Label order does not matter; names are canonicalized.
    @raise Invalid_argument if [name] clashes with an existing family of
    a different kind or different label names, or contains characters
    outside [[A-Za-z0-9_:]]. *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> cell
(** Like {!counter} but registered as a gauge.  Note that snapshots
    merge gauges across domains by summation too (e.g. queue depths add
    up); use domain-unique label values if that is not what you want. *)

val histogram :
  ?help:string -> ?labels:(string * string) list -> string -> hcell

val incr : cell -> unit
(** One unboxed int store. Must run on the domain that bound the cell. *)

val add : cell -> int -> unit
val set : cell -> int -> unit
val get : cell -> int
(** This domain's local value only (snapshots merge all domains). *)

val observe : hcell -> int -> unit
(** Three unboxed int stores (count, sum, bucket). Negative values clamp
    to 0. *)

(** {1 Snapshot} *)

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_labels : (string * string) list; (* sorted by label name *)
  s_value : int; (* counter/gauge value; histogram sum *)
  s_count : int; (* histogram observations; 0 for counter/gauge *)
  s_buckets : (int * int) list; (* histogram (bucket-exponent, count) *)
}

val snapshot : unit -> sample list
(** Merged over every domain that ever touched the registry (stores of
    joined domains are retained), sorted by (name, labels). *)

val reset : unit -> unit
(** Zero all values in all domains.  Families and series registrations
    (and bound cells) stay valid. *)

val value : ?labels:(string * string) list -> string -> int
(** Merged value of family [labels] series; with [labels = []] the sum
    over all series of the family.  Cold path (full snapshot). *)
