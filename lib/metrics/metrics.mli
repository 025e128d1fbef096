(** Runtime self-metrics: cheap counters, gauges and fixed-bucket
    histograms, plus a registry that snapshots them as a deterministic
    sorted name/value list.

    Updates are single unboxed increments, so instrumentation stays
    always-on in hot paths. Nothing reads ambient state: snapshots are
    bit-for-bit reproducible, like the rest of the simulation. The
    per-node registry is reflected into the catalog as [p2Stats]
    tuples by [P2_runtime.P2stats]; the metric names and their
    meanings are catalogued in [docs/OPERATIONS.md]. *)

(** Monotone event counter. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** Instantaneous level; also usable as a high-water mark. *)
module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit

  (** Raise the gauge to the given value if it exceeds the current
      one. *)
  val max_of : t -> float -> unit

  val value : t -> float
end

(** Fixed-bucket histogram over strictly increasing upper bounds with
    an implicit overflow bucket, tracking count, sum and max. *)
module Histogram : sig
  type t

  (** Powers of two from 1 to 2{^20}: 21 buckets covering agenda drain
      sizes and microsecond-scale work latencies. *)
  val default_bounds : float array

  (** Raises [Invalid_argument] if [bounds] is empty or not strictly
      increasing. *)
  val create : ?bounds:float array -> unit -> t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val max_value : t -> float
  val mean : t -> float

  (** Upper bound of the smallest bucket at or past quantile [q] of
      the observations; 0 for an empty histogram. Overflow
      observations report the exact maximum seen. *)
  val quantile : t -> float -> float

  (** (upper bound, observations) pairs, the overflow bucket last with
      bound [infinity]. *)
  val buckets : t -> (float * int) list
end

(** Arithmetic mean; 0 for an empty list. *)
val mean : float list -> float

(** Population standard deviation; 0 for fewer than two values. *)
val stddev : float list -> float

type kind = KCounter | KGauge

type sample = { name : string; kind : kind; value : float }

(** A named-metric registry (one per node). *)
type t

val create : unit -> t

(** Register a read closure under a name. Raises [Invalid_argument] on
    a duplicate name. *)
val register : t -> string -> kind -> (unit -> float) -> unit

(** Create and register a counter in one step. *)
val counter : t -> string -> Counter.t

(** Register an existing counter under a name. *)
val attach_counter : t -> string -> Counter.t -> unit

(** Register a live-value gauge backed by a closure. *)
val gauge : t -> string -> (unit -> float) -> unit

(** Register one histogram as five derived scalars: [name.count],
    [name.sum], [name.max], [name.p50], [name.p99]. *)
val attach_histogram : t -> string -> Histogram.t -> unit

(** All registered names, sorted. *)
val names : t -> string list

(** Evaluate every registered metric, sorted by name — the registry's
    canonical, deterministic order. *)
val snapshot : t -> sample list

val value : t -> string -> float option

(** One flat JSON object mapping metric names to numbers, in snapshot
    order. Counters print without a fractional part. *)
val json_of_samples : sample list -> string
