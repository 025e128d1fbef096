(** Soft-state tables implementing the paper's [materialize] semantics:
    per-tuple lifetime, bounded size with oldest-state eviction,
    primary keys with replace-on-insert, delta subscriptions, and
    lazily-created secondary hash indexes for O(matches) join probes.

    Time is always supplied by the caller (the simulation clock), so
    table behaviour is deterministic. Expiry is incremental (a
    min-heap ordered by insertion time with lazy invalidation,
    compacted once stale entries outnumber live rows), so reads cost
    O(rows expired since the last read), not O(N), and memory stays
    proportional to the live rows however often they are refreshed. *)

open Overlog

type t

type delta = Insert of Tuple.t | Delete of Tuple.t | Refresh of Tuple.t

type insert_result =
  | Added  (** new row *)
  | Replaced  (** a row with the same primary key had different contents *)
  | Refreshed  (** identical contents: only the lifetime was extended *)

(** [create ?lifetime ?max_size ?keys name]. [keys] are 1-indexed field
    positions forming the primary key; [[]] keys the whole tuple. *)
val create : ?lifetime:float -> ?max_size:int -> ?keys:int list -> string -> t

val of_materialize : Ast.materialize -> t
val name : t -> string
val keys : t -> int list

(** Row lifetime in seconds; [infinity] for hard-state tables. *)
val lifetime : t -> float

(** Register a delta callback. Subscribers run in subscription order;
    registration is O(1) amortized. Bulk removals ([delete_where],
    expiry sweeps) notify only after all rows are gone, so subscribers
    never observe half-deleted tables. *)
val subscribe : t -> (delta -> unit) -> unit

(** Drop rows older than the lifetime, notifying subscribers in
    (insertion time, seq) order. Called implicitly by every reading or
    writing operation; costs O(rows expired since the last call). *)
val expire : t -> now:float -> unit

val size : t -> now:float -> int
val insert : t -> now:float -> Tuple.t -> insert_result

(** [refresh t ~now tuple] does what [insert] does when it would
    return [Refreshed] — extend the lifetime of the live row holding
    exactly [tuple]'s contents, count the insert, notify [Refresh] —
    and returns [true]. When no such row is live it returns [false]
    and changes nothing but the expiry sweep it runs first. *)
val refresh : t -> now:float -> Tuple.t -> bool

(** Delete the row whose primary key equals the given tuple's; its
    other fields are not compared. O(1) plus the expiry sweep. *)
val delete : t -> now:float -> Tuple.t -> bool

(** Delete all rows matching the predicate; removes and notifies in
    insertion (seq) order. Returns the removed tuples. *)
val delete_where : t -> now:float -> (Tuple.t -> bool) -> Tuple.t list

(** Live rows in insertion order. *)
val tuples : t -> now:float -> Tuple.t list

(** [probe t ~now ~positions ~values]: live rows whose fields at the
    1-indexed [positions] equal [values] under [Value.equal], in
    insertion order — observably identical to filtering {!tuples}, but
    O(matches) via a hash index created lazily on first probe of a
    position set and maintained incrementally across
    insert/replace/delete/evict/expire. [positions = []] is a full
    scan. Raises [Invalid_argument] on a positions/values length
    mismatch. *)
val probe : t -> now:float -> positions:int list -> values:Value.t list -> Tuple.t list

(** Position sets currently carrying an index (introspection/tests). *)
val indexed_positions : t -> int list list

val fold : t -> now:float -> ('a -> Tuple.t -> 'a) -> 'a -> 'a
val iter : t -> now:float -> (Tuple.t -> unit) -> unit
val mem : t -> now:float -> Tuple.t -> bool
val clear : t -> unit

(** Sum of [Tuple.size_bytes] over the live rows. The total is kept
    up to date as rows come and go, so this costs only the expiry
    sweep it runs first. *)
val bytes : t -> now:float -> int

type stats = {
  live : int;  (** rows alive at the query time *)
  inserts : int;  (** lifetime inserts (incl. replaces and refreshes) *)
  deletes : int;  (** explicit deletions *)
  expirations : int;  (** rows dropped by lifetime expiry *)
  evictions : int;  (** rows dropped by the max-size FIFO bound *)
  probes : int;  (** secondary-index probes served *)
}

(** Lifetime operation counts plus the live-row census — the source of
    the runtime's per-table [p2TableStats] reflection. *)
val stats : t -> now:float -> stats

(** Lifetime insert count, read without triggering an expiry sweep —
    safe for metric gauges sampled from arbitrary host contexts. *)
val insert_count : t -> int

(** Lifetime index-probe count, likewise side-effect-free. *)
val probe_count : t -> int
