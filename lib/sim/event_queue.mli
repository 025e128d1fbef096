(** Priority queue of timestamped events. Ties are broken by insertion
    order, keeping simulations deterministic and same-time deliveries
    on one channel FIFO. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Raises on NaN times. *)
val schedule : 'a t -> time:float -> 'a -> unit

(** The minimum entry's time, insertion sequence number and payload.
    The seq is the deterministic tie-break key: the engine tags
    deferred cross-shard effects with pop positions derived from it,
    so barriers replay them in an order independent of the shard
    count. All three raise [Invalid_argument] on an empty queue. *)
val top_time : 'a t -> float

val top_seq : 'a t -> int
val top : 'a t -> 'a

(** Remove the minimum entry. Raises [Invalid_argument] when empty. *)
val drop_top : 'a t -> unit

(** Remove and return the minimum entry, [None] when empty. *)
val pop : 'a t -> (float * 'a) option
