(** Reliable transport between a {!Node} and the simulated network:
    per-peer sequence-numbered frames, cumulative acks (piggybacked and
    standalone), retransmission with exponential backoff and
    deterministic jitter, exactly-once in-order delivery, bounded send
    queues with an oldest-delete-pattern-first drop policy, and a
    heartbeat-driven peer failure detector reflected into the
    [p2PeerStatus] catalog table. *)

(** Failure-detector verdict for a peer: [Alive] → [Suspect] after 3
    consecutive misses (unanswered heartbeats, sent every 2 s, or
    retransmissions) → [Dead] after 10 s of silence; any frame from
    the peer restores [Alive]. *)
type status = Alive | Suspect | Dead

val status_name : status -> string

type peer_info = {
  peer : string;
  status : status;
  misses : int;
  silent_for : float;  (** seconds since the last frame from the peer *)
  sendq : int;  (** unacked + pending frames queued toward the peer *)
}

type t

(** [create ~addr ~rng ~now ~schedule ~raw_send ~on_dirty ~active ()]
    builds a transport endpoint for the node at [addr]. The host
    injects the clock ([now]), a relative-delay scheduler ([schedule]),
    the raw packet send ([raw_send], given the channel's network
    handle — one per peer, made when the channel is), a dirty
    notification ([on_dirty], called with the transport when a
    coalescing buffer becomes nonempty while all were empty, so the
    owner knows a {!flush} is due), and a liveness predicate ([active],
    false while the owning node is crashed — the transport then stays
    silent but keeps retransmission state for recovery). [rng] drives
    backoff jitter and must be an independent deterministic stream.
    Also schedules the recurring heartbeat tick. *)
val create :
  addr:string ->
  rng:Sim.Rng.t ->
  now:(unit -> float) ->
  schedule:(float -> (unit -> unit) -> unit) ->
  raw_send:(Sim.Network.handle -> string -> unit) ->
  on_dirty:(t -> unit) ->
  active:(unit -> bool) ->
  unit ->
  t

(** Set the upward hook invoked once per data message, in order,
    exactly once. *)
val set_deliver : t -> (src:string -> bytes:int -> Overlog.Wire.message -> unit) -> unit

val addr : t -> string

(** Ablation switch: with [reliable] off, sends are fire-and-forget
    (still framed) and receives deliver unconditionally — the pre-PR-5
    behaviour, kept for the loss-sweep control arm. *)
val reliable : t -> bool

val set_reliable : t -> bool -> unit

(** Delta batching (default on): tuples shipped to the same peer
    between two {!flush} calls coalesce into a single delta-batch frame
    occupying one sequence number, capped at 64 tuples per frame; the
    receiver unbatches in item order, so delivery semantics are
    unchanged. Works in both reliable and fire-and-forget modes.
    Off, every tuple leaves at once in its own frame. *)
val batching : t -> bool

val set_batching : t -> bool -> unit

(** Permanently silence a retired node's transport: pending timers go
    stale and the heartbeat tick stops rescheduling itself. *)
val stop : t -> unit

(** Ship one tuple to [dst]. Reliable mode sequences the frame,
    retransmits until acked, and applies the bounded-queue drop policy
    under backpressure. With batching on, the tuple waits in the peer's
    coalescing buffer until the next {!flush}. *)
val send : t -> dst:string -> delete:bool -> Overlog.Tuple.t -> unit

(** Empty the coalescing buffers: each peer's buffered tuples leave in
    frames of at most 64 tuples, peers in the order they were first
    sent to. The owner calls it when the event it is handling
    finishes ([Engine] does so for every event and host entry point). *)
val flush : t -> unit

(** Tuples waiting in coalescing buffers for the next {!flush}. *)
val buffered : t -> int

(** Process one wire frame from [src]: ack bookkeeping, duplicate
    suppression, reordering, failure-detector refresh, and in-order
    upward delivery. Raises {!Overlog.Wire.Error} on malformed input. *)
val receive : t -> src:string -> string -> unit

(** Per-peer channel and failure-detector state, sorted by peer — the
    source of the [p2PeerStatus] reflection rows and [p2ql peers]. *)
val peers : t -> peer_info list

val peer_status : t -> string -> status option

(** Drop all state for a retired peer (queued frames, reorder buffer,
    detector state); armed timers for it go stale. *)
val forget_peer : t -> string -> unit

val retransmit_count : t -> int
val duplicate_count : t -> int

(** Register the [transport.*] metrics into a node registry; the
    catalog is documented in docs/OPERATIONS.md. *)
val register_metrics : t -> Metrics.t -> unit
