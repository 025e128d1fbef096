(** The distributed engine: hosts N P2 nodes on a simulated network.
    Owns the virtual clock, message delivery (through the wire codec),
    periodic-rule timers, fault injection, the periodic soft-state
    sweep, and on-line program installation. *)

open Overlog

type t

val create :
  ?seed:int ->
  ?base_latency:float ->
  ?jitter:float ->
  ?loss_rate:float ->
  ?trace:bool ->
  ?strict_install:bool ->
  ?reliable:bool ->
  unit ->
  t

(** Flip reliable transport (ack/retransmit, bounded queues, failure
    detection) on every node, present and future. Off reproduces the
    pre-transport fire-and-forget path — the control arm of loss
    sweeps. *)
val set_reliable : t -> bool -> unit

val reliable : t -> bool

(** Select the evaluation pipeline on every node, present and future.
    [true], every engine's default: semi-naive delta evaluation plus
    cross-node delta batching — the shipments one event (or one host
    entry point) makes to a peer coalesce into delta-batch frames that
    leave when it finishes. [false]: the naive ablation — classical
    full-body re-enumeration on every table delta, batching off, every
    re-derivation re-shipped in its own frame. *)
val set_seminaive : t -> bool -> unit

val seminaive : t -> bool

(** Toggle strict install-time analysis on every node, present and
    future: programs with error-level diagnostics raise
    [Analysis.Rejected] instead of being logged and installed anyway. *)
val set_strict_install : t -> bool -> unit

(** Start the flight recorder: every node, present and future, spills
    its trace records ([ruleExec] / [tupleTable] rows plus registered
    tuple contents) to an on-disk segment log at [dir]/[addr]/, and
    has its tracer enabled. Nodes added after this call default to
    the shrunk {!Dataflow.Tracer.spill_config} in-RAM window — call
    before adding nodes to get the resident-memory win. Disk writes
    happen only at tick barriers and run end, single-threaded, so
    runs stay deterministic and per-node logs are byte-identical
    across shard counts (DESIGN.md §15). *)
val set_trace_log : ?config:Seglog.config -> t -> string -> unit

(** The flight-recorder root directory, when recording. *)
val trace_log : t -> string option

(** Write every node's buffered trace records to disk (the run loops
    call this at barriers; exposed for hosts that inject events
    outside [run_until]). *)
val flush_trace_logs : t -> unit

(** Flush and seal every node's segment log and stop recording. *)
val close_trace_logs : t -> unit

(** Start periodic durable checkpoints rooted at [dir]: every node,
    present and future, snapshots its hard-state tables (infinite
    lifetime, excluding metric reflections and runtime bookkeeping) to
    a CRC'd, atomically-renamed file under [dir]/[addr]/ every
    [config.interval] virtual seconds. Writers are keyed by address —
    they model the node's disk — so they survive {!restart}, which
    recovers from the newest intact snapshot. Snapshots are written
    from host context only (single-threaded between rounds), so seeded
    runs produce byte-identical checkpoint files for every shard count
    (DESIGN.md §16). *)
val set_checkpoint : ?config:Checkpoint.config -> t -> string -> unit

(** The checkpoint root directory, when checkpointing. *)
val checkpoint_dir : t -> string option

(** Snapshot every live (non-crashed) node's hard state immediately.
    No-op when checkpointing is off. Host context only. *)
val checkpoint_now : t -> unit

(** Stop checkpointing and release the writers; snapshot files stay on
    disk. *)
val close_checkpoints : t -> unit

(** Raised (with the sanitizer on) by code running inside a shard
    drain that mutates barrier-owned state directly — scheduling, a
    raw network send, in-flight accounting, an engine-RNG draw, a
    membership change — instead of deferring the effect. [site] names
    the guarded entry point; [seq] is the queue seq of the event being
    drained (-1 when it could not be identified). *)
exception Discipline_violation of { site : string; seq : int }

(** Flip the effect-discipline sanitizer; engines also start with it
    on when [P2QL_SANITIZE] is [1]/[true]/[yes] in the environment.
    Purely a checking layer: runs are bit-for-bit identical with it on
    or off. *)
val set_sanitize : t -> bool -> unit

val sanitize : t -> bool

(** The virtual clock. Read by code handling an event inside a round
    (a watch callback, say), it is that event's time. *)
val now : t -> float

val network : t -> Sim.Network.t

(** Raises [Invalid_argument] for unknown addresses. *)
val node : t -> string -> Node.t

val node_opt : t -> string -> Node.t option

(** The node's reliable-transport endpoint. Raises [Invalid_argument]
    for unknown addresses. *)
val transport : t -> string -> Transport.t

val transport_opt : t -> string -> Transport.t option

(** All node addresses, sorted. *)
val addrs : t -> string list

(** Schedule a host callback at an absolute simulation time. *)
val at : t -> time:float -> (unit -> unit) -> unit

(** Schedule a callback confined to [owner]'s state at an absolute
    simulation time. Unlike [at] — whose callbacks run alone between
    rounds — this runs inside [owner]'s shard during a round, under
    the effect discipline. *)
val at_owned : t -> owner:string -> time:float -> (unit -> unit) -> unit

(** Push a Wire-encoded packet onto the network immediately, bypassing
    effect deferral. A test-only hook for exercising the sanitizer
    (the guard trips when called mid-drain); engine code must use the
    deferring send path instead. *)
val unsafe_direct_send : t -> src:string -> dst:string -> string -> unit

(** Create a node. [trace] overrides the engine-wide default. *)
val add_node : ?tracer_config:Dataflow.Tracer.config -> ?trace:bool -> t -> string -> Node.t

(** Install OverLog source on one node — at any point in the run (the
    paper's on-line piecemeal deployment). What the install derives for
    other nodes is on the wire when it returns. *)
val install : t -> string -> string -> unit

val install_ast : t -> string -> Ast.program -> unit

(** Install the same source on every node. *)
val install_all : t -> string -> unit

val watch : t -> string -> string -> (Tuple.t -> unit) -> unit

(** Inject an event tuple into a node from the host program; the
    location field is prepended automatically. Refused (returns
    [false]) while the host is crashed — injected events must respect
    the fault model like everything else. What the event derives for
    other nodes is on the wire when it returns. *)
val inject : t -> string -> string -> Value.t list -> bool

(** Watch and accumulate; the returned closure reads the collected
    tuples in arrival order. *)
val collect : t -> string -> string -> unit -> Tuple.t list

(** Messages from [src] to [dst] accepted by the network but not yet
    delivered — the simulator's per-destination send-queue depth. *)
val inflight : t -> src:string -> dst:string -> int

(** Total undelivered messages originated by [src], over all
    destinations. Exposed per node as the [net.sendq.depth] gauge. *)
val inflight_from : t -> string -> int

(** Run the simulation until the clock reaches the given time. Every
    event, and every host callback, ships its delta-batch frames when
    it finishes, so no tuple waits in a coalescing buffer when this
    returns; sends host code made straight on a node since the last
    run leave first. *)
val run_until : t -> float -> unit

val run_for : t -> float -> unit

(** Set the shard count of the round/barrier event loop; every engine
    starts with 1 shard and a 10 ms quantum. Node addresses are hashed
    onto [n] shards, each shard drains its nodes' events inside a tick
    window of [quantum] virtual seconds (default 10 ms, the network's
    default base latency) on its own domain, and a single-threaded
    barrier replays all cross-shard effects in the round's pop order.
    Seeded runs produce bit-for-bit identical simulations for every
    shard count. An effect applies exactly where an event-at-a-time
    loop would apply it unless it lands inside its own window; at the
    default quantum no network delivery or timer does, but a coarser
    quantum can, and is then handled in the next round (a different,
    still shard-count independent, simulation). Host callbacks ([at])
    always run alone between rounds. Raises [Invalid_argument] when
    [n < 1]. *)
val set_shards : ?quantum:float -> t -> int -> unit

(** Current shard count (at least 1). *)
val shards : t -> int

(** Events handled since creation (all shards plus host callbacks) —
    the denominator for allocs-per-event measurements. *)
val events_handled : t -> int

(** Retire a node (churn "leave"): its flight recorder is sealed, its
    transport stopped, and all per-address state (recorded programs and
    watchpoints, checkpoint writer, peers' channels to it, the network
    links naming it with their FIFO floors, cuts and in-flight counts,
    its crash flag) is purged. Its timers and sweeps name the node they
    were armed for and die with it; dropping a link bumps its epoch, so
    frames in flight in either direction — toward the node, or sent by
    it before it left — are discarded at delivery. A later {!add_node}
    of the address starts clean: none of the old node's events reach
    the new one. Raises [Invalid_argument] for unknown addresses. *)
val remove_node : t -> string -> unit

(** Fault injection. [crash] and [recover] raise [Invalid_argument]
    naming the address when it is unknown, the same shape as
    [remove_node] and [restart]. *)

val crash : t -> string -> unit
val recover : t -> string -> unit
val is_crashed : t -> string -> bool

(** What {!restart} rebuilt the node from. *)
type restart_outcome = {
  recovered_from : [ `Checkpoint of string * float | `Cold ];
      (** the snapshot file and its stamp, or nothing intact on disk *)
  restored_rows : int;  (** rows re-minted from the snapshot *)
  skipped_rows : int;
      (** snapshot rows whose table no longer exists after program
          replay *)
}

(** Crash-restart recovery: reconstitute [addr] as a fresh process
    image. The old node object (all RAM state) is discarded, its
    flight-recorder log sealed, its transport stopped; every peer
    forgets its channel to it, so the reliable layer renegotiates from
    sequence 1 when traffic resumes. Restart is reset-not-replay: the
    epoch of every network link into the address is bumped, so frames
    in flight toward the old node are dropped at delivery rather than
    allowed to alias into the fresh sequence space (frames the old
    node sent still arrive, and links keep their FIFO floors), and the
    old node's timers and sweeps, which name the node they were armed
    for, stop instead of firing into the new one. The node is
    rebuilt through the same wiring as {!add_node}, its recorded
    programs and host watchpoints are replayed oldest-first (the
    on-disk-configuration analog), and hard state is restored from the
    newest intact checkpoint under {!checkpoint_dir} — scanning past
    damaged files, falling back to [`Cold] when nothing intact exists
    or checkpointing is off. Restored rows go through the normal
    delivery path, so delta strands fire and the recovery cascade
    starts immediately. Raises [Invalid_argument] for unknown
    addresses. *)
val restart : t -> string -> restart_outcome
val cut_link : t -> src:string -> dst:string -> unit
val heal_link : t -> src:string -> dst:string -> unit

(** Adjust network-wide loss/latency mid-run (fault campaigns). *)

val set_loss_rate : t -> float -> unit
val set_latency : t -> base:float -> jitter:float -> unit

(** Measurement (used by the benches). *)

type snapshot = {
  time : float;
  work : float;
  messages_tx : int;
  messages_rx : int;
  live_tuples : int;
  live_bytes : int;
}

val snapshot_node : t -> string -> snapshot
val cpu_percent : before:snapshot -> after:snapshot -> float
val memory_mb : snapshot -> float

(** Node-local time at an address (the clock its tracer stamps with). *)
val local_time : t -> string -> float
