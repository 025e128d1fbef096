(** One P2 node: tables, compiled strands, tracer, metrics, and the
    planner that installs OverLog programs — including on-line while
    the node runs. Transport-agnostic: the engine injects [send] and
    the clock. *)

open Overlog

type t

type timer_request = { strand : Dataflow.Strand.t; period : float }

(** Per-peer traffic accounting, keyed by the remote address. Updated
    on every send ([tx_*]) and receive ([rx_*]); the source of the
    [p2NetStats] reflection rows. *)
type peer_stats = {
  mutable tx_msgs : int;  (** messages sent to the peer *)
  mutable tx_bytes : int;  (** wire bytes sent to the peer *)
  mutable rx_msgs : int;  (** messages received from the peer *)
  mutable rx_bytes : int;  (** wire bytes received from the peer *)
}

val create :
  addr:string ->
  rng:Sim.Rng.t ->
  ?trace:bool ->
  ?tracer_config:Dataflow.Tracer.config ->
  unit ->
  t

(** Names of the metric-reflection tables ([p2Stats], [p2TableStats],
    [p2NetStats], [p2PeerStatus], [p2Rule]). Their rows are exempt from tracer
    registration and from the [store.*] aggregate counters, so the
    measurement instrument never dominates what it measures. *)
val reflected_tables : string list

(** Names of the bookkeeping tables the runtime itself maintains
    ([ruleExec], [tupleTable]). Like {!reflected_tables} they are
    excluded from tracer registration, and the engine's checkpointer
    skips both groups: reflections and bookkeeping are derived state,
    rebuilt by the restarted node rather than restored. OverLog joins
    over them use the same index probes as catalog tables. *)
val system_tables : string list

val addr : t -> string

(** The node's materialized tables. Add tables with {!install}: the
    node resolves each predicate's routing once, and only [install]
    tells that routing about a new table. *)
val catalog : t -> Store.Catalog.t

(** This node's metric registry, its only metric layer. Every runtime
    counter, gauge and histogram aggregate is registered here under a
    stable dotted name (see docs/OPERATIONS.md for the full catalog),
    the work units behind the CPU proxy and node-local time included
    ([node.work_units]); snapshots feed the [p2Stats] reflection and
    [p2ql stats]. *)
val registry : t -> Metrics.t

(** Per-peer traffic counters, sorted by peer address. *)
val peers : t -> (string * peer_stats) list

val tracer : t -> Dataflow.Tracer.t
val machine : t -> Dataflow.Machine.t
val dead_events : t -> int
val rules_installed : t -> int

(** Installed rules as (rule id, pretty-printed source), oldest first —
    the rows of the [p2Rule] reflection table. *)
val rules : t -> (string * string) list

(** Engine wiring. [set_now] also drives the tracer's clock. *)

val set_now : t -> (unit -> float) -> unit
val set_send : t -> (dst:string -> delete:bool -> src_tuple:Tuple.t -> unit) -> unit
val set_timer_handler : t -> (timer_request -> unit) -> unit

(** Attach (or detach, with [None]) a flight-recorder segment-log
    writer: the tracer sink buffers every trace record into it, and
    the [trace.log.*] metrics start reading its counters. The buffer
    only reaches the disk in {!flush_trace_log}. *)
val set_trace_log : t -> Seglog.writer option -> unit

val trace_log : t -> Seglog.writer option

(** Write buffered trace records to disk. The engine calls this
    single-threaded at tick barriers (and at the end of a run), which
    keeps sharded runs deterministic — see DESIGN.md §15. *)
val flush_trace_log : t -> unit

(** Watchpoint: called for every local appearance of the tuple name. *)
val watch : t -> string -> (Tuple.t -> unit) -> unit

(** Install a parsed program: the semantic analyzer runs first (strict
    mode rejects on errors with {!Analysis.Rejected}, otherwise errors
    are logged), then materializations, facts (routed like any tuple,
    possibly remotely) and rules. *)
val install : t -> Ast.program -> unit

val install_text : t -> string -> unit

(** When true, [install] raises {!Analysis.Rejected} if the analyzer
    reports any error-level diagnostic. Default false: errors are
    logged on the [p2.analysis] source and installation proceeds. *)
val set_strict_install : t -> bool -> unit

val strict_install : t -> bool

(** Diagnostics from the most recent [install] on this node. *)
val last_diagnostics : t -> Analysis.diagnostic list

(** The analyzer environment this node's installs run under: catalog
    tables and consumed events from earlier piecemeal installs. *)
val analysis_env : t -> Analysis.env

(** Mint a node-unique tuple (registered with the tracer). *)
val create_tuple : t -> dst:string -> string -> Value.t list -> Tuple.t

(** Deliver a local tuple: watches, table insert or event strands. *)
val deliver : t -> Tuple.t -> unit

(** Reflect the row [name(addr, fields...)] of a reflection table
    (P2stats). A row whose contents are already stored is refreshed in
    place, exactly as {!deliver} would refresh it: the same
    [Cost.table_insert] charge and lifetime touch, no table delta.
    No tuple is minted for it, so [node.tuples_created] and
    [machine.drains] count only new or changed rows. A new or changed
    row, or any row of a watched name, is minted and delivered. *)
val reflect : t -> string -> Value.t list -> unit

(** A tuple arrived from the network. [bytes] is the wire-frame size
    when the transport knows it (defaults to 0), credited to the
    node-wide and per-peer receive byte counters. *)
val receive :
  t ->
  ?bytes:int ->
  src:string ->
  src_tuple_id:int ->
  delete:bool ->
  name:string ->
  fields:Value.t list ->
  unit ->
  unit

(** Fire a periodic strand (engine timer callback). *)
val fire_periodic : t -> timer_request -> unit

(** Soft-state census (memory proxy inputs). *)

val live_tuples : t -> int
val live_bytes : t -> int

(** The node-local clock (simulation time + work offset). *)
val local_time : t -> float
