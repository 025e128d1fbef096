(** Execution tracer (paper §2.1): writes each derivation's causal
    [ruleExec] rows from the cause and preconditions the execution
    machine carried with it, and memoizes tuples in the [tupleTable]
    with reference counting. Pipelined executions (§2.1.2) need no
    stage matching: each derivation arrives with its own provenance. *)

open Overlog

type t

type config = {
  rule_exec_lifetime : float;
  rule_exec_cap : int;
  tuple_table_lifetime : float;
}

val default_config : config

(** Shrunk in-RAM window for nodes spilling trace records to a
    flight-recorder sink: 5 s / 256-row [ruleExec], 10 s
    [tupleTable]. History lives in the segment log instead. *)
val spill_config : config

(** Unbounded window for replay: restored history must never expire
    or be evicted out from under a forensic query. *)
val replay_config : config

val create :
  ?config:config ->
  addr:string ->
  now:(unit -> float) ->
  charge:(float -> unit) ->
  unit ->
  t

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

(** Attach (or detach, with [None]) the flight-recorder sink. While
    set, every tuple registration spills the tuple's contents plus
    its [tupleTable] row, and every new [ruleExec] row spills itself,
    each stamped with the node-local clock. The sink must not block:
    the runtime hands it a {!Seglog} writer that only buffers. *)
val set_sink : t -> (stamp:float -> delete:bool -> Tuple.t -> unit) option -> unit

(** Re-insert a recorded trace record (replay): [ruleExec] /
    [tupleTable] rows return to their tables (firing subscribed delta
    strands), other tuples refill the contents memo under their
    recorded id. Never feeds the sink. *)
val restore : t -> Tuple.t -> unit

(** Tracer self-metrics, counted only while tracing is enabled: taps
    fired (input/precondition/output/register observations), causal
    [ruleExec] rows added, and tuples memoized in the [tupleTable] —
    the runtime quantification of the paper's execution-logging
    overhead. *)
type stats = {
  taps : Metrics.Counter.t;
  rule_exec_rows : Metrics.Counter.t;
  tuples_registered : Metrics.Counter.t;
}

(** This tracer's live metric set. *)
val stats : t -> stats

(** [ruleExec(localAddr, ruleID, causeID, effectID, tCause, tOut,
    isEvent)] — queryable like any other table. *)
val rule_exec_table : t -> Store.Table.t

(** [tupleTable(localAddr, tupleID, srcAddr, srcTupleID, destAddr)],
    keyed on [tupleID]: reclaiming a tuple whose last [ruleExec]
    reference went is one keyed delete, not a scan. *)
val tuple_table : t -> Store.Table.t

(** Resolve a memoized tuple id back to its contents (forensics). *)
val resolve : t -> int -> Tuple.t option

(** Bytes held by both tables and the contents memo; O(1) beyond the
    expiry sweep, since every part keeps a running total. *)
val live_bytes : t -> now:float -> int
val live_tuples : t -> now:float -> int

(** Record a created or received tuple in the tupleTable. *)
val register_tuple : t -> Tuple.t -> src:string -> src_id:int -> dst:string -> unit

(** Taps, driven by the execution machine. Each charges one
    [Cost.tracer_tap] and counts one [tracer.taps] while tracing is
    enabled; a disabled tracer records nothing. *)

(** One input or precondition observation. The machine reads the
    node-local clock right after it: that is the observation's time. *)
val tap : t -> unit

(** An output tuple [tuple_id] left [rule]'s strand: write the event
    row from [cause] (observed at [t_cause]) and then one row per
    precondition, in the order given (stage order), each a tuple id
    and its observation time. All rows share [tOut], read right after
    this tap's charge. *)
val on_output :
  t ->
  rule:string ->
  cause:int ->
  t_cause:float ->
  preconds:(int * float) list ->
  tuple_id:int ->
  unit
