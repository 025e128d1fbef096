(** Execution tracer (paper §2.1): correlates strand taps into causal
    [ruleExec] rows and memoizes tuples in the [tupleTable] with
    reference counting. Handles pipelined executions via per-rule
    records associated with intervals of join stages (§2.1.2). *)

open Overlog

type t

type config = {
  max_records_per_rule : int;  (** the paper's fixed record array *)
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

(** Taps, driven by the execution machine. *)

val on_input : t -> rule:string -> join_count:int -> tuple_id:int -> unit

val on_precondition :
  t -> rule:string -> join_count:int -> stage:int -> tuple_id:int -> unit

val on_stage_complete : t -> rule:string -> join_count:int -> stage:int -> unit
val on_output : t -> rule:string -> join_count:int -> tuple_id:int -> unit

(** All agenda work for the triggering input [input_id] has drained:
    reclaim its record. *)
val on_execution_complete : t -> rule:string -> join_count:int -> input_id:int -> unit

(** Number of live tracer records for a rule (tests). *)
val record_count : t -> string -> int
