(** Strand execution machine: the per-node dataflow interpreter.
    Work is scheduled as agenda items so strand stages can interleave
    (pipelined execution, paper §2.1.2). Each item carries its
    derivation's cause and preconditions, which an emitted head hands
    to the tracer as [ruleExec] rows. *)

open Overlog

(** Evaluation strategy for table-delta strands. [Seminaive] (default)
    is the planner's delta rewriting: the newest tuple — a frontier of
    size one — joins against the full stored relations. [Naive] is the
    classical ablation control: a delta only signals "this table
    changed" and the whole body is re-enumerated from scratch,
    re-deriving and re-shipping everything. Event, periodic and
    aggregate strands behave identically in both modes. *)
type eval_mode = Seminaive | Naive

(** Closures supplied by the runtime node; the machine itself knows
    nothing about tables, tracing or the network. *)
type ctx = {
  addr : string;
  now : unit -> float;
  eval_ctx : Eval.context;
  scan : string -> Tuple.t list;
  probe : string -> positions:int list -> values:Value.t list -> Tuple.t list;
      (** Rows whose fields at the 1-indexed [positions] equal [values],
          in scan (insertion) order. May over-approximate — the machine
          re-verifies every candidate with [match_atom]. *)
  create_tuple : dst:string -> string -> Value.t list -> Tuple.t;
  emit : delete:bool -> Tuple.t -> unit;
  charge : float -> unit;
  tracer : Tracer.t option;
}

type t

(** Hot-path self-metrics, always on (one unboxed increment per
    update). Reflected into [p2Stats] by the runtime; names and units
    are catalogued in [docs/OPERATIONS.md]. *)
type stats = {
  triggers : Metrics.Counter.t;  (** strand triggers that matched *)
  naive_refires : Metrics.Counter.t;
      (** full-body re-enumerations fired by the naive ablation mode *)
  executed : Metrics.Counter.t;  (** agenda items executed *)
  enqueued : Metrics.Counter.t;  (** agenda items pushed *)
  drains : Metrics.Counter.t;  (** drain (fixpoint) invocations *)
  rule_executions : Metrics.Counter.t;
      (** strand firings that produced a head tuple *)
  drain_items : Metrics.Histogram.t;  (** items per non-empty drain *)
  drain_work_us : Metrics.Histogram.t;
      (** node-local work (notional µs) per non-empty drain *)
}

(** The {!drain} bound tripped — almost always a runaway recursive
    program. Carries the node address, the rule id of the strand that
    was executing when the budget ran out, and the item count. *)
exception
  Agenda_explosion of { addr : string; last_strand : string option; items : int }

val create : ctx -> t

(** Switch the delta-strand evaluation strategy. Flipping it between
    drains is safe (in-flight agenda items carry their stage plan);
    default [Seminaive]. *)
val set_eval_mode : t -> eval_mode -> unit

val eval_mode : t -> eval_mode

(** Ablation switch: [false] forces joins and negations back onto the
    full-scan path (the pre-index behaviour). Default [true]. *)
val set_use_probe : t -> bool -> unit

(** This machine's live metric set. *)
val stats : t -> stats

(** Number of queued agenda items, in O(1). *)
val pending : t -> int

(** Synonym for {!pending}: the current agenda depth. *)
val agenda_depth : t -> int

(** High-water mark of the agenda depth since creation. *)
val agenda_depth_max : t -> int

(** Offer a tuple to a strand; true if the trigger matched. Aggregates
    run synchronously; ordinary strands enqueue agenda work — call
    {!drain}. *)
val trigger : t -> Strand.t -> Tuple.t -> bool

(** Run the agenda to empty. [max_items] bounds runaway programs
    (raises {!Agenda_explosion} when exceeded). *)
val drain : ?max_items:int -> t -> unit

(** Rule id of the most recently executed strand, if any. *)
val last_fired : t -> string option

(** Provenance oracle the tests check [ruleExec] rows against: every
    derivation since recording began, as (rule, cause id, output id,
    is_event) — the event link first, then one link per precondition
    in stage order, the key of the rows the tracer should hold. *)

val set_record_ground_truth : t -> bool -> unit
val ground_truth : t -> (string * int * int * bool) list
val clear_ground_truth : t -> unit
