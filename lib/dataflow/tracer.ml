(** Execution tracer (paper §2.1).

    The execution machine reports each derivation once, when its
    output tuple leaves the strand, together with the provenance its
    agenda items carried: the triggering event and the precondition
    tuple each join stage fetched, each with the node-local time it
    was observed. The tracer writes them as causal [ruleExec] rows:

    {v ruleExec(localAddr, ruleID, causeID, effectID, tCause, tOut, isEvent) v}

    one row linking the triggering event to the output (isEvent =
    true) and one row per precondition (isEvent = false). Tuples are
    memoized by node-unique ID through the [tupleTable]:

    {v tupleTable(localAddr, tupleID, srcAddr, srcTupleID, destAddr) v}

    with reference counting from [ruleExec] rows (§2.1.3): an entry is
    discarded when the last referring [ruleExec] row is removed or
    times out, or, for a tuple no [ruleExec] row refers to, when its
    [tupleTable] row times out.

    Pipelined executions (§2.1.2) need no matching here: every
    derivation carries its own cause and preconditions through the
    agenda, however its stages interleave with other executions. *)

open Overlog

type config = {
  rule_exec_lifetime : float;
  rule_exec_cap : int;
  tuple_table_lifetime : float;
}

let default_config =
  {
    rule_exec_lifetime = 30.;
    rule_exec_cap = 2048;
    tuple_table_lifetime = 60.;
  }

(* With a sink spilling every record to disk, the in-RAM window only
   needs to cover queries over the very recent past; history belongs
   to the segment log. *)
let spill_config =
  {
    rule_exec_lifetime = 5.;
    rule_exec_cap = 256;
    tuple_table_lifetime = 10.;
  }

(* Replay restores hours of history into the tables at once: nothing
   may expire or be evicted, or the reconstruction would silently
   drop the very rows a forensic query is after. *)
let replay_config =
  {
    rule_exec_lifetime = infinity;
    rule_exec_cap = 1_000_000;
    tuple_table_lifetime = infinity;
  }

(* Tracer self-metrics (counted only while tracing is enabled): how
   many taps fired, how many causal rows the reconstruction emitted,
   and how many tuples were memoized. Together with the work-unit
   charges these quantify the paper's "execution logging increases CPU
   by 40%" overhead at runtime. *)
type stats = {
  taps : Metrics.Counter.t;  (* input/precondition/output/register taps *)
  rule_exec_rows : Metrics.Counter.t;  (* ruleExec rows added *)
  tuples_registered : Metrics.Counter.t;  (* tupleTable memoizations *)
}

type t = {
  addr : string;
  mutable enabled : bool;
  rule_exec : Store.Table.t;
  tuple_table : Store.Table.t;
  contents : (int, Tuple.t) Hashtbl.t;  (* tuple id -> memoized tuple *)
  mutable contents_bytes : int;  (* sum of [Tuple.size_bytes] over [contents] *)
  refs : (int, int) Hashtbl.t;  (* tuple id -> ruleExec reference count *)
  charge : float -> unit;
  now : unit -> float;
  stats : stats;
  mutable sink : (stamp:float -> delete:bool -> Tuple.t -> unit) option;
      (* flight-recorder tap: called once per registered tuple and per
         tupleTable/ruleExec row as they are produced *)
}

(* Work-unit cost of one tap observation; this is where the paper's
   "execution logging increases CPU by 40%" overhead comes from. *)
let tap_cost = Cost.tracer_tap

(* All writes to the contents memo go through these two, which keep
   its running byte total. *)
let memo_remove t id =
  match Hashtbl.find_opt t.contents id with
  | Some old ->
      t.contents_bytes <- t.contents_bytes - Tuple.size_bytes old;
      Hashtbl.remove t.contents id
  | None -> ()

let memo_add t id tuple =
  memo_remove t id;
  t.contents_bytes <- t.contents_bytes + Tuple.size_bytes tuple;
  Hashtbl.replace t.contents id tuple

let create ?(config = default_config) ~addr ~now ~charge () =
  let rule_exec =
    Store.Table.create ~lifetime:config.rule_exec_lifetime
      ~max_size:config.rule_exec_cap ~keys:[ 2; 3; 4; 7 ] "ruleExec"
  in
  let tuple_table =
    Store.Table.create ~lifetime:config.tuple_table_lifetime ~keys:[ 2 ] "tupleTable"
  in
  let t =
    {
      addr;
      enabled = false;
      rule_exec;
      tuple_table;
      contents = Hashtbl.create 256;
      contents_bytes = 0;
      refs = Hashtbl.create 256;
      charge;
      now;
      stats =
        {
          taps = Metrics.Counter.create ();
          rule_exec_rows = Metrics.Counter.create ();
          tuples_registered = Metrics.Counter.create ();
        };
      sink = None;
    }
  in
  (* Reference counting: when a ruleExec row disappears (expiry,
     eviction or deletion), unreference its cause and effect tuples.
     tupleTable is keyed on the tuple id (position 2), so reclaiming
     the last reference is one keyed delete. *)
  Store.Table.subscribe rule_exec (function
    | Store.Table.Delete row -> (
        match Tuple.fields row with
        | _ :: _ :: cause :: effect :: _ ->
            let unref v =
              match v with
              | Value.VInt id -> (
                  match Hashtbl.find_opt t.refs id with
                  | Some n when n <= 1 ->
                      Hashtbl.remove t.refs id;
                      memo_remove t id;
                      (* only the key field (position 2) is compared *)
                      let key = Tuple.make "tupleTable" [ Value.VAddr t.addr; Value.VInt id ] in
                      ignore (Store.Table.delete t.tuple_table ~now:(t.now ()) key)
                  | Some n -> Hashtbl.replace t.refs id (n - 1)
                  | None -> ())
              | _ -> ()
            in
            unref cause;
            unref effect
        | _ -> ())
    | Store.Table.Insert _ | Store.Table.Refresh _ -> ());
  (* A tuple no ruleExec row cites has no reference count, so the path
     above never reclaims it: its memo entry leaves with its tupleTable
     row instead. A cited tuple stays until its last citing row goes. *)
  Store.Table.subscribe tuple_table (function
    | Store.Table.Delete row -> (
        match Tuple.field row 2 with
        | Value.VInt id when not (Hashtbl.mem t.refs id) -> memo_remove t id
        | _ -> ())
    | Store.Table.Insert _ | Store.Table.Refresh _ -> ());
  t

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let enabled t = t.enabled
let stats t = t.stats
let set_sink t sink = t.sink <- sink

let rule_exec_table t = t.rule_exec
let tuple_table t = t.tuple_table

(** Resolve a memoized tuple ID back to its contents (forensics API). *)
let resolve t id = Hashtbl.find_opt t.contents id

(* Read in this order (memo, tupleTable, then ruleExec), a sample
   still counts the memo entries and tupleTable rows that its own
   ruleExec expiry sweep goes on to reclaim. The memory figures of
   seeded runs depend on this order; keep it. *)
let live_bytes t ~now =
  let memo = t.contents_bytes in
  let tuples = Store.Table.bytes t.tuple_table ~now in
  Store.Table.bytes t.rule_exec ~now + tuples + memo

let live_tuples t ~now =
  Store.Table.size t.rule_exec ~now + Store.Table.size t.tuple_table ~now

(** Record a freshly created or received tuple in the tupleTable.
    [src]/[src_id] describe where it came from (the local node itself
    for locally created tuples); [dst] is where it is headed. *)
let register_tuple t tuple ~src ~src_id ~dst =
  if t.enabled then begin
    t.charge tap_cost;
    Metrics.Counter.incr t.stats.taps;
    Metrics.Counter.incr t.stats.tuples_registered;
    let id = Tuple.id tuple in
    memo_add t id tuple;
    let row =
      Tuple.make "tupleTable"
        [ Value.VAddr t.addr; Value.VInt id; Value.VAddr src; Value.VInt src_id;
          Value.VAddr dst ]
    in
    let _ = Store.Table.insert t.tuple_table ~now:(t.now ()) row in
    (* Spill both halves of the registration: the memoized contents
       (whose wire src_tuple_id is the local id, so replay rebuilds
       the id -> tuple memo without any cross-record correlation) and
       the provenance row itself. *)
    match t.sink with
    | Some f ->
        let stamp = t.now () in
        f ~stamp ~delete:false tuple;
        f ~stamp ~delete:false row
    | None -> ()
  end

let ref_tuple t id =
  Hashtbl.replace t.refs id (1 + Option.value ~default:0 (Hashtbl.find_opt t.refs id))

let emit_rule_exec t ~rule ~cause ~effect ~t_cause ~t_out ~is_event =
  let row =
    Tuple.make "ruleExec"
      [ Value.VAddr t.addr; Value.VStr rule; Value.VInt cause; Value.VInt effect;
        Value.VFloat t_cause; Value.VFloat t_out; Value.VBool is_event ]
  in
  (match Store.Table.insert t.rule_exec ~now:(t.now ()) row with
  | Store.Table.Added ->
      Metrics.Counter.incr t.stats.rule_exec_rows;
      ref_tuple t cause;
      ref_tuple t effect;
      (match t.sink with
      | Some f -> f ~stamp:t_out ~delete:false row
      | None -> ())
  | Store.Table.Replaced | Store.Table.Refreshed -> ());
  t.charge Cost.table_insert

(** Re-insert a recorded trace record (replay path). [ruleExec] and
    [tupleTable] rows go back into their tables — delta strands
    subscribed to them fire exactly as they would have live — and any
    other tuple refills the contents memo under its recorded id. Works
    with tracing disabled and never feeds the sink, so a replaying
    node can not re-record its own reconstruction. *)
let restore t tuple =
  match Tuple.name tuple with
  | "ruleExec" -> (
      match Store.Table.insert t.rule_exec ~now:(t.now ()) tuple with
      | Store.Table.Added -> (
          match Tuple.fields tuple with
          | _ :: _ :: Value.VInt cause :: Value.VInt effect :: _ ->
              ref_tuple t cause;
              ref_tuple t effect
          | _ -> ())
      | Store.Table.Replaced | Store.Table.Refreshed -> ())
  | "tupleTable" ->
      let _ = Store.Table.insert t.tuple_table ~now:(t.now ()) tuple in
      ()
  | _ -> memo_add t (Tuple.id tuple) tuple

(** One input or precondition observation: a tap charge, the
    observation's time being read by the caller right after it. *)
let tap t =
  if t.enabled then begin
    t.charge tap_cost;
    Metrics.Counter.incr t.stats.taps
  end

(** An output tuple left [rule]'s strand: one event row from [cause]
    (observed at [t_cause]) and one row per precondition, in the order
    given (stage order), each with its observation time. *)
let on_output t ~rule ~cause ~t_cause ~preconds ~tuple_id =
  if t.enabled then begin
    tap t;
    let t_out = t.now () in
    emit_rule_exec t ~rule ~cause ~effect:tuple_id ~t_cause ~t_out ~is_event:true;
    List.iter
      (fun (cause, t_cause) ->
        emit_rule_exec t ~rule ~cause ~effect:tuple_id ~t_cause ~t_out ~is_event:false)
      preconds
  end
