(** Strand execution machine: the per-node dataflow interpreter.

    Work is scheduled as agenda items so that strand stages can be
    interleaved (pipelined execution, paper §2.1.2). A trigger queues
    behind pending work; once an execution starts, its join
    continuations run depth-first, each match to completion before
    the next (the sequential semantics of §2.1.1).

    Every agenda item carries its derivation's provenance: the
    triggering event and the precondition each join stage fetched so
    far. An emitted head hands it to the tracer as [ruleExec] rows,
    so the rows are right however executions interleave.

    All state access goes through a [ctx] of closures supplied by the
    runtime node, keeping this module independent of the network and
    table plumbing. *)

open Overlog

(* Evaluation strategy for table-delta strands. [Seminaive] is the
   planner's delta rewriting (paper §2 / Grumbach-Wang-Wu): the newest
   tuple — a frontier of size one — is joined against the full stored
   relations, so each derivation happens once per supporting delta.
   [Naive] is the classical ablation control: any delta merely signals
   "this table changed" and the whole rule body is re-enumerated from
   an empty environment, re-deriving (and re-shipping) everything the
   rule ever produced. Event and periodic strands are unaffected: their
   trigger is transient, so there is no full relation to re-scan. *)
type eval_mode = Seminaive | Naive

type ctx = {
  addr : string;
  now : unit -> float;
  eval_ctx : Eval.context;
  scan : string -> Tuple.t list;  (* contents of a materialized table *)
  probe : string -> positions:int list -> values:Value.t list -> Tuple.t list;
      (* rows whose fields at the 1-indexed positions equal the values,
         in the same (insertion) order a scan would yield them — backed
         by the store's hash indexes, O(matches) instead of O(table) *)
  create_tuple : dst:string -> string -> Value.t list -> Tuple.t;
      (* allocate a node-unique id, register with the tracer, count it *)
  emit : delete:bool -> Tuple.t -> unit;  (* route a head tuple *)
  charge : float -> unit;
  tracer : Tracer.t option;
}

(* One derivation's provenance, carried by its agenda items. Times
   are node-local, read right after the observation's tracer tap. *)
type prov = {
  cause_id : int;  (* the triggering event *)
  cause_time : float;
  traced : bool;
      (* false for naive-mode re-enumerations: the ablation's plan
         re-joins the trigger's own table as a precondition, so its
         rows would differ from the semi-naive derivation's; they
         bypass the taps entirely *)
  preconds : (int * float) list;
      (* (tuple id, time) per join stage passed, newest first; filled
         only while tracing or recording ground truth *)
}

type item =
  | Run of Strand.t * Strand.stage array * int * Eval.Env.t * prov
      (* execute the given stage plan from index onwards under the
         environment (the plan is carried in the item so a mid-drain
         eval-mode flip cannot mix plans within one execution) *)
  | Join_cont of Strand.t * Strand.stage array * int * (Eval.Env.t * Tuple.t) list * prov
      (* stage index, remaining matches *)
  | Complete of Strand.t
      (* queued behind a join's last match: does nothing but cost one
         element invocation, as the join seeking its next input *)

(* Hot-path self-metrics (always on; each update is one unboxed
   increment). Reflected into [p2Stats] by the runtime — the names are
   catalogued in docs/OPERATIONS.md. *)
type stats = {
  triggers : Metrics.Counter.t;  (* strand triggers that matched *)
  naive_refires : Metrics.Counter.t;
      (* full-body re-enumerations fired by the naive ablation mode *)
  executed : Metrics.Counter.t;  (* agenda items executed *)
  enqueued : Metrics.Counter.t;  (* agenda items pushed *)
  drains : Metrics.Counter.t;  (* drain (fixpoint) invocations *)
  rule_executions : Metrics.Counter.t;  (* strand firings that produced a head tuple *)
  drain_items : Metrics.Histogram.t;  (* items per non-empty drain *)
  drain_work_us : Metrics.Histogram.t;
      (* node-local work (notional µs) consumed per non-empty drain:
         the strand-latency distribution of one fixpoint *)
}

type t = {
  ctx : ctx;
  mutable eval_mode : eval_mode;
  mutable use_probe : bool;
      (* ablation switch: false forces every join/negation back onto
         the full-scan path (the pre-index behaviour) *)
  mutable front : item list;
  mutable back : item list;
  stats : stats;
  mutable depth : int;  (* current agenda depth: |front| + |back| *)
  mutable depth_max : int;  (* agenda-depth high-water mark *)
  mutable last_fired : string option;
      (* rule id of the most recently executed strand — the forensic
         breadcrumb reported when the agenda bound trips *)
  mutable ground_truth : (string * int * int * bool) list;
      (* (rule, cause id, output id, is_event), newest first: every
         derivation's event and precondition links, the oracle tests
         check the ruleExec rows against *)
  mutable record_ground_truth : bool;
}

(** The [drain] bound tripped: almost always a runaway recursive
    program. Carries where it happened and which strand was executing
    when the budget ran out, so the report points at the offender. *)
exception
  Agenda_explosion of { addr : string; last_strand : string option; items : int }

let () =
  Printexc.register_printer (function
    | Agenda_explosion { addr; last_strand; items } ->
        Some
          (Fmt.str
             "Machine.Agenda_explosion: node %s exceeded %d agenda items (last strand: \
              %s)"
             addr items
             (Option.value last_strand ~default:"<none>"))
    | _ -> None)

let create ctx =
  {
    ctx;
    eval_mode = Seminaive;
    use_probe = true;
    front = [];
    back = [];
    stats =
      {
        triggers = Metrics.Counter.create ();
        naive_refires = Metrics.Counter.create ();
        executed = Metrics.Counter.create ();
        enqueued = Metrics.Counter.create ();
        drains = Metrics.Counter.create ();
        rule_executions = Metrics.Counter.create ();
        drain_items = Metrics.Histogram.create ();
        drain_work_us = Metrics.Histogram.create ();
      };
    depth = 0;
    depth_max = 0;
    last_fired = None;
    ground_truth = [];
    record_ground_truth = false;
  }

let set_eval_mode t m = t.eval_mode <- m
let eval_mode t = t.eval_mode
let set_use_probe t b = t.use_probe <- b
let stats t = t.stats

let note_push t =
  Metrics.Counter.incr t.stats.enqueued;
  t.depth <- t.depth + 1;
  if t.depth > t.depth_max then t.depth_max <- t.depth

let push_front t item =
  note_push t;
  t.front <- item :: t.front

let push_back t item =
  note_push t;
  t.back <- item :: t.back

let pop t =
  let took item =
    t.depth <- t.depth - 1;
    Some item
  in
  match t.front with
  | item :: rest ->
      t.front <- rest;
      took item
  | [] -> (
      match List.rev t.back with
      | [] -> None
      | item :: rest ->
          t.front <- rest;
          t.back <- [];
          took item)

(* The running depth counter tracks |front| + |back| exactly (every
   mutation goes through push_front/push_back/pop), making this O(1). *)
let pending t = t.depth

let agenda_depth = pending
let agenda_depth_max t = t.depth_max

(* --- Tracer taps --- *)

let tracing t =
  match t.ctx.tracer with
  | Some tr -> Tracer.enabled tr
  | None -> false

(* An input or precondition observation; its time is the node-local
   clock right after. *)
let tap t =
  match t.ctx.tracer with
  | Some tr -> Tracer.tap tr
  | None -> ()

let tap_output t (s : Strand.t) prov tuple =
  match t.ctx.tracer with
  | Some tr ->
      Tracer.on_output tr ~rule:s.rule_id ~cause:prov.cause_id ~t_cause:prov.cause_time
        ~preconds:(List.rev prov.preconds) ~tuple_id:(Tuple.id tuple)
  | None -> ()

(* A derivation triggered by [tuple]: its cause is observed now, right
   after the input tap. *)
let provenance t tuple ~traced =
  { cause_id = Tuple.id tuple; cause_time = t.ctx.now (); traced; preconds = [] }

let record_truth t (s : Strand.t) prov tuple =
  let effect = Tuple.id tuple in
  t.ground_truth <- (s.rule_id, prov.cause_id, effect, true) :: t.ground_truth;
  List.iter
    (fun (id, _) -> t.ground_truth <- (s.rule_id, id, effect, false) :: t.ground_truth)
    (List.rev prov.preconds)

(* --- Head emission --- *)

let coerce_addr = function
  | Value.VStr s -> Value.VAddr s
  | v -> v

(* Evaluate a delete head into a pattern tuple: unbound variables act
   as wildcards, encoded as VNull (cs10's [delete lookupCluster@N(
   ProbeID, T, Count)] binds only ProbeID). *)
let eval_delete_field ctx env e =
  match e with
  | Ast.Var v when v <> "_" -> (
      match Eval.Env.find env v with
      | Some x -> x
      | None -> Value.VNull)
  | Ast.Var _ -> Value.VNull
  | e -> Eval.eval ctx env e

let emit_head t (s : Strand.t) env prov =
  let ctx = t.ctx in
  let head = s.head in
  if head.hdelete then begin
    let loc = coerce_addr (eval_delete_field ctx.eval_ctx env head.hloc) in
    let fields =
      List.map
        (function
          | Ast.Plain e -> eval_delete_field ctx.eval_ctx env e
          | Ast.Agg _ -> Value.VNull)
        head.hfields
    in
    let dst = match loc with Value.VAddr a -> a | _ -> ctx.addr in
    let tuple = ctx.create_tuple ~dst head.hatom (loc :: fields) in
    Metrics.Counter.incr t.stats.rule_executions;
    ctx.emit ~delete:true tuple
  end
  else begin
    let loc = coerce_addr (Eval.eval ctx.eval_ctx env head.hloc) in
    let fields =
      List.map
        (function
          | Ast.Plain e -> Eval.eval ctx.eval_ctx env e
          | Ast.Agg _ -> invalid_arg "emit_head: aggregate in non-aggregate strand")
        head.hfields
    in
    ctx.charge Cost.element;
    let dst = match loc with Value.VAddr a -> a | _ -> ctx.addr in
    let tuple = ctx.create_tuple ~dst head.hatom (loc :: fields) in
    if prov.traced then tap_output t s prov tuple;
    if t.record_ground_truth then record_truth t s prov tuple;
    Metrics.Counter.incr t.stats.rule_executions;
    ctx.emit ~delete:false tuple
  end

(* --- Stage execution --- *)

exception Unbound_probe

(* Candidate tuples for a join/negation stage. With bound argument
   positions the store's hash index yields the candidates in
   O(matches); unbound patterns (and machines with probing ablated)
   fall back to the full scan. Candidates are a superset filter only:
   [match_atom] still verifies every tuple, so the probe is purely an
   access-path optimization. Probe keys are read, never evaluated —
   only constants and already-bound variables qualify as bound
   positions (see [Strand.probe_positions]). *)
let candidates t env (atom : Ast.atom) bound bound_args =
  if bound = [] || not t.use_probe then t.ctx.scan atom.pred
  else
    match
      List.map
        (fun arg ->
          match arg with
          | Ast.Const v -> v
          | Ast.Var v -> (
              match Eval.Env.find env v with
              | Some x -> x
              | None -> raise_notrace Unbound_probe)
          | _ -> raise_notrace Unbound_probe)
        bound_args
    with
    | values -> t.ctx.probe atom.pred ~positions:bound ~values
    | exception Unbound_probe -> t.ctx.scan atom.pred

(* Run non-join stages inline from [idx]; stop at the next join or the
   head. *)
let rec run_from t (s : Strand.t) stages idx env prov =
  if idx >= Array.length stages then emit_head t s env prov
  else
    match stages.(idx) with
    | Strand.Select e ->
        t.ctx.charge Cost.eval;
        if Eval.eval_bool t.ctx.eval_ctx env e then
          run_from t s stages (idx + 1) env prov
    | Strand.Bind (v, e) ->
        t.ctx.charge Cost.eval;
        let env = Eval.Env.bind env v (Eval.eval t.ctx.eval_ctx env e) in
        run_from t s stages (idx + 1) env prov
    | Strand.Neg_join { atom; bound; bound_args } ->
        t.ctx.charge Cost.table_lookup;
        let exists =
          Eval.match_atom_exists t.ctx.eval_ctx env atom
            (candidates t env atom bound bound_args)
        in
        if not exists then run_from t s stages (idx + 1) env prov
    | Strand.Join { atom; bound; bound_args; _ } ->
        (* Cost model: P2 joins probe hash-indexed tables, so a probe
           costs one lookup plus work proportional to the matches it
           yields — not to the table size. Since the store grew real
           hash indexes this is how the implementation behaves too,
           not just how it is charged. *)
        t.ctx.charge Cost.table_lookup;
        let matches =
          Eval.match_atom_all
            ~on_match:(fun _ -> t.ctx.charge Cost.eval)
            t.ctx.eval_ctx env atom
            (candidates t env atom bound bound_args)
        in
        process_join t s stages idx matches prov

(* Continue the first match to completion, then the rest. The match's
   tuple joins the provenance its downstream items carry. *)
and process_join t s stages idx matches prov =
  match matches with
  | [] -> ()
  | (env', tuple) :: rest ->
      let derived =
        if prov.traced && (tracing t || t.record_ground_truth) then begin
          tap t;
          { prov with preconds = (Tuple.id tuple, t.ctx.now ()) :: prov.preconds }
        end
        else prov
      in
      if rest = [] then push_front t (Complete s)
      else push_front t (Join_cont (s, stages, idx, rest, prov));
      push_front t (Run (s, stages, idx + 1, env', derived))

let item_strand = function
  | Run (s, _, _, _, _) | Join_cont (s, _, _, _, _) | Complete s -> s

let exec_item t item =
  t.ctx.charge Cost.element;
  Metrics.Counter.incr t.stats.executed;
  let s0 = item_strand item in
  t.last_fired <- Some s0.Strand.rule_id;
  Eval.in_rule ~rule:s0.Strand.rule_id ~pred:s0.head.Ast.hatom (fun () ->
      match item with
      | Run (s, stages, idx, env, prov) -> run_from t s stages idx env prov
      | Join_cont (s, stages, idx, matches, prov) ->
          process_join t s stages idx matches prov
      | Complete _ -> ())

(* --- Aggregates --- *)

(* Enumerate all satisfying environments of the stages (synchronous,
   no pipelining: aggregates rescan their source tables, §2
   semantics). *)
let enumerate t (s : Strand.t) env0 =
  let stages = s.stages_arr in
  let results = ref [] in
  let rec go idx env =
    if idx >= Array.length stages then results := env :: !results
    else
      match stages.(idx) with
      | Strand.Select e ->
          t.ctx.charge Cost.eval;
          if Eval.eval_bool t.ctx.eval_ctx env e then go (idx + 1) env
      | Strand.Bind (v, e) ->
          t.ctx.charge Cost.eval;
          go (idx + 1) (Eval.Env.bind env v (Eval.eval t.ctx.eval_ctx env e))
      | Strand.Neg_join { atom; bound; bound_args } ->
          t.ctx.charge Cost.table_lookup;
          let exists =
            Eval.match_atom_exists t.ctx.eval_ctx env atom
              (candidates t env atom bound bound_args)
          in
          if not exists then go (idx + 1) env
      | Strand.Join { atom; bound; bound_args; _ } ->
          t.ctx.charge Cost.table_lookup;
          List.iter
            (fun (env', _) ->
              t.ctx.charge Cost.eval;
              go (idx + 1) env')
            (Eval.match_atom_all t.ctx.eval_ctx env atom
               (candidates t env atom bound bound_args))
  in
  go 0 env0;
  List.rev !results

let agg_value (agg : Ast.aggregate) envs ctx =
  match agg with
  | Ast.Count -> Some (Value.VInt (List.length envs))
  | Ast.Min v | Ast.Max v | Ast.Sum v | Ast.Avg v -> (
      let values =
        List.filter_map (fun env -> Eval.Env.find env v) envs
      in
      match values with
      | [] -> None
      | first :: rest -> (
          match agg with
          | Ast.Min _ ->
              Some (List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) first rest)
          | Ast.Max _ ->
              Some (List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) first rest)
          | Ast.Sum _ ->
              Some
                (List.fold_left
                   (fun a b -> Eval.num_binop Ast.Add a b)
                   first rest)
          | Ast.Avg _ ->
              let sum =
                List.fold_left (fun a b -> a +. Value.as_float b) 0. values
              in
              Some (Value.VFloat (sum /. float_of_int (List.length values)))
          | Ast.Count -> assert false))
  |> fun r ->
  ignore ctx;
  r

let run_aggregate t (s : Strand.t) env0 prov =
  let ctx = t.ctx in
  let plan = Option.get s.aggregate in
  let envs = enumerate t s env0 in
  (* Group by the evaluated plain head fields. Keys are structural
     hashes ([Value.hash_values]) with [Value.equal]-checked buckets,
     so no "\x00"-joined key string is materialized per evaluation —
     that string build used to dominate aggregate-strand allocation. *)
  let groups : (int, (Value.t list * Eval.Env.t list ref) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let group_order = ref [] in
  let equal_keys a b =
    try List.for_all2 Value.equal a b with Invalid_argument _ -> false
  in
  List.iter
    (fun env ->
      let key_values = List.map (Eval.eval ctx.eval_ctx env) plan.group_fields in
      let h = Value.hash_values key_values in
      let bucket =
        match Hashtbl.find_opt groups h with
        | Some b -> b
        | None ->
            let b = ref [] in
            Hashtbl.replace groups h b;
            b
      in
      match List.find_opt (fun (kv, _) -> equal_keys kv key_values) !bucket with
      | Some (_, cell) -> cell := env :: !cell
      | None ->
          let group = (key_values, ref [ env ]) in
          bucket := group :: !bucket;
          group_order := group :: !group_order)
    envs;
  (* Empty-count groups: when an *event* triggers a count whose group
     fields it binds (sr8's haveSnap count), the aggregate must emit 0
     so downstream "is this new?" rules can fire. Table-delta triggers
     must NOT do this: recomputing on a deletion would resurrect
     deleted state as a zero row. *)
  let event_triggered =
    match s.trigger with
    | Strand.Event _ | Strand.Periodic _ -> true
    | Strand.Table_delta _ -> false
  in
  (if !group_order = [] && plan.agg = Ast.Count && event_triggered then
     match
       List.map (fun e -> Eval.eval ctx.eval_ctx env0 e) plan.group_fields
     with
     | key_values -> group_order := [ (key_values, ref []) ]
     | exception _ -> ());
  List.iter
    (fun (key_values, cell) ->
      let group_envs = !cell in
      match
        if group_envs = [] then
          if plan.agg = Ast.Count then Some (Value.VInt 0) else None
        else agg_value plan.agg group_envs ctx.eval_ctx
      with
      | None -> ()
      | Some agg_v ->
          (* Reassemble the head in its original field order. *)
          let remaining = ref (List.tl key_values) (* drop loc *) in
          let loc = coerce_addr (List.hd key_values) in
          let fields =
            List.map
              (function
                | Ast.Plain _ ->
                    let v = List.hd !remaining in
                    remaining := List.tl !remaining;
                    v
                | Ast.Agg _ -> agg_v)
              s.head.hfields
          in
          let dst = match loc with Value.VAddr a -> a | _ -> ctx.addr in
          let tuple = ctx.create_tuple ~dst s.head.hatom (loc :: fields) in
          tap_output t s prov tuple;
          if t.record_ground_truth then record_truth t s prov tuple;
          Metrics.Counter.incr t.stats.rule_executions;
          ctx.emit ~delete:s.head.hdelete tuple)
    (List.rev !group_order)

(* --- Triggering --- *)

(* For aggregate strands triggered by a table delta, the delta only
   identifies the affected group: keep bindings of group variables and
   rescan everything else (so os8's count<*> counts all reporters for
   the updated oscillator, not just the one in the delta). *)
let restrict_to_group_vars (s : Strand.t) env =
  match s.aggregate with
  | None -> env
  | Some plan ->
      let group_vars = List.concat_map Ast.expr_vars plan.group_fields in
      List.filter (fun (v, _) -> List.mem v group_vars) env

(* True when the strand must run as a naive full-body re-enumeration:
   the machine is in [Naive] mode and the strand is a non-aggregate
   table-delta strand (aggregates already rescan their body on every
   delta, so both modes coincide for them). *)
let naive_refire t (s : Strand.t) =
  t.eval_mode = Naive && s.aggregate = None
  && match s.trigger with
     | Strand.Table_delta _ -> true
     | Strand.Event _ | Strand.Periodic _ -> false

(** Offer a tuple to a strand. Returns true if the trigger matched. *)
let trigger t (s : Strand.t) tuple =
  let atom = Strand.trigger_atom s in
  t.ctx.charge Cost.element;
  if naive_refire t s then begin
    (* Naive ablation: the delta is only a change signal — fire
       unconditionally and re-join the whole body (trigger atom
       included) from an empty environment. Anything previously
       derived is re-emitted; the store's refresh semantics keep the
       cascade finite, but every re-derivation is re-shipped, which is
       exactly the cost semi-naive evaluation avoids. *)
    Metrics.Counter.incr t.stats.triggers;
    Metrics.Counter.incr t.stats.naive_refires;
    t.last_fired <- Some s.rule_id;
    let prov = provenance t tuple ~traced:false in
    push_back t (Run (s, s.naive_stages_arr, 0, Eval.Env.empty, prov));
    true
  end
  else
    match
      Eval.in_rule ~rule:s.rule_id ~pred:s.head.Ast.hatom (fun () ->
          Eval.match_atom t.ctx.eval_ctx Eval.Env.empty atom tuple)
    with
    | None -> false
    | Some env ->
        Metrics.Counter.incr t.stats.triggers;
        t.last_fired <- Some s.rule_id;
        tap t;
        let prov = provenance t tuple ~traced:true in
        Eval.in_rule ~rule:s.rule_id ~pred:s.head.Ast.hatom (fun () ->
            match s.aggregate with
            | Some _ ->
                let env =
                  match s.trigger with
                  | Strand.Table_delta _ -> restrict_to_group_vars s env
                  | Strand.Event _ | Strand.Periodic _ -> env
                in
                run_aggregate t s env prov
            | None -> push_back t (Run (s, s.stages_arr, 0, env, prov)));
        true

(** Drain the agenda. Bounded to guard against runaway recursive
    programs; raises {!Agenda_explosion} if the bound is exceeded. *)
let drain ?(max_items = 1_000_000) t =
  Metrics.Counter.incr t.stats.drains;
  let t0 = t.ctx.now () in
  let count = ref 0 in
  let rec go () =
    match pop t with
    | None -> ()
    | Some item ->
        incr count;
        if !count > max_items then
          raise
            (Agenda_explosion
               { addr = t.ctx.addr; last_strand = t.last_fired; items = !count });
        exec_item t item;
        go ()
  in
  go ();
  (* Empty drains (every delivery re-checks the agenda) would swamp
     the distributions with zeros; record only fixpoints that did
     work. The work delta is on the node-local clock, whose
     work-units component advances by exactly what this drain
     charged, so it doubles as a per-fixpoint latency in notional µs. *)
  if !count > 0 then begin
    Metrics.Histogram.observe t.stats.drain_items (Float.of_int !count);
    Metrics.Histogram.observe t.stats.drain_work_us
      ((t.ctx.now () -. t0) *. 1e6)
  end

let last_fired t = t.last_fired
let ground_truth t = List.rev t.ground_truth
let set_record_ground_truth t b = t.record_ground_truth <- b
let clear_ground_truth t = t.ground_truth <- []
