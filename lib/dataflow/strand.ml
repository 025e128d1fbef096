(** Rule strands: the compiled form of one OverLog rule, mirroring the
    planner output described in paper §2 (Figure 1).

    A strand has a trigger (the tuple event that starts it), a sequence
    of stages (table joins, selections, assignments), and a head
    action. Join stages are the stateful elements of the paper and are
    numbered in order. *)

open Overlog

type trigger =
  | Event of Ast.atom        (* a transient tuple arriving / being created *)
  | Periodic of { atom : Ast.atom; period : float }
  | Table_delta of Ast.atom  (* insertion into a materialized table *)

type stage =
  | Join of { atom : Ast.atom; jstage : int; bound : int list; bound_args : Ast.expr list }
      (* jstage: 0-based join number; bound: 1-indexed argument
         positions whose value is known before the table is consulted
         (a constant, or a variable bound by earlier stages) — the
         probe key the machine hands to the store's hash indexes.
         bound_args: the argument expressions at those positions,
         precompiled so the machine never walks the atom with
         [List.nth] per evaluation *)
  | Neg_join of { atom : Ast.atom; bound : int list; bound_args : Ast.expr list }
      (* negation: succeeds when no tuple matches *)
  | Select of Ast.expr
  | Bind of string * Ast.expr

type aggregate_plan = {
  agg : Ast.aggregate;
  (* positions of plain fields within the head, for grouping *)
  group_fields : Ast.expr list;  (* head loc :: plain field exprs *)
}

type t = {
  rule : Ast.rule;
  rule_id : string;
  trigger : trigger;
  stages : stage list;
  stages_arr : stage array;
      (* same stages, precomputed once so the machine never rebuilds an
         array per agenda item *)
  join_count : int;
  head : Ast.head;
  aggregate : aggregate_plan option;
  naive_stages : stage list;
  naive_stages_arr : stage array;
      (* the classical (naive) plan for delta strands: the full body —
         trigger atom included — re-enumerated from an empty
         environment on every table delta. Used only when the machine
         runs in [Naive] mode as the semi-naive ablation control;
         identical to [stages] for event/periodic/aggregate strands. *)
}

exception Compile_error of string

let trigger_atom t =
  match t.trigger with
  | Event a | Table_delta a -> a
  | Periodic { atom; _ } -> atom

let trigger_name t = (trigger_atom t).pred

let atom_vars (a : Ast.atom) =
  List.concat_map Ast.expr_vars a.args
  |> List.filter (fun v -> v <> "_")

(* Variables bound after matching the trigger and running the stages.
   Negated atoms bind nothing: their variables are existential. *)
let bound_vars trigger stages =
  let init = atom_vars trigger in
  List.fold_left
    (fun acc -> function
      | Join { atom; _ } -> atom_vars atom @ acc
      | Neg_join _ | Select _ -> acc
      | Bind (v, _) -> v :: acc)
    init stages

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Argument positions (1-indexed, location included) whose value is
   computable from the environment before the table is consulted: a
   literal constant, or a variable already bound when the stage runs.
   Only pure argument forms qualify — a computed expression is left to
   the per-tuple matcher so it is evaluated exactly as often as before
   (it could call builtins with ambient state). A repeated fresh
   variable's later occurrences do not qualify either: their value is
   only fixed by the match itself. *)
let probe_positions vars (a : Ast.atom) =
  List.mapi (fun i e -> (i + 1, e)) a.args
  |> List.filter_map (fun (p, e) ->
         match e with
         | Ast.Const _ -> Some (p, e)
         | Ast.Var v when v <> "_" && List.mem v vars -> Some (p, e)
         | _ -> None)
  |> List.split

(* Order the non-trigger body terms into stages. Terms keep their
   textual order — this matters for semantics, e.g. [ReqID := f_rand()]
   written after a join must run once per match, not once per trigger —
   except that a selection or assignment whose variables are not yet
   bound (possible after delta rewriting rotates the trigger to the
   front) is deferred until the join that binds them has been placed. *)
let order_stages ~rule_id ~initial_bound rest =
  let placeable bound = function
    | Ast.Atom _ | Ast.NotAtom _ -> true
    | Ast.Cond e -> subset (Ast.expr_vars e) bound
    | Ast.Assign (_, e) -> subset (Ast.expr_vars e) bound
  in
  let place_term (bound, acc, jstage) = function
    | Ast.Atom a ->
        let positions, bound_args = probe_positions bound a in
        ( atom_vars a @ bound,
          Join { atom = a; jstage; bound = positions; bound_args } :: acc,
          jstage + 1 )
    | Ast.NotAtom a ->
        let positions, bound_args = probe_positions bound a in
        (bound, Neg_join { atom = a; bound = positions; bound_args } :: acc, jstage)
    | Ast.Cond e -> (bound, Select e :: acc, jstage)
    | Ast.Assign (v, e) -> (bound, Bind (v, e) :: acc, jstage)
  in
  let bind_of = function Ast.Assign (v, _) -> [ v ] | _ -> [] in
  let rec go bound deferred pending acc jstage =
    (* flush deferred terms that have become placeable, in order *)
    let rec flush bound deferred acc jstage =
      match List.partition (placeable bound) deferred with
      | [], _ -> (bound, deferred, acc, jstage)
      | ready, rest ->
          let bound, acc, jstage =
            List.fold_left
              (fun (b, a, j) t ->
                let b, a, j = place_term (b, a, j) t in
                (bind_of t @ b, a, j))
              (bound, acc, jstage) ready
          in
          flush bound rest acc jstage
    in
    let bound, deferred, acc, jstage = flush bound deferred acc jstage in
    match pending with
    | [] ->
        if deferred <> [] then
          raise
            (Compile_error
               (Fmt.str "rule %s: unsafe body (unbound variables in condition)"
                  rule_id))
        else List.rev acc
    | t :: rest ->
        if placeable bound t then
          let bound, acc, jstage = place_term (bound, acc, jstage) t in
          go (bind_of t @ bound) deferred rest acc jstage
        else go bound (deferred @ [ t ]) rest acc jstage
  in
  go initial_bound [] rest [] 0

let head_aggregate (h : Ast.head) =
  let aggs = List.filter_map (function Ast.Agg a -> Some a | Ast.Plain _ -> None) h.hfields in
  match aggs with
  | [] -> None
  | [ a ] ->
      Some
        {
          agg = a;
          group_fields =
            h.hloc
            :: List.filter_map
                 (function Ast.Plain e -> Some e | Ast.Agg _ -> None)
                 h.hfields;
        }
  | _ -> raise (Compile_error "at most one aggregate per rule head")

let check_head_safety ~rule_id trigger stages (head : Ast.head) =
  let bound = bound_vars trigger stages in
  let needed = Ast.head_vars head in
  List.iter
    (fun v ->
      if v <> "_" && not (List.mem v bound) then
        raise
          (Compile_error (Fmt.str "rule %s: head variable %s is unbound" rule_id v)))
    needed

let count_joins stages =
  List.fold_left
    (fun acc -> function Join _ -> acc + 1 | Neg_join _ | Select _ | Bind _ -> acc)
    0 stages

let make_strand ~rule ~rule_id ~trigger ~rest =
  let trigger_a =
    match trigger with
    | Event a | Table_delta a -> a
    | Periodic { atom; _ } -> atom
  in
  let aggregate = head_aggregate rule.Ast.rhead in
  (* Aggregate delta strands keep only group-variable bindings from the
     trigger at run time (the delta identifies the affected group; the
     aggregate rescans the table), so stage ordering must assume the
     same restricted initial environment. *)
  let initial_bound =
    match (aggregate, trigger) with
    | Some plan, Table_delta _ ->
        let group_vars = List.concat_map Ast.expr_vars plan.group_fields in
        List.filter (fun v -> List.mem v group_vars) (atom_vars trigger_a)
    | _ -> atom_vars trigger_a
  in
  let stages = order_stages ~rule_id ~initial_bound rest in
  (* Delete heads are patterns: unbound variables act as wildcards
     (paper rule cs10), so safety only applies to derivation heads. *)
  if not rule.Ast.rhead.hdelete then
    check_head_safety ~rule_id trigger_a stages rule.Ast.rhead;
  (* Naive plan: a table delta merely signals "something changed" and
     the whole body — trigger atom included, in textual order — is
     re-joined from scratch. Aggregates already rescan the full body on
     every delta, so their plan is shared. *)
  let naive_stages =
    match (trigger, aggregate) with
    | Table_delta _, None -> order_stages ~rule_id ~initial_bound:[] rule.Ast.rbody
    | _ -> stages
  in
  {
    rule;
    rule_id;
    trigger;
    stages;
    stages_arr = Array.of_list stages;
    join_count = count_joins stages;
    head = rule.Ast.rhead;
    aggregate;
    naive_stages;
    naive_stages_arr = Array.of_list naive_stages;
  }

let periodic_period (atom : Ast.atom) ~rule_id =
  (* periodic@N(E, T [, Count]) — T must be a numeric literal. *)
  match atom.args with
  | _ :: _ :: t :: _ -> (
      match t with
      | Ast.Const (Value.VInt i) -> float_of_int i
      | Ast.Const (Value.VFloat f) -> f
      | _ ->
          raise
            (Compile_error
               (Fmt.str "rule %s: periodic period must be a numeric constant" rule_id)))
  | _ ->
      raise
        (Compile_error (Fmt.str "rule %s: periodic needs at least (E, T) fields" rule_id))

(** Compile one rule into its strands. [is_table] tells which
    predicates are materialized. Rules with exactly one event predicate
    get one strand triggered by it (P2 forbids more than one); rules
    over tables only get one delta strand per body atom. *)
let compile ~is_table ~fresh_rule_id (rule : Ast.rule) =
  let rule_id = match rule.rname with Some n -> n | None -> fresh_rule_id () in
  (* Negated atoms are never triggers: a rule cannot fire "because a
     tuple is absent" — it fires on its positive deltas/events and the
     negation is checked then (stratified, per-trigger evaluation). *)
  let atoms_with_index =
    List.mapi (fun i t -> (i, t)) rule.rbody
    |> List.filter_map (function
         | i, Ast.Atom a -> Some (i, a)
         | _, (Ast.NotAtom _ | Ast.Cond _ | Ast.Assign _) -> None)
  in
  if atoms_with_index = [] then
    raise (Compile_error (Fmt.str "rule %s: body has no predicates" rule_id));
  let is_event (a : Ast.atom) = a.pred = "periodic" || not (is_table a.pred) in
  let events = List.filter (fun (_, a) -> is_event a) atoms_with_index in
  let body_without i = List.filteri (fun j _ -> j <> i) rule.rbody in
  match events with
  | (i, a) :: [] ->
      let trigger =
        if a.pred = "periodic" then
          Periodic { atom = a; period = periodic_period a ~rule_id }
        else Event a
      in
      [ make_strand ~rule ~rule_id ~trigger ~rest:(body_without i) ]
  | _ :: _ :: _ ->
      raise
        (Compile_error
           (Fmt.str "rule %s: more than one event predicate in body (P2 restriction)"
              rule_id))
  | [] ->
      (* Delta strands: one per table predicate in the body. Aggregate
         rules keep the trigger atom in the scanned body — the delta
         only identifies the affected group and the aggregate must
         rescan the whole table (os8, bs1). *)
      let is_agg = Ast.rule_has_aggregate rule in
      List.map
        (fun (i, a) ->
          let rest = if is_agg then rule.rbody else body_without i in
          make_strand ~rule ~rule_id ~trigger:(Table_delta a) ~rest)
        atoms_with_index

let pp ppf t =
  let trig =
    match t.trigger with
    | Event a -> Fmt.str "event %s" a.pred
    | Periodic { period; _ } -> Fmt.str "periodic %g" period
    | Table_delta a -> Fmt.str "delta %s" a.pred
  in
  Fmt.pf ppf "strand %s [%s] joins=%d%s" t.rule_id trig t.join_count
    (if t.aggregate <> None then " agg" else "")
