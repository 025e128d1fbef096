(** Host-side forensic analysis over the tracer's tables (paper §3.4):

    "a traversal of the execution state of a lookup result can at each
    step trace back individual preconditions of the execution trace,
    evaluating whether they may have been dependent on routing
    oscillators."

    Where the §3.2 profiler walks only the event chain (the latency
    path), these walks follow {e every} causal edge — preconditions
    included — across nodes, reconstructing the full derivation DAG of
    a tuple. On top of it:

    - {!taint}: did any ancestor tuple mention one of the suspect
      addresses (e.g. known oscillators)?
    - {!to_dot}: render the derivation as a Graphviz graph for the
      human in the loop. *)

open Overlog

type vertex = {
  node : string;  (** where the tuple lived *)
  tuple_id : int;  (** its id on that node *)
  contents : Tuple.t option;  (** from the tracer's memo, if still alive *)
}

type edge = {
  rule : string;
  is_event : bool;  (** event edge vs precondition edge *)
  cause : vertex;
  effect : vertex;
  crossed_network : bool;
}

type graph = { root : vertex; vertices : vertex list; edges : edge list }

let tracer_of engine addr = P2_runtime.Node.tracer (P2_runtime.Engine.node engine addr)

(* Both walk steps are index probes: O(matches) per step, and rows
   come back in insertion order, so edges are listed in the order the
   tracer recorded them. *)

(* The ruleExec rows whose effect (position 4) is tuple [id]. *)
let producing_rule_execs engine addr id =
  Store.Table.probe
    (Dataflow.Tracer.rule_exec_table (tracer_of engine addr))
    ~now:(P2_runtime.Engine.now engine) ~positions:[ 4 ] ~values:[ Value.VInt id ]

(* Where did tuple [id] at [addr] come from? Returns (src addr, src id)
   when it crossed the network. tupleTable is keyed on the id
   (position 2), so there is at most one row. *)
let provenance engine addr id =
  Store.Table.probe
    (Dataflow.Tracer.tuple_table (tracer_of engine addr))
    ~now:(P2_runtime.Engine.now engine) ~positions:[ 2 ] ~values:[ Value.VInt id ]
  |> List.find_map (fun row ->
         let src = Value.as_addr (Tuple.field row 3) in
         let src_id = Value.as_int (Tuple.field row 4) in
         if src <> addr || src_id <> id then Some (src, src_id) else None)

let vertex engine node tuple_id =
  { node; tuple_id; contents = Dataflow.Tracer.resolve (tracer_of engine node) tuple_id }

(** Walk the derivation DAG of tuple [tuple_id] at [addr] backwards
    through ruleExec/tupleTable, across nodes, up to [max_depth]
    causal steps. *)
let walk ?(max_depth = 64) engine ~addr ~tuple_id =
  let vertices = ref [] in
  let edges = ref [] in
  let seen = Hashtbl.create 32 in
  let rec go depth node id =
    if depth < max_depth && not (Hashtbl.mem seen (node, id)) then begin
      Hashtbl.replace seen (node, id) ();
      let v = vertex engine node id in
      vertices := v :: !vertices;
      (* follow network provenance: the same tuple under its id at the
         sender *)
      (match provenance engine node id with
      | Some (src, src_id) when src <> node ->
          (* go() adds the source vertex when it visits it *)
          let u = vertex engine src src_id in
          edges :=
            {
              rule = "<network>";
              is_event = true;
              cause = u;
              effect = v;
              crossed_network = true;
            }
            :: !edges;
          go (depth + 1) src src_id
      | _ ->
          (* locally derived: find the rule executions that produced it *)
          List.iter
            (fun row ->
              let rule = Value.as_string (Tuple.field row 2) in
              let cause_id = Value.as_int (Tuple.field row 3) in
              let is_event = Value.as_bool (Tuple.field row 7) in
              let u = vertex engine node cause_id in
              edges :=
                { rule; is_event; cause = u; effect = v; crossed_network = false }
                :: !edges;
              go (depth + 1) node cause_id)
            (producing_rule_execs engine node id))
    end
  in
  go 0 addr tuple_id;
  { root = vertex engine addr tuple_id; vertices = List.rev !vertices;
    edges = List.rev !edges }

(** Does any value of any ancestor tuple mention one of the suspect
    addresses? Returns the offending vertices (the §3.4 "was this
    lookup dependent on a routing oscillator?" question). *)
let taint graph ~suspects =
  let mentions tuple =
    List.exists
      (fun v ->
        match v with
        | Value.VAddr a | Value.VStr a -> List.mem a suspects
        | _ -> false)
      (Tuple.fields tuple)
  in
  List.filter
    (fun v -> match v.contents with Some t -> mentions t | None -> false)
    graph.vertices

(** Render the derivation DAG as Graphviz dot. *)
let to_dot graph =
  let buf = Buffer.create 1024 in
  let vid v = Fmt.str "\"%s/%d\"" v.node v.tuple_id in
  Buffer.add_string buf "digraph derivation {\n  rankdir=BT;\n";
  List.iter
    (fun v ->
      let label =
        match v.contents with
        | Some t -> String.escaped (Tuple.to_string t)
        | None -> Fmt.str "%s/%d (expired)" v.node v.tuple_id
      in
      Buffer.add_string buf
        (Fmt.str "  %s [label=\"%s\\n@%s\"];\n" (vid v) label v.node))
    graph.vertices;
  List.iter
    (fun e ->
      let style =
        if e.crossed_network then "style=bold,color=blue"
        else if e.is_event then "color=black"
        else "style=dashed,color=gray"
      in
      Buffer.add_string buf
        (Fmt.str "  %s -> %s [label=\"%s\",%s];\n" (vid e.cause) (vid e.effect)
           (String.escaped e.rule) style))
    graph.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_summary ppf graph =
  Fmt.pf ppf "derivation of %s/%d: %d tuples, %d causal edges (%d cross-network)"
    graph.root.node graph.root.tuple_id
    (List.length graph.vertices) (List.length graph.edges)
    (List.length (List.filter (fun e -> e.crossed_network) graph.edges))
