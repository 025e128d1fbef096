(* §3.4 forensics: backward derivation walks across nodes, taint
   analysis against suspect addresses, and DOT rendering; plus
   differential oracles for the indexed access paths into the tracer's
   tables (walk steps and OverLog joins). *)

open Overlog

let test_local_chain_walk () =
  let engine = P2_runtime.Engine.create ~seed:3 ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    {|
r1 mid@N(X) :- start@N(X).
r2 out@N(Y) :- mid@N(X), Y := X + 1.
|};
  let out_id = ref None in
  P2_runtime.Engine.watch engine "a" "out" (fun t -> out_id := Some (Tuple.id t));
  ignore @@ P2_runtime.Engine.inject engine "a" "start" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  let g =
    Core.Forensics.walk engine ~addr:"a" ~tuple_id:(Option.get !out_id)
  in
  (* out <- mid <- start: three tuples, two rule edges *)
  Alcotest.(check int) "three vertices" 3 (List.length g.vertices);
  Alcotest.(check int) "two edges" 2 (List.length g.edges);
  Alcotest.(check bool) "rules recorded" true
    (List.exists (fun e -> e.Core.Forensics.rule = "r1") g.edges
    && List.exists (fun e -> e.Core.Forensics.rule = "r2") g.edges);
  Alcotest.(check bool) "no network edges" true
    (List.for_all (fun e -> not e.Core.Forensics.crossed_network) g.edges)

let test_cross_node_walk () =
  let engine = P2_runtime.Engine.create ~seed:3 ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  ignore (P2_runtime.Engine.add_node engine "b");
  P2_runtime.Engine.install_all engine
    {|
s1 hop@b(X) :- start@a(X).
s2 out@N(Y) :- hop@N(X), Y := X * 10.
|};
  let out_id = ref None in
  P2_runtime.Engine.watch engine "b" "out" (fun t -> out_id := Some (Tuple.id t));
  ignore @@ P2_runtime.Engine.inject engine "a" "start" [ Value.VInt 4 ];
  P2_runtime.Engine.run_for engine 1.;
  let g = Core.Forensics.walk engine ~addr:"b" ~tuple_id:(Option.get !out_id) in
  Alcotest.(check bool) "has a network edge" true
    (List.exists (fun e -> e.Core.Forensics.crossed_network) g.edges);
  Alcotest.(check bool) "walk reaches node a" true
    (List.exists (fun v -> v.Core.Forensics.node = "a") g.vertices);
  (* the injected start tuple at a is the far ancestor *)
  Alcotest.(check bool) "ancestor contents resolved" true
    (List.exists
       (fun v ->
         match v.Core.Forensics.contents with
         | Some t -> Tuple.name t = "start"
         | None -> false)
       g.vertices)

let test_preconditions_included () =
  (* unlike the ep-profiler, the forensic walk follows precondition
     edges too *)
  let engine = P2_runtime.Engine.create ~seed:3 ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    {|
materialize(cfg, infinity, infinity, keys(1,2)).
r out@N(X, C) :- ev@N(X), cfg@N(C).
|};
  P2_runtime.Engine.install engine "a" "cfg@a(77).";
  P2_runtime.Engine.run_for engine 1.;
  let out_id = ref None in
  P2_runtime.Engine.watch engine "a" "out" (fun t -> out_id := Some (Tuple.id t));
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  let g = Core.Forensics.walk engine ~addr:"a" ~tuple_id:(Option.get !out_id) in
  Alcotest.(check bool) "precondition edge present" true
    (List.exists (fun e -> not e.Core.Forensics.is_event) g.edges);
  Alcotest.(check bool) "cfg tuple among ancestors" true
    (List.exists
       (fun v ->
         match v.Core.Forensics.contents with
         | Some t -> Tuple.name t = "cfg"
         | None -> false)
       g.vertices)

let test_taint () =
  let engine = P2_runtime.Engine.create ~seed:3 ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    {|
materialize(route, infinity, infinity, keys(1,2)).
r out@N(Via) :- ev@N(), route@N(Via).
|};
  P2_runtime.Engine.install engine "a" "route@a(badnode).";
  P2_runtime.Engine.run_for engine 1.;
  let out_id = ref None in
  P2_runtime.Engine.watch engine "a" "out" (fun t -> out_id := Some (Tuple.id t));
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [];
  P2_runtime.Engine.run_for engine 1.;
  let g = Core.Forensics.walk engine ~addr:"a" ~tuple_id:(Option.get !out_id) in
  let tainted = Core.Forensics.taint g ~suspects:[ "badnode" ] in
  Alcotest.(check bool) "tainted ancestors found" true (List.length tainted > 0);
  Alcotest.(check int) "unrelated suspect clean" 0
    (List.length (Core.Forensics.taint g ~suspects:[ "goodnode" ]))

let test_dot_render () =
  let engine = P2_runtime.Engine.create ~seed:3 ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a" "r1 out@N(X) :- start@N(X).";
  let out_id = ref None in
  P2_runtime.Engine.watch engine "a" "out" (fun t -> out_id := Some (Tuple.id t));
  ignore @@ P2_runtime.Engine.inject engine "a" "start" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  let g = Core.Forensics.walk engine ~addr:"a" ~tuple_id:(Option.get !out_id) in
  let dot = Core.Forensics.to_dot g in
  Alcotest.(check bool) "digraph syntax" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph"
    && String.contains dot '}');
  Alcotest.(check bool) "mentions rule r1" true
    (let re = Str.regexp_string "r1" in
     try ignore (Str.search_forward re dot 0); true with Not_found -> false)

let test_depth_bound () =
  (* a long chain is cut off at max_depth without looping *)
  let engine = P2_runtime.Engine.create ~seed:3 ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    "r1 step@N(X2) :- step@N(X), X2 := X - 1, X > 0.\nr2 out@N(X) :- step@N(X), X == 0.";
  let out_id = ref None in
  P2_runtime.Engine.watch engine "a" "out" (fun t -> out_id := Some (Tuple.id t));
  ignore @@ P2_runtime.Engine.inject engine "a" "step" [ Value.VInt 30 ];
  P2_runtime.Engine.run_for engine 1.;
  let g =
    Core.Forensics.walk ~max_depth:10 engine ~addr:"a" ~tuple_id:(Option.get !out_id)
  in
  Alcotest.(check bool) "bounded" true (List.length g.vertices <= 12)

(* --- indexed paths vs scan references --------------------------------- *)

(* Reference walk, the oracle for [Core.Forensics.walk]: every step
   materializes both tracer tables and filters them. *)
module Scan_walk = struct
  open Core.Forensics

  let tracer_of engine addr = P2_runtime.Node.tracer (P2_runtime.Engine.node engine addr)

  let rule_exec_rows engine addr =
    Store.Table.tuples
      (Dataflow.Tracer.rule_exec_table (tracer_of engine addr))
      ~now:(P2_runtime.Engine.now engine)

  let tuple_table_rows engine addr =
    Store.Table.tuples
      (Dataflow.Tracer.tuple_table (tracer_of engine addr))
      ~now:(P2_runtime.Engine.now engine)

  let provenance engine addr id =
    tuple_table_rows engine addr
    |> List.find_map (fun row ->
           if Value.as_int (Tuple.field row 2) = id then
             let src = Value.as_addr (Tuple.field row 3) in
             let src_id = Value.as_int (Tuple.field row 4) in
             if src <> addr || src_id <> id then Some (src, src_id) else None
           else None)

  let vertex engine node tuple_id =
    { node; tuple_id; contents = Dataflow.Tracer.resolve (tracer_of engine node) tuple_id }

  let walk ?(max_depth = 64) engine ~addr ~tuple_id =
    let vertices = ref [] in
    let edges = ref [] in
    let seen = Hashtbl.create 32 in
    let rec go depth node id =
      if depth < max_depth && not (Hashtbl.mem seen (node, id)) then begin
        Hashtbl.replace seen (node, id) ();
        let v = vertex engine node id in
        vertices := v :: !vertices;
        match provenance engine node id with
        | Some (src, src_id) when src <> node ->
            let u = vertex engine src src_id in
            edges :=
              { rule = "<network>"; is_event = true; cause = u; effect = v;
                crossed_network = true }
              :: !edges;
            go (depth + 1) src src_id
        | _ ->
            List.iter
              (fun row ->
                if Value.as_int (Tuple.field row 4) = id then begin
                  let rule = Value.as_string (Tuple.field row 2) in
                  let cause_id = Value.as_int (Tuple.field row 3) in
                  let is_event = Value.as_bool (Tuple.field row 7) in
                  let u = vertex engine node cause_id in
                  edges :=
                    { rule; is_event; cause = u; effect = v; crossed_network = false }
                    :: !edges;
                  go (depth + 1) node cause_id
                end)
              (rule_exec_rows engine node)
      end
    in
    go 0 addr tuple_id;
    { root = vertex engine addr tuple_id; vertices = List.rev !vertices;
      edges = List.rev !edges }
end

(* An OverLog join from ruleExec into tupleTable on a bound variable
   (the cause id C): which remote lookups did this node answer? With
   probing on, both tracer tables are answered by index probes. *)
let remote_cause_rule =
  "fx1 remoteCause@N(C, Eff, Src, SrcID) :- periodic@N(E, 10), \
   ruleExec@N(\"l1\", C, Eff, TC, TO, true), tupleTable@N(C, Src, SrcID, Dst), \
   Src != N."

(* An 8-node traced Chord ring run past the 30 s ruleExec lifetime,
   with 25 client lookups and the join above installed everywhere.
   Returns the engine, the lookup answers (node, tuple id) and every
   derived remoteCause tuple in arrival order. *)
let traced_ring ~use_probe =
  let engine = P2_runtime.Engine.create ~seed:5 ~trace:true () in
  let net = Chord.boot engine 8 in
  P2_runtime.Engine.install_all engine remote_cause_rule;
  List.iter
    (fun addr ->
      Dataflow.Machine.set_use_probe
        (P2_runtime.Node.machine (P2_runtime.Engine.node engine addr))
        use_probe)
    net.addrs;
  let derived = ref [] and answers = ref [] in
  List.iter
    (fun addr ->
      P2_runtime.Engine.watch engine addr "remoteCause" (fun t ->
          derived := (addr ^ ":" ^ Tuple.to_string t) :: !derived);
      P2_runtime.Engine.watch engine addr "lookupResults" (fun t ->
          match Tuple.field t 5 with
          | Value.VInt r when r >= 1_000_000 && r < 1_000_025 ->
              answers := (addr, Tuple.id t) :: !answers
          | _ -> ()))
    net.addrs;
  let st = Random.State.make [| 5 |] in
  let addrs = Array.of_list net.addrs in
  for i = 0 to 24 do
    let addr = addrs.(Random.State.int st (Array.length addrs)) in
    let key = Random.State.full_int st Value.Ring.space in
    P2_runtime.Engine.at engine
      ~time:(40. +. (float_of_int i *. 0.4))
      (fun () -> Chord.lookup net ~addr ~key ~req_id:(1_000_000 + i) ())
  done;
  P2_runtime.Engine.run_until engine 60.;
  (engine, List.rev !answers, List.rev !derived)

let vertex_ids g =
  List.map (fun v -> (v.Core.Forensics.node, v.Core.Forensics.tuple_id)) g.Core.Forensics.vertices

let edge_ids g =
  List.map
    (fun (e : Core.Forensics.edge) ->
      (e.rule, e.is_event, e.crossed_network, e.cause.node, e.cause.tuple_id,
       e.effect.node, e.effect.tuple_id))
    g.Core.Forensics.edges

let test_indexed_paths_match_scan () =
  let engine, answers, derived = traced_ring ~use_probe:true in
  Alcotest.(check bool) "at least 20 answers" true (List.length answers >= 20);
  let edges = ref 0 in
  List.iteri
    (fun i (addr, tuple_id) ->
      (* alternate which walk runs first: either may trigger the
         expiry sweep both then observe *)
      let lib () = Core.Forensics.walk engine ~addr ~tuple_id in
      let scan () = Scan_walk.walk engine ~addr ~tuple_id in
      let g, r =
        if i mod 2 = 0 then
          let g = lib () in
          (g, scan ())
        else
          let r = scan () in
          (lib (), r)
      in
      let what = Fmt.str "answer %d (%s/%d)" i addr tuple_id in
      Alcotest.(check (list (pair string int))) (what ^ " vertices") (vertex_ids r) (vertex_ids g);
      Alcotest.(check bool) (what ^ " edges") true (edge_ids r = edge_ids g);
      Alcotest.(check string) (what ^ " dot") (Core.Forensics.to_dot r) (Core.Forensics.to_dot g);
      edges := !edges + List.length g.edges)
    answers;
  Alcotest.(check bool) "walks have causal edges" true (!edges >= 20);
  (* the join really went through the tracer tables' indexes *)
  Alcotest.(check bool) "tupleTable probed on (N, C)" true
    (List.exists
       (fun addr ->
         let tr = P2_runtime.Node.tracer (P2_runtime.Engine.node engine addr) in
         List.mem [ 1; 2 ] (Store.Table.indexed_positions (Dataflow.Tracer.tuple_table tr)))
       (P2_runtime.Engine.addrs engine));
  let _, _, derived_scan = traced_ring ~use_probe:false in
  Alcotest.(check bool) "the join derived something" true (derived <> []);
  Alcotest.(check (list string)) "probe = scan derivations" derived_scan derived

let () =
  Alcotest.run "forensics"
    [
      ( "walks",
        [
          Alcotest.test_case "local chain" `Quick test_local_chain_walk;
          Alcotest.test_case "cross node" `Quick test_cross_node_walk;
          Alcotest.test_case "preconditions" `Quick test_preconditions_included;
          Alcotest.test_case "depth bound" `Quick test_depth_bound;
          Alcotest.test_case "indexed paths = scan" `Quick
            test_indexed_paths_match_scan;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "taint" `Quick test_taint;
          Alcotest.test_case "dot" `Quick test_dot_render;
        ] );
    ]
