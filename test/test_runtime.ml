(* Node + engine integration: program installation, facts, local and
   remote derivation, deletion rules, periodic rules, watchpoints,
   fault injection, on-line installation, introspection tables. *)

open Overlog

let mk ?(seed = 1) ?(trace = false) () = P2_runtime.Engine.create ~seed ~trace ()

let table_size engine addr name =
  let node = P2_runtime.Engine.node engine addr in
  match Store.Catalog.find (P2_runtime.Node.catalog node) name with
  | Some t -> Store.Table.size t ~now:(P2_runtime.Engine.now engine)
  | None -> 0

let table_tuples engine addr name =
  let node = P2_runtime.Engine.node engine addr in
  match Store.Catalog.find (P2_runtime.Node.catalog node) name with
  | Some t -> Store.Table.tuples t ~now:(P2_runtime.Engine.now engine)
  | None -> []

let test_local_derivation () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    {|
materialize(t, infinity, infinity, keys(1,2)).
r1 t@N(Y) :- ev@N(X), Y := X + 1.
|};
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 41 ];
  P2_runtime.Engine.run_for engine 1.;
  match table_tuples engine "a" "t" with
  | [ t ] -> Alcotest.(check bool) "derived 42" true (Value.equal (Tuple.field t 2) (Value.VInt 42))
  | ts -> Alcotest.failf "expected 1 row, got %d" (List.length ts)

let test_remote_fact_routing () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  ignore (P2_runtime.Engine.add_node engine "b");
  P2_runtime.Engine.install_all engine
    "materialize(t, infinity, infinity, keys(1,2)).";
  (* a fact addressed to b, installed at a, must ship over the network *)
  P2_runtime.Engine.install engine "a" "t@b(7).";
  Alcotest.(check int) "not yet delivered" 0 (table_size engine "b" "t");
  P2_runtime.Engine.run_for engine 1.;
  Alcotest.(check int) "delivered at b" 1 (table_size engine "b" "t");
  Alcotest.(check int) "not at a" 0 (table_size engine "a" "t")

let test_distributed_rule_chain () =
  let engine = mk () in
  List.iter (fun a -> ignore (P2_runtime.Engine.add_node engine a)) [ "a"; "b"; "c" ];
  P2_runtime.Engine.install_all engine
    {|
materialize(got, infinity, infinity, keys(1,2)).
s1 ping@b(X) :- start@a(X).
s2 ping@c(Y) :- ping@b(X), Y := X + 1.
s3 got@N(Y) :- ping@N(Y).
|};
  ignore @@ P2_runtime.Engine.inject engine "a" "start" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  (match table_tuples engine "c" "got" with
  | [ t ] -> Alcotest.(check bool) "chained" true (Value.equal (Tuple.field t 2) (Value.VInt 2))
  | ts -> Alcotest.failf "expected 1 row at c, got %d" (List.length ts))

let test_periodic_rule () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  let count = ref 0 in
  P2_runtime.Engine.watch engine "a" "tick" (fun _ -> incr count);
  P2_runtime.Engine.install engine "a" "p1 tick@N(E) :- periodic@N(E, 2).";
  P2_runtime.Engine.run_for engine 21.;
  (* first firing staggered within one period, then every 2 s: ~10 *)
  Alcotest.(check bool) "fired repeatedly" true (!count >= 8 && !count <= 11)

let test_delete_rule () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    {|
materialize(t, infinity, infinity, keys(1,2)).
d1 delete t@N(X, Y) :- drop@N(X).
|};
  P2_runtime.Engine.install engine "a" "t@a(1, 10). t@a(2, 20). t@a(3, 30).";
  P2_runtime.Engine.run_for engine 0.5;
  Alcotest.(check int) "three rows" 3 (table_size engine "a" "t");
  (* delete with wildcard second field *)
  ignore @@ P2_runtime.Engine.inject engine "a" "drop" [ Value.VInt 2 ];
  P2_runtime.Engine.run_for engine 0.5;
  Alcotest.(check int) "one deleted" 2 (table_size engine "a" "t");
  Alcotest.(check bool) "right one deleted" true
    (List.for_all
       (fun t -> not (Value.equal (Tuple.field t 2) (Value.VInt 2)))
       (table_tuples engine "a" "t"))

let test_online_install () =
  (* the paper's headline: monitoring rules deployed while running *)
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    {|
materialize(t, infinity, infinity, keys(1,2)).
r1 t@N(X) :- ev@N(X).
|};
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 5.;
  let alarms = ref 0 in
  P2_runtime.Engine.watch engine "a" "alarm" (fun _ -> incr alarms);
  (* install a watchpoint rule on-line, then feed another event *)
  P2_runtime.Engine.install engine "a" "w1 alarm@N(X) :- ev@N(X), X > 10.";
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 50 ];
  P2_runtime.Engine.run_for engine 1.;
  Alcotest.(check int) "alarm from online rule" 1 !alarms;
  Alcotest.(check int) "old rule still works" 2 (table_size engine "a" "t")

let test_node_crash_and_recover () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  ignore (P2_runtime.Engine.add_node engine "b");
  P2_runtime.Engine.install_all engine
    {|
materialize(t, infinity, infinity, keys(1,2)).
fw t@b(X) :- ev@a(X).
|};
  P2_runtime.Engine.crash engine "b";
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  Alcotest.(check int) "nothing while crashed" 0 (table_size engine "b" "t");
  P2_runtime.Engine.recover engine "b";
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 2 ];
  (* long enough for the backed-off retransmission of ev(1) to land *)
  P2_runtime.Engine.run_for engine 15.;
  Alcotest.(check int) "both delivered after recovery (retransmit)" 2
    (table_size engine "b" "t")

let test_link_cut () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  ignore (P2_runtime.Engine.add_node engine "b");
  P2_runtime.Engine.install_all engine
    {|
materialize(t, infinity, infinity, keys(1,2)).
fw t@b(X) :- ev@a(X).
|};
  P2_runtime.Engine.cut_link engine ~src:"a" ~dst:"b";
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  Alcotest.(check int) "cut" 0 (table_size engine "b" "t");
  P2_runtime.Engine.heal_link engine ~src:"a" ~dst:"b";
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 2 ];
  (* the transport retransmits ev(1) across the healed link too *)
  P2_runtime.Engine.run_for engine 15.;
  Alcotest.(check int) "both delivered after heal (retransmit)" 2
    (table_size engine "b" "t")

let test_watch_collect () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a" "r1 out@N(X) :- ev@N(X).";
  let get = P2_runtime.Engine.collect engine "a" "out" in
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 2 ];
  P2_runtime.Engine.run_for engine 1.;
  Alcotest.(check int) "collected both" 2 (List.length (get ()))

let test_tracing_tables_queryable () =
  (* ruleExec is itself queryable from OverLog (the paper's
     introspection claim) *)
  let engine = mk ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a"
    {|
materialize(seen, infinity, infinity, keys(1,2,3)).
r1 out@N(X) :- ev@N(X).
q1 seen@N(Rule, Effect) :- probe@N(), ruleExec@N(Rule, Cause, Effect, T1, T2, IsEvt), IsEvt == true.
|};
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  ignore @@ P2_runtime.Engine.inject engine "a" "probe" [];
  P2_runtime.Engine.run_for engine 1.;
  Alcotest.(check bool) "ruleExec rows visible from OverLog" true
    (table_size engine "a" "seen" >= 1);
  let rows = table_tuples engine "a" "seen" in
  Alcotest.(check bool) "r1 among recorded rules" true
    (List.exists (fun t -> Value.equal (Tuple.field t 2) (Value.VStr "r1")) rows)

let test_tracing_disabled_no_rows () =
  let engine = mk ~trace:false () in
  ignore (P2_runtime.Engine.add_node engine "a");
  P2_runtime.Engine.install engine "a" "r1 out@N(X) :- ev@N(X).";
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 1.;
  let node = P2_runtime.Engine.node engine "a" in
  Alcotest.(check int) "no ruleExec rows" 0
    (Store.Table.size
       (Dataflow.Tracer.rule_exec_table (P2_runtime.Node.tracer node))
       ~now:(P2_runtime.Engine.now engine))

let test_dead_events_counted () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  ignore @@ P2_runtime.Engine.inject engine "a" "nobody" [ Value.VInt 1 ];
  P2_runtime.Engine.run_for engine 0.1;
  Alcotest.(check int) "dead event" 1
    (P2_runtime.Node.dead_events (P2_runtime.Engine.node engine "a"))

(* A node resolves each predicate's routing (table, event strands,
   watches) once and caches it; every mutation that changes it must
   reach the next delivery. *)
let test_route_invalidation () =
  let engine = mk () in
  let node = P2_runtime.Engine.add_node engine "a" in
  let send x =
    ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt x ];
    P2_runtime.Engine.run_for engine 0.1
  in
  let values name =
    List.map (fun t -> Tuple.field t 2) (table_tuples engine "a" name)
  in
  let check_values what name expected =
    Alcotest.(check (list string)) what (List.map Value.to_string expected)
      (List.map Value.to_string (values name))
  in
  send 1;
  Alcotest.(check int) "no strand: dead event" 1 (P2_runtime.Node.dead_events node);
  (* a new event-strand name *)
  P2_runtime.Engine.install engine "a"
    "materialize(out, infinity, infinity, keys(1,2)).\nr1 out@N(X) :- ev@N(X).";
  send 2;
  Alcotest.(check int) "strand fired: no new dead event" 1
    (P2_runtime.Node.dead_events node);
  check_values "strand fired" "out" [ Value.VInt 2 ];
  (* a new watch name *)
  let seen = P2_runtime.Engine.collect engine "a" "ev" in
  send 3;
  Alcotest.(check int) "watch called" 1 (List.length (seen ()));
  check_values "strand still fires" "out" [ Value.VInt 2; Value.VInt 3 ];
  (* a new table *)
  P2_runtime.Engine.install engine "a" "materialize(ev, infinity, infinity, keys(1,2)).";
  send 4;
  check_values "landed in the table" "ev" [ Value.VInt 4 ];
  Alcotest.(check int) "watch still called" 2 (List.length (seen ()));
  (* a watch that installs a rule on its own name: the same delivery
     already fires the new strand *)
  let installed = ref false in
  P2_runtime.Engine.watch engine "a" "late" (fun _ ->
      if not !installed then begin
        installed := true;
        P2_runtime.Engine.install engine "a"
          "materialize(out2, infinity, infinity, keys(1,2)).\nr2 out2@N(X) :- late@N(X)."
      end);
  ignore @@ P2_runtime.Engine.inject engine "a" "late" [ Value.VInt 5 ];
  P2_runtime.Engine.run_for engine 0.1;
  check_values "strand installed mid-delivery fired" "out2" [ Value.VInt 5 ]

let test_cross_node_tuple_table () =
  let engine = mk ~trace:true () in
  ignore (P2_runtime.Engine.add_node engine "a");
  ignore (P2_runtime.Engine.add_node engine "b");
  P2_runtime.Engine.install_all engine "fw out@b(X) :- ev@a(X).
r2 sink@N(X) :- out@N(X).";
  ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Value.VInt 5 ];
  P2_runtime.Engine.run_for engine 1.;
  (* b's tupleTable must hold an entry whose source is a *)
  let node = P2_runtime.Engine.node engine "b" in
  let rows =
    Store.Table.tuples
      (Dataflow.Tracer.tuple_table (P2_runtime.Node.tracer node))
      ~now:(P2_runtime.Engine.now engine)
  in
  Alcotest.(check bool) "cross-node entry" true
    (List.exists (fun t -> Value.equal (Tuple.field t 3) (Value.VAddr "a")) rows)

let test_determinism () =
  (* identical seeds give identical traffic counts *)
  let run () =
    let engine = mk ~seed:99 () in
    List.iter (fun a -> ignore (P2_runtime.Engine.add_node engine a)) [ "a"; "b" ];
    P2_runtime.Engine.install_all engine
      {|
materialize(t, 10, 100, keys(1,2)).
p1 t@b(E) :- periodic@a(E, 1).
p2 echo@a(X) :- t@b(X).
|};
    P2_runtime.Engine.run_for engine 30.;
    let s = P2_runtime.Engine.snapshot_node engine "a" in
    (s.messages_tx, s.messages_rx, s.work)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical runs" true (a = b)

(* Node-management calls on unknown addresses raise a consistent
   Invalid_argument naming the operation and the address. *)
let test_unknown_address_raises () =
  let engine = mk () in
  ignore (P2_runtime.Engine.add_node engine "a");
  List.iter
    (fun (op, f) ->
      Alcotest.check_raises
        (Fmt.str "%s rejects an unknown address" op)
        (Invalid_argument (Fmt.str "Engine.%s: unknown node ghost" op))
        (fun () -> f engine "ghost"))
    [
      ("crash", P2_runtime.Engine.crash);
      ("recover", P2_runtime.Engine.recover);
      ("remove_node", P2_runtime.Engine.remove_node);
      ("restart", fun e a -> ignore (P2_runtime.Engine.restart e a));
    ];
  (* the known node is untouched by the failed calls *)
  Alcotest.(check bool) "known node still present" true
    (P2_runtime.Engine.node_opt engine "a" <> None)

(* Every engine runs the round/barrier loop, so a shard count below 1
   names no loop at all. *)
let test_zero_shards_raises () =
  let engine = mk () in
  Alcotest.check_raises "set_shards 0"
    (Invalid_argument "Engine.set_shards: shard count must be >= 1, got 0")
    (fun () -> P2_runtime.Engine.set_shards engine 0);
  Alcotest.(check int) "still one shard" 1 (P2_runtime.Engine.shards engine)

let () =
  Alcotest.run "runtime"
    [
      ( "basics",
        [
          Alcotest.test_case "local derivation" `Quick test_local_derivation;
          Alcotest.test_case "remote facts" `Quick test_remote_fact_routing;
          Alcotest.test_case "distributed chain" `Quick test_distributed_rule_chain;
          Alcotest.test_case "periodic" `Quick test_periodic_rule;
          Alcotest.test_case "delete rule" `Quick test_delete_rule;
          Alcotest.test_case "watch collect" `Quick test_watch_collect;
          Alcotest.test_case "dead events" `Quick test_dead_events_counted;
          Alcotest.test_case "route invalidation" `Quick test_route_invalidation;
        ] );
      ( "online",
        [
          Alcotest.test_case "install while running" `Quick test_online_install;
          Alcotest.test_case "crash/recover" `Quick test_node_crash_and_recover;
          Alcotest.test_case "link cut" `Quick test_link_cut;
          Alcotest.test_case "unknown address raises" `Quick
            test_unknown_address_raises;
          Alcotest.test_case "zero shards raises" `Quick test_zero_shards_raises;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "ruleExec queryable" `Quick test_tracing_tables_queryable;
          Alcotest.test_case "tracing off" `Quick test_tracing_disabled_no_rows;
          Alcotest.test_case "cross-node tupleTable" `Quick test_cross_node_tuple_table;
        ] );
      ("determinism", [ Alcotest.test_case "seeded runs" `Quick test_determinism ]);
    ]
