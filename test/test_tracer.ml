(* Tracer: ruleExec rows from the provenance the machine carries (in
   stage order, with their times, pipelined executions of paper §2.1.2
   included), tupleTable contents, reference counting (whichever way a
   ruleExec row leaves), the running byte totals behind [live_bytes],
   and whole traced rings checked row by row against the machine's
   ground truth. *)

open Overlog
open Dataflow

let mk_tracer ?config () =
  let now = ref 0. in
  let tr =
    Tracer.create ?config ~addr:"n" ~now:(fun () -> !now) ~charge:(fun _ -> ()) ()
  in
  Tracer.enable tr;
  (tr, now)

let rule_exec_rows tr =
  Store.Table.tuples (Tracer.rule_exec_table tr) ~now:0.
  |> List.map (fun t ->
         ( Value.as_string (Tuple.field t 2),
           Value.as_int (Tuple.field t 3),
           Value.as_int (Tuple.field t 4),
           Value.as_bool (Tuple.field t 7) ))

let show_link (rule, cause, effect, is_event) =
  Fmt.str "%s %d->%d %s" rule cause effect (if is_event then "event" else "precondition")

(* Every [ruleExec] row with its times, in insertion order. *)
let timed_rows tr =
  Store.Table.tuples (Tracer.rule_exec_table tr) ~now:0.
  |> List.map (fun t ->
         Fmt.str "%s tCause=%g tOut=%g"
           (show_link
              ( Value.as_string (Tuple.field t 2),
                Value.as_int (Tuple.field t 3),
                Value.as_int (Tuple.field t 4),
                Value.as_bool (Tuple.field t 7) ))
           (Value.as_float (Tuple.field t 5))
           (Value.as_float (Tuple.field t 6)))

(* §2.1.1 sequential execution of rule "r" with one join stage: input
   1, precondition 2, output 3. *)
let test_sequential_rows () =
  let tr, now = mk_tracer () in
  now := 3.;
  Tracer.on_output tr ~rule:"r" ~cause:1 ~t_cause:1. ~preconds:[ (2, 2.) ] ~tuple_id:3;
  Alcotest.(check (list string)) "event row, then the precondition row"
    [ "r 1->3 event tCause=1 tOut=3"; "r 2->3 precondition tCause=2 tOut=3" ]
    (timed_rows tr)

let test_multi_output () =
  (* one input, two matches -> two outputs, both linked to the input *)
  let tr, _ = mk_tracer () in
  Tracer.on_output tr ~rule:"r" ~cause:1 ~t_cause:0. ~preconds:[ (2, 0.) ] ~tuple_id:10;
  Tracer.on_output tr ~rule:"r" ~cause:1 ~t_cause:0. ~preconds:[ (3, 0.) ] ~tuple_id:11;
  Alcotest.(check (list string)) "each output cites the input and its own match"
    [ "r 1->10 event"; "r 2->10 precondition"; "r 1->11 event"; "r 3->11 precondition" ]
    (List.map show_link (rule_exec_rows tr))

(* Rows leave in stage order with the times they were given, and the
   flight-recorder sink sees them in the same order. *)
let test_stage_order () =
  let tr, now = mk_tracer () in
  let spilled = ref [] in
  Tracer.set_sink tr
    (Some
       (fun ~stamp ~delete:_ t ->
         spilled := Fmt.str "%d@%g" (Value.as_int (Tuple.field t 3)) stamp :: !spilled));
  now := 9.;
  Tracer.on_output tr ~rule:"r" ~cause:1 ~t_cause:5.
    ~preconds:[ (30, 6.); (20, 7.); (10, 8.) ]
    ~tuple_id:99;
  Alcotest.(check (list string)) "event row, then stages 0, 1, 2"
    [ "r 1->99 event tCause=5 tOut=9"; "r 30->99 precondition tCause=6 tOut=9";
      "r 20->99 precondition tCause=7 tOut=9"; "r 10->99 precondition tCause=8 tOut=9" ]
    (timed_rows tr);
  Alcotest.(check (list string)) "spilled in the same order, stamped tOut"
    [ "1@9"; "30@9"; "20@9"; "10@9" ] (List.rev !spilled)

(* A machine over in-memory tables with this tracer enabled and ground
   truth on. The clock advances 1 µs per work unit charged, as a
   node-local clock does, so each tap's observation time is distinct. *)
type rig = {
  machine : Machine.t;
  tracer : Tracer.t;
  catalog : Store.Catalog.t;
  clock : float ref;
  next_id : int ref;
}

let make_rig tables =
  let catalog = Store.Catalog.create () in
  List.iter (fun name -> Store.Catalog.add catalog (Store.Table.create name)) tables;
  let clock = ref 0. in
  let now () = !clock in
  let charge c = clock := !clock +. (c *. 1e-6) in
  let tracer = Tracer.create ~addr:"n" ~now ~charge () in
  Tracer.enable tracer;
  let next_id = ref 1000 in
  let table name f =
    match Store.Catalog.find catalog name with Some t -> f t | None -> []
  in
  let ctx =
    {
      Machine.addr = "n";
      now;
      eval_ctx =
        { Eval.now; rand = (fun () -> 0.5); rand_id = (fun () -> 1); local_addr = "n" };
      scan = (fun name -> table name (Store.Table.tuples ~now:!clock));
      probe =
        (fun name ~positions ~values ->
          table name (fun t -> Store.Table.probe t ~now:!clock ~positions ~values));
      create_tuple =
        (fun ~dst name fields ->
          incr next_id;
          let t = Tuple.make ~id:!next_id name fields in
          Tracer.register_tuple tracer t ~src:"n" ~src_id:!next_id ~dst;
          t);
      emit = (fun ~delete:_ _ -> ());
      charge;
      tracer = Some tracer;
    }
  in
  let machine = Machine.create ctx in
  Machine.set_record_ground_truth machine true;
  { machine; tracer; catalog; clock; next_id }

let compile rig text =
  match Parser.parse text with
  | [ Ast.Rule r ] -> (
      match
        Strand.compile
          ~is_table:(fun n -> Store.Catalog.find rig.catalog n <> None)
          ~fresh_rule_id:(fun () -> "r") r
      with
      | [ s ] -> s
      | _ -> Alcotest.fail "one strand expected")
  | _ -> Alcotest.fail "parse"

(* A fresh tuple at node n with integer fields. *)
let event rig name fields =
  incr rig.next_id;
  Tuple.make ~id:!(rig.next_id) name
    (Value.VAddr "n" :: List.map (fun i -> Value.VInt i) fields)

(* Insert a row; returns its id. *)
let put rig name fields =
  let row = event rig name fields in
  let table = Store.Catalog.find_exn rig.catalog name in
  ignore (Store.Table.insert table ~now:!(rig.clock) row);
  Tuple.id row

let fire rig s events =
  List.iter (fun ev -> ignore (Machine.trigger rig.machine s ev)) events;
  Machine.drain rig.machine

(* The ids output [out] cites: its event, then its preconditions in
   stage order. *)
let cites rows out =
  let causes is_event =
    List.filter_map
      (fun (_, c, e, ev) -> if e = out && ev = is_event then Some c else None)
      rows
  in
  causes true @ causes false

(* The tracer's rows are exactly the machine's ground truth, both
   ways. *)
let check_against_truth rig what =
  let links l = List.sort_uniq compare (List.map show_link l) in
  Alcotest.(check (list string)) what
    (links (Machine.ground_truth rig.machine))
    (links (rule_exec_rows rig.tracer))

let outputs rows = List.sort_uniq compare (List.map (fun (_, _, e, _) -> e) rows)

(* §2.1.1 flush right: the second match of the first join must not
   keep the first match's stage-1 precondition. Carried provenance
   has no slot to flush: each branch holds only its own path. *)
let test_precondition_flush () =
  let rig = make_rig [ "a"; "b" ] in
  let s = compile rig "r out@N(X, Y, Z) :- ev@N(X), a@N(X, Y), b@N(Y, Z)." in
  let a1 = put rig "a" [ 1; 10 ] in
  let a2 = put rig "a" [ 1; 20 ] in
  let b1 = put rig "b" [ 10; 100 ] in
  let b2 = put rig "b" [ 20; 200 ] in
  let ev = event rig "ev" [ 1 ] in
  fire rig s [ ev ];
  let rows = rule_exec_rows rig.tracer in
  Alcotest.(check (list (list int))) "each output cites its own path"
    [ [ Tuple.id ev; a1; b1 ]; [ Tuple.id ev; a2; b2 ] ]
    (List.map (cites rows) (outputs rows));
  check_against_truth rig "rows = ground truth"

(* The Figure 3 scenario: two executions of a two-join rule in flight
   at once — both triggers queue before either runs, as when one
   drain delivers several tuples. Each output cites its own event and
   the rows its own fields came from, and its taps read the clock in
   order: event, preconditions, output. *)
let test_pipelined_figure3 () =
  let rig = make_rig [ "p1"; "p2" ] in
  let s = compile rig "r out@N(E, Y) :- ev@N(E, X), p1@N(X, Y), p2@N(Y, Z)." in
  let p1 = Hashtbl.create 8 and p2 = Hashtbl.create 8 in
  List.iter
    (fun (x, y) ->
      Hashtbl.replace p1 y (put rig "p1" [ x; y ]);
      Hashtbl.replace p2 y (put rig "p2" [ y; 10 * y ]))
    [ (1, 10); (1, 11); (2, 20); (2, 21) ];
  let a = event rig "ev" [ 1; 1 ] and b = event rig "ev" [ 2; 2 ] in
  fire rig s [ a; b ];
  let rows = rule_exec_rows rig.tracer in
  Alcotest.(check int) "four outputs" 4 (List.length (outputs rows));
  List.iter
    (fun out ->
      let tuple = Option.get (Tracer.resolve rig.tracer out) in
      let field i = Value.as_int (Tuple.field tuple i) in
      let y = field 3 in
      Alcotest.(check (list int)) "own event and preconditions"
        [ Tuple.id (if field 2 = 1 then a else b); Hashtbl.find p1 y; Hashtbl.find p2 y ]
        (cites rows out))
    (outputs rows);
  let times = Hashtbl.create 8 in
  Store.Table.tuples (Tracer.rule_exec_table rig.tracer) ~now:0.
  |> List.iter (fun row ->
         let out = Value.as_int (Tuple.field row 4) in
         let t_cause = Value.as_float (Tuple.field row 5) in
         let t_out = Value.as_float (Tuple.field row 6) in
         Option.iter
           (fun prev ->
             Alcotest.(check bool) "stage after stage" true (prev < t_cause))
           (Hashtbl.find_opt times out);
         Alcotest.(check bool) "observed before the output" true (t_cause < t_out);
         Hashtbl.replace times out t_cause);
  check_against_truth rig "rows = ground truth"

(* An aggregate enumerates its body synchronously and emits per group:
   its output cites the triggering event only. *)
let test_aggregate_event_only () =
  let rig = make_rig [ "t" ] in
  let s = compile rig "r cnt@N(X, count<*>) :- ev@N(X), t@N(Y)." in
  List.iter (fun y -> ignore (put rig "t" [ y ])) [ 1; 2; 3 ];
  let ev = event rig "ev" [ 7 ] in
  fire rig s [ ev ];
  Alcotest.(check (list string)) "one event row"
    [ show_link ("r", Tuple.id ev, !(rig.next_id), true) ]
    (List.map show_link (rule_exec_rows rig.tracer));
  check_against_truth rig "rows = ground truth"

let test_tuple_table_and_refcount () =
  let tr, now = mk_tracer () in
  let tu id = Tuple.make ~id "x" [ Value.VAddr "n"; Value.VInt id ] in
  Tracer.register_tuple tr (tu 1) ~src:"m" ~src_id:9 ~dst:"n";
  Tracer.register_tuple tr (tu 2) ~src:"n" ~src_id:2 ~dst:"n";
  Alcotest.(check int) "two entries" 2
    (Store.Table.size (Tracer.tuple_table tr) ~now:0.);
  (match Tracer.resolve tr 1 with
  | Some t -> Alcotest.(check string) "contents memoized" "x" (Tuple.name t)
  | None -> Alcotest.fail "expected memoized tuple");
  (* link 1 -> 2 in ruleExec, then let the row expire: both refs drop,
     entries are reclaimed *)
  Tracer.on_output tr ~rule:"r" ~cause:1 ~t_cause:0. ~preconds:[] ~tuple_id:2;
  Alcotest.(check int) "one ruleExec row" 1
    (Store.Table.size (Tracer.rule_exec_table tr) ~now:!now);
  now := 1000.;
  (* access triggers expiry of ruleExec (lifetime 60) and the refcount
     subscription reclaims the tupleTable entries *)
  Alcotest.(check int) "ruleExec expired" 0
    (Store.Table.size (Tracer.rule_exec_table tr) ~now:!now);
  Alcotest.(check bool) "contents reclaimed" true (Tracer.resolve tr 1 = None);
  Alcotest.(check bool) "contents reclaimed 2" true (Tracer.resolve tr 2 = None)

(* One finished execution of a join-free rule: an event row
   [cause -> effect]. *)
let link tr ~cause ~effect =
  Tracer.on_output tr ~rule:"r" ~cause ~t_cause:0. ~preconds:[] ~tuple_id:effect

let register tr id =
  Tracer.register_tuple tr
    (Tuple.make ~id "x" [ Value.VAddr "n"; Value.VInt id ])
    ~src:"n" ~src_id:id ~dst:"n"

(* A tuple no ruleExec row cites has no reference count, so its memo
   entry must leave with its tupleTable row; a cited tuple outlives
   its row until its last citing ruleExec row goes. *)
let test_uncited_memo_reclaimed () =
  let config =
    { Tracer.default_config with rule_exec_lifetime = 100.; tuple_table_lifetime = 10. }
  in
  let tr, now = mk_tracer ~config () in
  List.iter (register tr) [ 1; 2; 3 ];
  link tr ~cause:1 ~effect:2;
  now := 20.;
  Alcotest.(check int) "tupleTable rows expired" 0
    (Store.Table.size (Tracer.tuple_table tr) ~now:!now);
  Alcotest.(check bool) "uncited tuple reclaimed" true (Tracer.resolve tr 3 = None);
  Alcotest.(check bool) "cited cause kept" true (Tracer.resolve tr 1 <> None);
  Alcotest.(check bool) "cited effect kept" true (Tracer.resolve tr 2 <> None);
  now := 200.;
  Alcotest.(check int) "ruleExec expired" 0
    (Store.Table.size (Tracer.rule_exec_table tr) ~now:!now);
  Alcotest.(check bool) "cited tuples go with their last row" true
    (Tracer.resolve tr 1 = None && Tracer.resolve tr 2 = None);
  Alcotest.(check int) "nothing left" 0 (Tracer.live_bytes tr ~now:!now)

(* Exactly the ids in [alive] keep their tupleTable row and memo entry. *)
let check_alive tr ~now ~ids alive what =
  List.iter
    (fun id ->
      let row =
        Store.Table.probe (Tracer.tuple_table tr) ~now ~positions:[ 2 ]
          ~values:[ Value.VInt id ]
      in
      let expect = List.mem id alive in
      Alcotest.(check bool) (Fmt.str "%s: tupleTable row %d" what id) expect (row <> []);
      Alcotest.(check bool)
        (Fmt.str "%s: resolve %d" what id)
        expect
        (Tracer.resolve tr id <> None))
    ids

(* A ruleExec row can leave by deletion, by expiry or by eviction at
   the cap; in each case a tupleTable row goes exactly when its last
   reference does, and every other id stays. *)
let test_reclaim_every_exit () =
  let config =
    { Tracer.rule_exec_lifetime = 10.;
      rule_exec_cap = 3;
      tuple_table_lifetime = infinity }
  in
  let tr, now = mk_tracer ~config () in
  let ids = List.init 8 (fun i -> i + 1) in
  List.iter (register tr) ids;
  let rule_exec = Tracer.rule_exec_table tr in
  link tr ~cause:1 ~effect:2;
  now := 1.;
  link tr ~cause:1 ~effect:3;
  check_alive tr ~now:!now ~ids ids "linked";
  (* delete 1 -> 2: id 2 loses its only reference, id 1 keeps one *)
  let row_1_2 =
    List.find
      (fun row -> Value.as_int (Tuple.field row 4) = 2)
      (Store.Table.tuples rule_exec ~now:!now)
  in
  Alcotest.(check bool) "deleted" true (Store.Table.delete rule_exec ~now:!now row_1_2);
  check_alive tr ~now:!now ~ids [ 1; 3; 4; 5; 6; 7; 8 ] "after delete";
  (* expiry of 1 -> 3 (stamped t=1, lifetime 10) *)
  now := 5.;
  link tr ~cause:4 ~effect:5;
  now := 11.5;
  Alcotest.(check int) "one row left" 1 (Store.Table.size rule_exec ~now:!now);
  check_alive tr ~now:!now ~ids [ 4; 5; 6; 7; 8 ] "after expiry";
  (* eviction: the cap is 3, so a fourth row evicts 4 -> 5 *)
  now := 12.;
  link tr ~cause:6 ~effect:7;
  link tr ~cause:6 ~effect:8;
  check_alive tr ~now:!now ~ids [ 4; 5; 6; 7; 8 ] "at the cap";
  now := 13.;
  link tr ~cause:7 ~effect:8;
  Alcotest.(check int) "cap holds" 3 (Store.Table.size rule_exec ~now:!now);
  check_alive tr ~now:!now ~ids [ 6; 7; 8 ] "after eviction"

(* [live_bytes] keeps running totals; recount everything from scratch
   (both tables, plus the memo entries of every id ever seen). The
   comparison runs on settled tables: [live_bytes] reads the memo
   before its own expiry sweep can reclaim entries. *)
let test_live_bytes_running_total () =
  let config = { Tracer.default_config with rule_exec_cap = 4 } in
  let tr, now = mk_tracer ~config () in
  let ids = List.init 12 (fun i -> i + 1) in
  let recount () =
    let table t =
      List.fold_left
        (fun acc tu -> acc + Tuple.size_bytes tu)
        0
        (Store.Table.tuples t ~now:!now)
    in
    table (Tracer.rule_exec_table tr)
    + table (Tracer.tuple_table tr)
    + List.fold_left
        (fun acc id ->
          match Tracer.resolve tr id with
          | Some tu -> acc + Tuple.size_bytes tu
          | None -> acc)
        0 ids
  in
  let check what =
    Store.Table.expire (Tracer.rule_exec_table tr) ~now:!now;
    Store.Table.expire (Tracer.tuple_table tr) ~now:!now;
    Alcotest.(check int) what (recount ()) (Tracer.live_bytes tr ~now:!now)
  in
  List.iter (register tr) [ 1; 2; 3; 4; 5; 6 ];
  check "registered";
  (* re-registering an id replaces its memo entry *)
  Tracer.register_tuple tr
    (Tuple.make ~id:3 "longer" [ Value.VAddr "n"; Value.VStr "more bytes" ])
    ~src:"n" ~src_id:3 ~dst:"n";
  check "re-registered";
  link tr ~cause:1 ~effect:2;
  link tr ~cause:2 ~effect:3;
  link tr ~cause:3 ~effect:4;
  check "emitted";
  now := 1.;
  link tr ~cause:4 ~effect:5;
  link tr ~cause:5 ~effect:6;
  check "evicted and reclaimed";
  (* replay path: contents, tupleTable rows and ruleExec rows *)
  Tracer.restore tr (Tuple.make ~id:9 "y" [ Value.VAddr "n"; Value.VInt 9 ]);
  Tracer.restore tr (Tuple.make ~id:10 "y" [ Value.VAddr "n"; Value.VInt 10 ]);
  Tracer.restore tr
    (Tuple.make "tupleTable"
       [ Value.VAddr "n"; Value.VInt 9; Value.VAddr "m"; Value.VInt 90; Value.VAddr "n" ]);
  Tracer.restore tr
    (Tuple.make "ruleExec"
       [ Value.VAddr "n"; Value.VStr "q"; Value.VInt 9; Value.VInt 10;
         Value.VFloat 1.; Value.VFloat 1.; Value.VBool true ]);
  Tracer.restore tr (Tuple.make ~id:10 "y" [ Value.VAddr "n"; Value.VStr "replaced" ]);
  check "restored";
  now := 1000.;
  check "expired";
  Alcotest.(check int) "nothing live" 0 (Tracer.live_bytes tr ~now:!now)

let test_disabled_tracer_is_free () =
  let tr, _ = mk_tracer () in
  Tracer.disable tr;
  Tracer.tap tr;
  Tracer.on_output tr ~rule:"r" ~cause:1 ~t_cause:0. ~preconds:[ (3, 0.) ] ~tuple_id:2;
  Tracer.register_tuple tr (Tuple.make ~id:1 "x" [ Value.VAddr "n" ]) ~src:"n"
    ~src_id:1 ~dst:"n";
  Alcotest.(check int) "no rows" 0 (Store.Table.size (Tracer.rule_exec_table tr) ~now:0.);
  Alcotest.(check int) "no tupleTable" 0
    (Store.Table.size (Tracer.tuple_table tr) ~now:0.);
  Alcotest.(check int) "no taps" 0 (Metrics.Counter.value (Tracer.stats tr).taps)

(* The machine's ground truth on a two-table program, several
   triggers queued per drain: every row is a link the machine made and
   every link it made is a row. *)
let test_ground_truth_matches () =
  let rig = make_rig [ "t"; "u" ] in
  let s = compile rig "r out@N(X, Y, Z) :- ev@N(X), t@N(Y), u@N(Y, Z), Z != X." in
  for i = 1 to 5 do
    ignore (put rig "t" [ i ]);
    ignore (put rig "u" [ i; i mod 3 ]);
    ignore (put rig "u" [ i; i mod 2 ])
  done;
  for round = 0 to 2 do
    fire rig s (List.init (round + 1) (fun e -> event rig "ev" [ e ]))
  done;
  Alcotest.(check bool) "preconditions recorded" true
    (List.exists (fun (_, _, _, ev) -> not ev) (Machine.ground_truth rig.machine));
  check_against_truth rig "rows = ground truth"

(* --- ruleExec against ground truth on whole rings --- *)

(* Run a traced ring in steps, recording every node's ground truth;
   after each step, each node's ruleExec rows written since the last
   step (tOut past that step's node-local time) must be exactly the
   links its machine made in the step, events and preconditions both.
   A step is short beside the ruleExec lifetime and cap, so no row
   leaves before it is checked. *)
let check_ring_against_truth ~(net : Chord.network) ~duration ~step =
  let engine = net.engine in
  let nodes = List.map (P2_runtime.Engine.node engine) net.addrs in
  let machine = P2_runtime.Node.machine in
  List.iter (fun node -> Machine.set_record_ground_truth (machine node) true) nodes;
  let since = Hashtbl.create 64 in
  let mark () =
    List.iter
      (fun node ->
        let addr = P2_runtime.Node.addr node in
        Hashtbl.replace since addr (P2_runtime.Node.local_time node);
        Machine.clear_ground_truth (machine node))
      nodes
  in
  mark ();
  let preconds = ref 0 in
  while P2_runtime.Engine.now engine < duration do
    P2_runtime.Engine.run_for engine step;
    List.iter
      (fun node ->
        let addr = P2_runtime.Node.addr node in
        let t0 = Hashtbl.find since addr in
        let rows =
          Store.Table.tuples
            (Tracer.rule_exec_table (P2_runtime.Node.tracer node))
            ~now:(P2_runtime.Node.local_time node)
          |> List.filter_map (fun t ->
                 if Value.as_float (Tuple.field t 6) > t0 then
                   Some
                     ( Value.as_string (Tuple.field t 2),
                       Value.as_int (Tuple.field t 3),
                       Value.as_int (Tuple.field t 4),
                       Value.as_bool (Tuple.field t 7) )
                 else None)
          |> List.sort_uniq compare
        in
        let truth = List.sort_uniq compare (Machine.ground_truth (machine node)) in
        let absent a b = List.filter (fun l -> not (List.mem l b)) a in
        let missing = absent truth rows and wrong = absent rows truth in
        if missing <> [] || wrong <> [] then
          Alcotest.failf "%s by t=%g: %d link(s) missing (%s); %d row(s) wrong (%s)" addr
            (P2_runtime.Engine.now engine) (List.length missing)
            (String.concat ", " (List.map show_link missing))
            (List.length wrong)
            (String.concat ", " (List.map show_link wrong));
        List.iter (fun (_, _, _, ev) -> if not ev then incr preconds) rows)
      nodes;
    mark ()
  done;
  Alcotest.(check bool) "precondition rows checked" true (!preconds > 0)

let test_ring64_rows_match_truth () =
  let engine = P2_runtime.Engine.create ~seed:1 ~trace:true () in
  let net = Chord.boot engine 64 in
  check_ring_against_truth ~net ~duration:100. ~step:5.

let test_consistency_rows_match_truth () =
  let engine = P2_runtime.Engine.create ~seed:1 ~trace:true () in
  let net = Chord.boot engine 21 in
  ignore (Core.Consistency.install ~addrs:[ net.landmark ] net);
  check_ring_against_truth ~net ~duration:120. ~step:5.

let () =
  Alcotest.run "tracer"
    [
      ( "records",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_rows;
          Alcotest.test_case "multi output" `Quick test_multi_output;
          Alcotest.test_case "flush right" `Quick test_precondition_flush;
          Alcotest.test_case "figure 3 pipelined" `Quick test_pipelined_figure3;
          Alcotest.test_case "stage order and times" `Quick test_stage_order;
          Alcotest.test_case "aggregate: event row only" `Quick test_aggregate_event_only;
        ] );
      ( "tables",
        [
          Alcotest.test_case "tupleTable + refcount" `Quick test_tuple_table_and_refcount;
          Alcotest.test_case "reclaim on every exit" `Quick test_reclaim_every_exit;
          Alcotest.test_case "uncited memo entry leaves with its row" `Quick
            test_uncited_memo_reclaimed;
          Alcotest.test_case "live bytes running total" `Quick
            test_live_bytes_running_total;
          Alcotest.test_case "disabled is free" `Quick test_disabled_tracer_is_free;
          Alcotest.test_case "ground truth" `Quick test_ground_truth_matches;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "64-node ring" `Slow test_ring64_rows_match_truth;
          Alcotest.test_case "21-node ring, consistency probe" `Slow
            test_consistency_rows_match_truth;
        ] );
    ]
