(* Tracer: ruleExec/tupleTable contents, causal links, reference
   counting (whichever way a ruleExec row leaves), the running byte
   totals behind [live_bytes], and the pipelined record machinery of
   paper §2.1.2. *)

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

(* Simulate the §2.1.1 sequential execution of rule "r" with one join
   stage: input 1, precondition 2, output 3. *)
let test_sequential_rows () =
  let tr, _ = mk_tracer () in
  Tracer.on_input tr ~rule:"r" ~join_count:1 ~tuple_id:1;
  Tracer.on_precondition tr ~rule:"r" ~join_count:1 ~stage:0 ~tuple_id:2;
  Tracer.on_output tr ~rule:"r" ~join_count:1 ~tuple_id:3;
  Tracer.on_stage_complete tr ~rule:"r" ~join_count:1 ~stage:0;
  let rows = List.sort compare (rule_exec_rows tr) in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  Alcotest.(check bool) "event row" true (List.mem ("r", 1, 3, true) rows);
  Alcotest.(check bool) "precond row" true (List.mem ("r", 2, 3, false) rows);
  Alcotest.(check int) "record reclaimed" 0 (Tracer.record_count tr "r")

let test_multi_output () =
  (* one input, two matches -> two outputs, both linked to the input *)
  let tr, _ = mk_tracer () in
  Tracer.on_input tr ~rule:"r" ~join_count:1 ~tuple_id:1;
  Tracer.on_precondition tr ~rule:"r" ~join_count:1 ~stage:0 ~tuple_id:2;
  Tracer.on_output tr ~rule:"r" ~join_count:1 ~tuple_id:10;
  Tracer.on_precondition tr ~rule:"r" ~join_count:1 ~stage:0 ~tuple_id:3;
  Tracer.on_output tr ~rule:"r" ~join_count:1 ~tuple_id:11;
  Tracer.on_stage_complete tr ~rule:"r" ~join_count:1 ~stage:0;
  let rows = rule_exec_rows tr in
  Alcotest.(check bool) "out 10 from input" true (List.mem ("r", 1, 10, true) rows);
  Alcotest.(check bool) "out 10 from prec 2" true (List.mem ("r", 2, 10, false) rows);
  Alcotest.(check bool) "out 11 from input" true (List.mem ("r", 1, 11, true) rows);
  Alcotest.(check bool) "out 11 from prec 3" true (List.mem ("r", 3, 11, false) rows)

let test_precondition_flush () =
  (* §2.1.1: observing a precondition in the middle of the strand
     flushes filled-in fields to its right *)
  let tr, _ = mk_tracer () in
  Tracer.on_input tr ~rule:"r" ~join_count:2 ~tuple_id:1;
  Tracer.on_precondition tr ~rule:"r" ~join_count:2 ~stage:0 ~tuple_id:2;
  Tracer.on_precondition tr ~rule:"r" ~join_count:2 ~stage:1 ~tuple_id:3;
  Tracer.on_output tr ~rule:"r" ~join_count:2 ~tuple_id:10;
  (* second match of the first join: stage-1 slot must flush *)
  Tracer.on_precondition tr ~rule:"r" ~join_count:2 ~stage:0 ~tuple_id:4;
  Tracer.on_precondition tr ~rule:"r" ~join_count:2 ~stage:1 ~tuple_id:5;
  Tracer.on_output tr ~rule:"r" ~join_count:2 ~tuple_id:11;
  let rows = rule_exec_rows tr in
  Alcotest.(check bool) "out 11 not linked to stale prec 3" false
    (List.mem ("r", 3, 11, false) rows);
  Alcotest.(check bool) "out 11 linked to prec 4" true
    (List.mem ("r", 4, 11, false) rows);
  Alcotest.(check bool) "out 11 linked to prec 5" true
    (List.mem ("r", 5, 11, false) rows)

(* The Figure 3 scenario: two pipelined executions of a two-join rule.
   The first event finished its prec1 lookups and is working through
   prec2 matches while a second event started on prec1. *)
let test_pipelined_figure3 () =
  let tr, _ = mk_tracer () in
  let rule = "r2" and join_count = 2 in
  (* event A enters, fetches from prec1, completes stage 0 *)
  Tracer.on_input tr ~rule ~join_count ~tuple_id:1;
  Tracer.on_precondition tr ~rule ~join_count ~stage:0 ~tuple_id:11;
  Tracer.on_stage_complete tr ~rule ~join_count ~stage:0;
  (* event B enters and occupies stage 0 *)
  Tracer.on_input tr ~rule ~join_count ~tuple_id:2;
  Tracer.on_precondition tr ~rule ~join_count ~stage:0 ~tuple_id:21;
  Alcotest.(check int) "two records in flight" 2 (Tracer.record_count tr rule);
  (* event A proceeds through stage 1 and emits *)
  Tracer.on_precondition tr ~rule ~join_count ~stage:1 ~tuple_id:12;
  Tracer.on_output tr ~rule ~join_count ~tuple_id:100;
  Tracer.on_stage_complete tr ~rule ~join_count ~stage:1;
  (* event B proceeds *)
  Tracer.on_stage_complete tr ~rule ~join_count ~stage:0;
  Tracer.on_precondition tr ~rule ~join_count ~stage:1 ~tuple_id:22;
  Tracer.on_output tr ~rule ~join_count ~tuple_id:200;
  Tracer.on_stage_complete tr ~rule ~join_count ~stage:1;
  let rows = rule_exec_rows tr in
  (* output 100 belongs to event 1 with preconditions 11, 12 *)
  Alcotest.(check bool) "A event link" true (List.mem (rule, 1, 100, true) rows);
  Alcotest.(check bool) "A prec1 link" true (List.mem (rule, 11, 100, false) rows);
  Alcotest.(check bool) "A prec2 link" true (List.mem (rule, 12, 100, false) rows);
  (* output 200 belongs to event 2 with preconditions 21, 22 *)
  Alcotest.(check bool) "B event link" true (List.mem (rule, 2, 200, true) rows);
  Alcotest.(check bool) "B prec1 link" true (List.mem (rule, 21, 200, false) rows);
  Alcotest.(check bool) "B prec2 link" true (List.mem (rule, 22, 200, false) rows);
  (* no cross-contamination *)
  Alcotest.(check bool) "no B->100" false (List.mem (rule, 2, 100, true) rows);
  Alcotest.(check bool) "no 21->100" false (List.mem (rule, 21, 100, false) rows)

let test_record_cap () =
  let config = { Tracer.default_config with max_records_per_rule = 4 } in
  let tr, _ = mk_tracer ~config () in
  (* many inputs that never complete: the record array must not grow
     beyond the cap *)
  for i = 1 to 20 do
    Tracer.on_input tr ~rule:"r" ~join_count:1 ~tuple_id:i
  done;
  Alcotest.(check bool) "bounded records" true (Tracer.record_count tr "r" <= 4)

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
  Tracer.on_input tr ~rule:"r" ~join_count:0 ~tuple_id:1;
  Tracer.on_output tr ~rule:"r" ~join_count:0 ~tuple_id:2;
  Tracer.on_stage_complete tr ~rule:"r" ~join_count:0 ~stage:0;
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
  Tracer.on_input tr ~rule:"r" ~join_count:0 ~tuple_id:cause;
  Tracer.on_output tr ~rule:"r" ~join_count:0 ~tuple_id:effect;
  Tracer.on_stage_complete tr ~rule:"r" ~join_count:0 ~stage:0

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
    { Tracer.default_config with
      rule_exec_lifetime = 10.; rule_exec_cap = 3; tuple_table_lifetime = infinity }
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
  Tracer.on_input tr ~rule:"r" ~join_count:1 ~tuple_id:1;
  Tracer.on_output tr ~rule:"r" ~join_count:1 ~tuple_id:2;
  Tracer.register_tuple tr (Tuple.make ~id:1 "x" [ Value.VAddr "n" ]) ~src:"n"
    ~src_id:1 ~dst:"n";
  Alcotest.(check int) "no rows" 0 (Store.Table.size (Tracer.rule_exec_table tr) ~now:0.);
  Alcotest.(check int) "no tupleTable" 0
    (Store.Table.size (Tracer.tuple_table tr) ~now:0.)

(* Ground truth property: drive the machine on a random program shape
   and compare the tracer's inferred event rows against the machine's
   provenance oracle. *)
let test_ground_truth_matches () =
  let catalog = Store.Catalog.create () in
  Store.Catalog.add catalog (Store.Table.create ~keys:[] "t");
  let now = ref 0. in
  let tr = Tracer.create ~addr:"n" ~now:(fun () -> !now) ~charge:(fun _ -> ()) () in
  Tracer.enable tr;
  let next_id = ref 1000 in
  let ctx =
    {
      Machine.addr = "n";
      now = (fun () -> !now);
      eval_ctx =
        { Eval.now = (fun () -> !now); rand = (fun () -> 0.5);
          rand_id = (fun () -> 1); local_addr = "n" };
      scan =
        (fun name ->
          match Store.Catalog.find catalog name with
          | Some t -> Store.Table.tuples t ~now:!now
          | None -> []);
      probe =
        (fun name ~positions ~values ->
          match Store.Catalog.find catalog name with
          | Some t -> Store.Table.probe t ~now:!now ~positions ~values
          | None -> []);
      create_tuple =
        (fun ~dst name fields ->
          incr next_id;
          let t = Tuple.make ~id:!next_id name fields in
          Tracer.register_tuple tr t ~src:"n" ~src_id:!next_id ~dst;
          t);
      emit = (fun ~delete:_ _ -> ());
      charge = (fun _ -> ());
      tracer = Some tr;
    }
  in
  let machine = Machine.create ctx in
  Machine.set_record_ground_truth machine true;
  let s =
    match
      Parser.parse "r out@N(X, Y) :- ev@N(X), t@N(Y)."
    with
    | [ Ast.Rule r ] -> (
        match
          Strand.compile ~is_table:(fun n -> n = "t") ~fresh_rule_id:(fun () -> "r") r
        with
        | [ s ] -> s
        | _ -> Alcotest.fail "one strand expected")
    | _ -> Alcotest.fail "parse"
  in
  let table = Store.Catalog.find_exn catalog "t" in
  for i = 1 to 5 do
    incr next_id;
    ignore
      (Store.Table.insert table ~now:!now
         (Tuple.make ~id:!next_id "t" [ Value.VAddr "n"; Value.VInt i ]))
  done;
  (* several sequential triggers *)
  for e = 1 to 4 do
    incr next_id;
    let tuple = Tuple.make ~id:!next_id "ev" [ Value.VAddr "n"; Value.VInt e ] in
    ignore (Machine.trigger machine s tuple);
    Machine.drain machine
  done;
  let truth = Machine.ground_truth machine in
  let inferred =
    Store.Table.tuples (Tracer.rule_exec_table tr) ~now:!now
    |> List.filter_map (fun t ->
           if Value.as_bool (Tuple.field t 7) then
             Some
               ( Value.as_string (Tuple.field t 2),
                 Value.as_int (Tuple.field t 3),
                 Value.as_int (Tuple.field t 4) )
           else None)
  in
  Alcotest.(check int) "same cardinality" (List.length truth) (List.length inferred);
  List.iter
    (fun link ->
      if not (List.mem link inferred) then
        Alcotest.failf "missing inferred link for ground truth")
    truth

let () =
  Alcotest.run "tracer"
    [
      ( "records",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_rows;
          Alcotest.test_case "multi output" `Quick test_multi_output;
          Alcotest.test_case "flush right" `Quick test_precondition_flush;
          Alcotest.test_case "figure 3 pipelined" `Quick test_pipelined_figure3;
          Alcotest.test_case "record cap" `Quick test_record_cap;
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
    ]
