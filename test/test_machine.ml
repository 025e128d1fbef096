(* Strand execution: joins, selections, assignments, aggregates,
   multi-match fan-out. Uses a standalone harness with in-memory
   tables (no network, no node). *)

open Overlog
open Dataflow

type harness = {
  machine : Machine.t;
  catalog : Store.Catalog.t;
  emitted : (bool * Tuple.t) list ref;  (* (delete, tuple), newest first *)
  mutable next_id : int;
}

let make_harness ?(tables = []) () =
  let catalog = Store.Catalog.create () in
  List.iter
    (fun (name, keys) -> Store.Catalog.add catalog (Store.Table.create ~keys name))
    tables;
  let emitted = ref [] in
  let h_ref = ref None in
  let ctx =
    {
      Machine.addr = "n";
      now = (fun () -> 0.);
      eval_ctx =
        {
          Eval.now = (fun () -> 0.);
          rand = (fun () -> 0.5);
          rand_id = (fun () -> 42);
          local_addr = "n";
        };
      scan =
        (fun name ->
          match Store.Catalog.find catalog name with
          | Some t -> Store.Table.tuples t ~now:0.
          | None -> []);
      probe =
        (fun name ~positions ~values ->
          match Store.Catalog.find catalog name with
          | Some t -> Store.Table.probe t ~now:0. ~positions ~values
          | None -> []);
      create_tuple =
        (fun ~dst:_ name fields ->
          let h = Option.get !h_ref in
          h.next_id <- h.next_id + 1;
          Tuple.make ~id:h.next_id name fields);
      emit = (fun ~delete tuple -> emitted := (delete, tuple) :: !emitted);
      charge = (fun _ -> ());
      tracer = None;
    }
  in
  let h = { machine = Machine.create ctx; catalog; emitted; next_id = 100 } in
  h_ref := Some h;
  h

let counter = ref 0

let strands ?(tables = []) h src =
  ignore h;
  let is_table name = List.mem name tables in
  let fresh_rule_id () =
    incr counter;
    Fmt.str "m%d" !counter
  in
  match Parser.parse src with
  | [ Ast.Rule r ] -> Strand.compile ~is_table ~fresh_rule_id r
  | _ -> Alcotest.fail "expected one rule"

let strand ?tables h src =
  match strands ?tables h src with
  | [ s ] -> s
  | _ -> Alcotest.fail "expected one strand"

let put h name fields =
  let t = Store.Catalog.find_exn h.catalog name in
  h.next_id <- h.next_id + 1;
  ignore (Store.Table.insert t ~now:0. (Tuple.make ~id:h.next_id name fields))

let fire h s name fields =
  h.next_id <- h.next_id + 1;
  let tuple = Tuple.make ~id:h.next_id name fields in
  let matched = Machine.trigger h.machine s tuple in
  Machine.drain h.machine;
  matched

let results h = List.rev_map snd !(h.emitted)
let addr a = Value.VAddr a
let vi i = Value.VInt i

let test_simple_event_rule () =
  let h = make_harness () in
  let s = strand h "r out@N(X, Y) :- ev@N(X), Y := X * 2." in
  Alcotest.(check bool) "matched" true (fire h s "ev" [ addr "n"; vi 5 ]);
  match results h with
  | [ t ] ->
      Alcotest.(check string) "name" "out" (Tuple.name t);
      Alcotest.(check bool) "doubled" true (Value.equal (Tuple.field t 3) (vi 10))
  | ts -> Alcotest.failf "expected 1 emission, got %d" (List.length ts)

let test_trigger_mismatch () =
  let h = make_harness () in
  let s = strand h {|r out@N() :- ev@N(X), X == 1.|} in
  (* constant in trigger atom *)
  let s2 = strand h {|r2 out@N() :- ev2@N(1).|} in
  Alcotest.(check bool) "cond filters" true (fire h s "ev" [ addr "n"; vi 2 ]);
  Alcotest.(check int) "no emission" 0 (List.length (results h));
  Alcotest.(check bool) "const arg mismatch" false
    (fire h s2 "ev2" [ addr "n"; vi 2 ]);
  Alcotest.(check bool) "const arg match" true (fire h s2 "ev2" [ addr "n"; vi 1 ])

let test_join_fanout () =
  let h = make_harness ~tables:[ ("t", [ 1; 2 ]) ] () in
  let s = strand ~tables:[ "t" ] h "r out@N(X, Y) :- ev@N(X), t@N(Y)." in
  put h "t" [ addr "n"; vi 1 ];
  put h "t" [ addr "n"; vi 2 ];
  put h "t" [ addr "n"; vi 3 ];
  ignore (fire h s "ev" [ addr "n"; vi 9 ]);
  Alcotest.(check int) "one emission per match" 3 (List.length (results h))

let test_join_unification () =
  let h = make_harness ~tables:[ ("t", [ 1; 2 ]) ] () in
  let s = strand ~tables:[ "t" ] h "r out@N(X) :- ev@N(X), t@N(X)." in
  put h "t" [ addr "n"; vi 1 ];
  put h "t" [ addr "n"; vi 2 ];
  ignore (fire h s "ev" [ addr "n"; vi 2 ]);
  match results h with
  | [ t ] -> Alcotest.(check bool) "joined on X" true (Value.equal (Tuple.field t 2) (vi 2))
  | _ -> Alcotest.fail "expected exactly one join result"

let test_multi_join () =
  let h = make_harness ~tables:[ ("a", []); ("b", []) ] () in
  let s = strand ~tables:[ "a"; "b" ] h "r out@N(X, Y, Z) :- ev@N(X), a@N(X, Y), b@N(Y, Z)." in
  put h "a" [ addr "n"; vi 1; vi 10 ];
  put h "a" [ addr "n"; vi 1; vi 20 ];
  put h "b" [ addr "n"; vi 10; vi 100 ];
  put h "b" [ addr "n"; vi 20; vi 200 ];
  put h "b" [ addr "n"; vi 20; vi 201 ];
  ignore (fire h s "ev" [ addr "n"; vi 1 ]);
  (* (1,10,100), (1,20,200), (1,20,201) *)
  Alcotest.(check int) "three chained results" 3 (List.length (results h));
  let zs =
    List.map (fun t -> Value.as_int (Tuple.field t 4)) (results h) |> List.sort compare
  in
  Alcotest.(check (list int)) "values" [ 100; 200; 201 ] zs

let test_selection_between_joins () =
  let h = make_harness ~tables:[ ("a", []); ("b", []) ] () in
  let s =
    strand ~tables:[ "a"; "b" ] h
      "r out@N(Y, Z) :- ev@N(), a@N(Y), Y > 1, b@N(Y, Z)."
  in
  put h "a" [ addr "n"; vi 1 ];
  put h "a" [ addr "n"; vi 2 ];
  put h "b" [ addr "n"; vi 1; vi 10 ];
  put h "b" [ addr "n"; vi 2; vi 20 ];
  ignore (fire h s "ev" [ addr "n" ]);
  match results h with
  | [ t ] -> Alcotest.(check bool) "only Y=2 passes" true (Value.equal (Tuple.field t 3) (vi 20))
  | ts -> Alcotest.failf "expected 1, got %d" (List.length ts)

let test_remote_head_location () =
  let h = make_harness () in
  let s = strand h "r out@Dest(X) :- ev@N(Dest, X)." in
  ignore (fire h s "ev" [ addr "n"; addr "m"; vi 1 ]);
  match results h with
  | [ t ] -> Alcotest.(check string) "routed to m" "m" (Tuple.location t)
  | _ -> Alcotest.fail "expected 1 emission"

let test_delete_head_with_wildcards () =
  let h = make_harness ~tables:[ ("t", [ 1; 2 ]) ] () in
  let s = strand ~tables:[ "t" ] h "r delete t@N(X, Y) :- ev@N(X)." in
  ignore (fire h s "ev" [ addr "n"; vi 1 ]);
  match !(h.emitted) with
  | [ (true, pat) ] ->
      Alcotest.(check bool) "bound field" true (Value.equal (Tuple.field pat 2) (vi 1));
      Alcotest.(check bool) "wildcard is VNull" true (Tuple.field pat 3 = Value.VNull)
  | _ -> Alcotest.fail "expected 1 delete emission"

let test_negation_blocks () =
  let h = make_harness ~tables:[ ("t", [ 1; 2 ]) ] () in
  let s = strand ~tables:[ "t" ] h "r out@N(X) :- ev@N(X), !t@N(X)." in
  put h "t" [ addr "n"; vi 1 ];
  ignore (fire h s "ev" [ addr "n"; vi 1 ]);
  Alcotest.(check int) "blocked by existing tuple" 0 (List.length (results h));
  ignore (fire h s "ev" [ addr "n"; vi 2 ]);
  Alcotest.(check int) "passes when absent" 1 (List.length (results h))

let test_negation_existential () =
  (* unbound variables in the negated atom are existential: !t@N(_, Y)
     fails if ANY row exists for the bound prefix *)
  let h = make_harness ~tables:[ ("t", []) ] () in
  let s = strand ~tables:[ "t" ] h "r out@N(X) :- ev@N(X), !t@N(X, _)." in
  put h "t" [ addr "n"; vi 1; vi 99 ];
  ignore (fire h s "ev" [ addr "n"; vi 1 ]);
  ignore (fire h s "ev" [ addr "n"; vi 2 ]);
  match results h with
  | [ t ] -> Alcotest.(check bool) "only X=2 passed" true (Value.equal (Tuple.field t 2) (vi 2))
  | ts -> Alcotest.failf "expected 1 result, got %d" (List.length ts)

let test_negation_after_join () =
  (* negation placed after a join filters per match *)
  let h = make_harness ~tables:[ ("a", []); ("bad", []) ] () in
  let s = strand ~tables:[ "a"; "bad" ] h "r out@N(Y) :- ev@N(), a@N(Y), !bad@N(Y)." in
  put h "a" [ addr "n"; vi 1 ];
  put h "a" [ addr "n"; vi 2 ];
  put h "bad" [ addr "n"; vi 1 ];
  ignore (fire h s "ev" [ addr "n" ]);
  match results h with
  | [ t ] -> Alcotest.(check bool) "only clean row" true (Value.equal (Tuple.field t 2) (vi 2))
  | ts -> Alcotest.failf "expected 1 result, got %d" (List.length ts)

(* --- aggregates --- *)

let test_count_aggregate () =
  let h = make_harness ~tables:[ ("t", []) ] () in
  let s = strand ~tables:[ "t" ] h "r c@N(A, count<*>) :- ev@N(), t@N(A, B)." in
  put h "t" [ addr "n"; vi 1; vi 10 ];
  put h "t" [ addr "n"; vi 1; vi 11 ];
  put h "t" [ addr "n"; vi 2; vi 12 ];
  ignore (fire h s "ev" [ addr "n" ]);
  let counts =
    results h
    |> List.map (fun t -> (Value.as_int (Tuple.field t 2), Value.as_int (Tuple.field t 3)))
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "grouped counts" [ (1, 2); (2, 1) ] counts

let test_count_zero_when_group_bound () =
  (* sr8 pattern: count over an empty join with all group vars bound
     by the trigger must emit 0 *)
  let h = make_harness ~tables:[ ("t", []) ] () in
  let s = strand ~tables:[ "t" ] h "r c@N(S, I, count<*>) :- m@N(S, I), t@N(I, X)." in
  ignore (fire h s "m" [ addr "n"; addr "src"; vi 7 ]);
  match results h with
  | [ t ] ->
      Alcotest.(check bool) "zero count" true (Value.equal (Tuple.field t 4) (vi 0))
  | ts -> Alcotest.failf "expected 1 zero-count emission, got %d" (List.length ts)

let test_min_max_aggregates () =
  let h = make_harness ~tables:[ ("t", []) ] () in
  let smin = strand ~tables:[ "t" ] h "r lo@N(min<X>) :- ev@N(), t@N(X)." in
  let smax = strand ~tables:[ "t" ] h "r hi@N(max<X>) :- ev2@N(), t@N(X)." in
  put h "t" [ addr "n"; vi 5 ];
  put h "t" [ addr "n"; vi 2 ];
  put h "t" [ addr "n"; vi 9 ];
  ignore (fire h smin "ev" [ addr "n" ]);
  ignore (fire h smax "ev2" [ addr "n" ]);
  let vals = List.map (fun t -> Value.as_int (Tuple.field t 2)) (results h) in
  Alcotest.(check (list int)) "min then max" [ 2; 9 ] vals

let test_min_over_empty_emits_nothing () =
  let h = make_harness ~tables:[ ("t", []) ] () in
  let s = strand ~tables:[ "t" ] h "r lo@N(min<X>) :- ev@N(), t@N(X)." in
  ignore (fire h s "ev" [ addr "n" ]);
  Alcotest.(check int) "no emission" 0 (List.length (results h))

let test_sum_avg () =
  let h = make_harness ~tables:[ ("t", []) ] () in
  let ssum = strand ~tables:[ "t" ] h "r s@N(sum<X>) :- ev@N(), t@N(X)." in
  let savg = strand ~tables:[ "t" ] h "r a@N(avg<X>) :- ev2@N(), t@N(X)." in
  put h "t" [ addr "n"; vi 1 ];
  put h "t" [ addr "n"; vi 2 ];
  put h "t" [ addr "n"; vi 3 ];
  ignore (fire h ssum "ev" [ addr "n" ]);
  ignore (fire h savg "ev2" [ addr "n" ]);
  match results h with
  | [ s; a ] ->
      Alcotest.(check bool) "sum 6" true (Value.equal (Tuple.field s 2) (vi 6));
      Alcotest.(check (float 1e-9)) "avg 2" 2. (Value.as_float (Tuple.field a 2))
  | _ -> Alcotest.fail "expected 2 emissions"

let test_aggregate_with_assignment () =
  (* bs1 pattern: min over a computed expression *)
  let h = make_harness ~tables:[ ("succ", []); ("node", []) ] () in
  let s =
    strand ~tables:[ "succ"; "node" ] h
      "bs1 d@N(min<D>) :- ev@N(), node@N(NID), succ@N(SID), D := SID - NID - 1."
  in
  put h "node" [ addr "n"; Value.VId 100 ];
  put h "succ" [ addr "n"; Value.VId 150 ];
  put h "succ" [ addr "n"; Value.VId 110 ];
  ignore (fire h s "ev" [ addr "n" ]);
  match results h with
  | [ t ] ->
      Alcotest.(check bool) "min distance 9" true
        (Value.equal (Tuple.field t 2) (Value.VId 9))
  | _ -> Alcotest.fail "expected 1 emission"

let test_probe_matches_scan () =
  (* The indexed probe path and the ablated full-scan path must derive
     the same facts in the same order, joins and negations alike. *)
  let run use_probe =
    let h = make_harness ~tables:[ ("a", []); ("b", []); ("bad", []) ] () in
    Machine.set_use_probe h.machine use_probe;
    let s =
      strand ~tables:[ "a"; "b"; "bad" ] h
        "r out@N(X, Y, Z) :- ev@N(X), a@N(X, Y), b@N(Y, Z), !bad@N(Z)."
    in
    for i = 1 to 3 do
      put h "a" [ addr "n"; vi 1; vi (10 * i) ];
      put h "b" [ addr "n"; vi (10 * i); vi (100 * i) ];
      put h "b" [ addr "n"; vi (10 * i); vi ((100 * i) + 1) ]
    done;
    put h "bad" [ addr "n"; vi 201 ];
    ignore (fire h s "ev" [ addr "n"; vi 1 ]);
    List.map Tuple.to_string (results h)
  in
  let probed = run true and scanned = run false in
  Alcotest.(check int) "five results" 5 (List.length probed);
  Alcotest.(check (list string)) "probe = scan, same order" scanned probed

let test_agenda_explosion_guard () =
  let h = make_harness ~tables:[ ("t", []) ] () in
  let s = strand ~tables:[ "t" ] h "r out@N(X) :- ev@N(), t@N(X)." in
  for i = 1 to 50 do
    put h "t" [ addr "n"; vi i ]
  done;
  h.next_id <- h.next_id + 1;
  let tuple = Tuple.make ~id:h.next_id "ev" [ addr "n" ] in
  ignore (Machine.trigger h.machine s tuple);
  match Machine.drain ~max_items:10 h.machine with
  | exception Machine.Agenda_explosion { addr; last_strand; items } ->
      Alcotest.(check string) "node address in report" "n" addr;
      Alcotest.(check (option string)) "last fired strand" (Some "r") last_strand;
      Alcotest.(check bool) "item budget reported" true (items > 10)
  | () -> Alcotest.fail "expected drain bound to trip"

(* Runtime evaluation errors are tagged with the rule that raised them
   (satellite: forensic context in Eval.Error reports). *)
let test_eval_error_carries_rule () =
  let h = make_harness ~tables:[ ("t", []) ] () in
  let s = strand ~tables:[ "t" ] h "divzero out@N(Y) :- ev@N(X), Y := X / 0." in
  try
    ignore (fire h s "ev" [ addr "n"; vi 6 ]);
    Alcotest.fail "expected Eval.Error"
  with Overlog.Eval.Error msg ->
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Fmt.str "rule id in %S" msg)
      true
      (contains "rule divzero")

let () =
  Alcotest.run "machine"
    [
      ( "execution",
        [
          Alcotest.test_case "simple rule" `Quick test_simple_event_rule;
          Alcotest.test_case "trigger mismatch" `Quick test_trigger_mismatch;
          Alcotest.test_case "join fanout" `Quick test_join_fanout;
          Alcotest.test_case "join unification" `Quick test_join_unification;
          Alcotest.test_case "multi join" `Quick test_multi_join;
          Alcotest.test_case "selection between joins" `Quick test_selection_between_joins;
          Alcotest.test_case "remote head" `Quick test_remote_head_location;
          Alcotest.test_case "delete wildcards" `Quick test_delete_head_with_wildcards;
          Alcotest.test_case "drain guard" `Quick test_agenda_explosion_guard;
          Alcotest.test_case "eval error names rule" `Quick test_eval_error_carries_rule;
          Alcotest.test_case "negation blocks" `Quick test_negation_blocks;
          Alcotest.test_case "negation existential" `Quick test_negation_existential;
          Alcotest.test_case "negation after join" `Quick test_negation_after_join;
          Alcotest.test_case "probe = scan" `Quick test_probe_matches_scan;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "count groups" `Quick test_count_aggregate;
          Alcotest.test_case "count zero" `Quick test_count_zero_when_group_bound;
          Alcotest.test_case "min/max" `Quick test_min_max_aggregates;
          Alcotest.test_case "min empty" `Quick test_min_over_empty_emits_nothing;
          Alcotest.test_case "sum/avg" `Quick test_sum_avg;
          Alcotest.test_case "computed min" `Quick test_aggregate_with_assignment;
        ] );
    ]
