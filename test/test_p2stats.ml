(* Integration tests for metric reflection (P2stats), the pure-OverLog
   watchdog, the JSON dump hooks, and the OPERATIONS.md contract: every
   registered metric name and every reflection table is documented,
   and every OverLog block in the manual passes the semantic analyzer. *)

open Overlog

module Engine = P2_runtime.Engine
module Node = P2_runtime.Node
module P2stats = P2_runtime.P2stats

let table_tuples engine addr name =
  let node = Engine.node engine addr in
  match Store.Catalog.find (Node.catalog node) name with
  | Some t -> Store.Table.tuples t ~now:(Engine.now engine)
  | None -> []

(* A settled 4-node Chord ring with reflection attached. *)
let chord_with_stats ?(period = 2.) ?(seconds = 40.) () =
  let engine = Engine.create ~seed:1 () in
  let net = Chord.boot engine 4 in
  P2stats.attach ~period engine;
  Engine.run_for engine seconds;
  (engine, net)

(* --- reflection --- *)

let stat_value engine addr name =
  table_tuples engine addr "p2Stats"
  |> List.find_map (fun t ->
         match (Tuple.field t 2, Tuple.field t 3) with
         | Value.VStr n, Value.VFloat v when n = name -> Some v
         | _ -> None)

let test_p2stats_rows_appear () =
  let engine, _ = chord_with_stats () in
  let rows = table_tuples engine "n0" "p2Stats" in
  Alcotest.(check bool) "p2Stats has rows" true (rows <> []);
  (* one row per registry metric *)
  let names = Metrics.names (Node.registry (Engine.node engine "n0")) in
  Alcotest.(check int) "one row per metric" (List.length names) (List.length rows);
  let v name =
    match stat_value engine "n0" name with
    | Some v -> v
    | None -> Alcotest.failf "no p2Stats row for %s" name
  in
  Alcotest.(check bool) "strand executions reflected non-zero" true
    (v "machine.agenda.executed" > 0.);
  Alcotest.(check bool) "table inserts reflected non-zero" true
    (v "store.inserts" > 0.);
  Alcotest.(check bool) "messages reflected non-zero" true (v "net.msgs_tx" > 0.)

let test_p2tablestats_and_netstats () =
  let engine, _ = chord_with_stats () in
  let tables =
    table_tuples engine "n0" "p2TableStats"
    |> List.map (fun t ->
           match Tuple.field t 2 with Value.VStr n -> n | _ -> "?")
  in
  Alcotest.(check bool) "per-table rows exist" true (List.mem "succ" tables);
  Alcotest.(check bool) "reflection tables not self-reported" false
    (List.mem "p2Stats" tables);
  let peers = table_tuples engine "n0" "p2NetStats" in
  Alcotest.(check bool) "per-peer rows exist" true (peers <> []);
  List.iter
    (fun t ->
      match Tuple.field t 3 with
      | Value.VInt tx -> Alcotest.(check bool) "tx_msgs >= 0" true (tx >= 0)
      | v -> Alcotest.failf "tx_msgs not an int: %a" Value.pp v)
    peers

(* Installed rules are reflected into p2Rule, where an OverLog rule
   can find them by id and text. A rule that did not change only
   refreshes its row, so the delta rule over p2Rule fires once. *)
let test_p2rule_rows () =
  let engine = Engine.create ~seed:1 () in
  ignore (Engine.add_node engine "a");
  Engine.install engine "a" (P2stats.schema ~period:1. ());
  P2stats.attach ~period:1. engine;
  Engine.install engine "a"
    {|rx out@N(X) :- ev@N(X).
q ruleSeen@N(R, T) :- p2Rule@N(R, T), R == "rx".|};
  let seen = ref [] in
  Engine.watch engine "a" "ruleSeen" (fun t -> seen := t :: !seen);
  Engine.run_for engine 5.;
  let text = List.assoc "rx" (Node.rules (Engine.node engine "a")) in
  let row = [ Value.VAddr "a"; Value.VStr "rx"; Value.VStr text ] in
  Alcotest.(check bool) "p2Rule row for rx" true
    (List.exists (fun t -> Tuple.fields t = row) (table_tuples engine "a" "p2Rule"));
  match !seen with
  | [ t ] ->
      Alcotest.(check bool) "queried by id, carries the text" true (Tuple.fields t = row)
  | l -> Alcotest.failf "expected one ruleSeen, got %d" (List.length l)

(* An unchanged reflection row is refreshed in place: the insert
   charge and lifetime touch a delivery would give it, but no tuple,
   no drain. A changed row, or a row of a watched name, is minted and
   delivered. *)
let test_unchanged_rows_refresh_in_place () =
  let engine = Engine.create ~seed:1 () in
  let node = Engine.add_node engine "a" in
  Engine.install engine "a" (P2stats.schema ~period:1. ());
  let metric name =
    Option.value ~default:nan (Metrics.value (Node.registry node) name)
  in
  let text () =
    List.map
      (fun t -> Value.to_string (Tuple.field t 3))
      (table_tuples engine "a" "p2Rule")
  in
  let reflect v = Node.reflect node "p2Rule" [ Value.VStr "r"; Value.VStr v ] in
  reflect "one";
  let created = metric "node.tuples_created" and drains = metric "machine.drains" in
  let work = metric "node.work_units" in
  Engine.run_until engine 2.;
  reflect "one";
  Alcotest.(check (float 0.)) "unchanged: no tuple minted" created
    (metric "node.tuples_created");
  Alcotest.(check (float 0.)) "unchanged: no drain" drains (metric "machine.drains");
  Alcotest.(check (float 0.)) "unchanged: charged one table insert"
    (work +. Dataflow.Cost.table_insert) (metric "node.work_units");
  (* the refresh at t=2 extends the 3 s lifetime past t=3 *)
  Engine.run_until engine 4.;
  Alcotest.(check (list string)) "row refreshed, still live" [ "\"one\"" ] (text ());
  reflect "two";
  Alcotest.(check (float 0.)) "changed: minted" (created +. 1.)
    (metric "node.tuples_created");
  Alcotest.(check (list string)) "changed row stored" [ "\"two\"" ] (text ());
  let watched = ref 0 in
  Engine.watch engine "a" "p2Rule" (fun _ -> incr watched);
  reflect "two";
  Alcotest.(check int) "watched: delivered" 1 !watched;
  Alcotest.(check (float 0.)) "watched: minted" (created +. 2.)
    (metric "node.tuples_created")

(* Refreshing unchanged reflection rows in place must not move any
   alarm. Every [p2Alarm] as "time node tuple", pinned from the
   implementation that minted and delivered every row, on (a) the
   embedded monitor corpus on a live ring with the watchdog at
   thresholds that fire and (b) a campaign cell with a crash and a
   partition. *)
let alarm_digest alarms =
  let lines =
    List.map
      (fun (a : Core.Alarms.alarm) -> Fmt.str "%h %s %a" a.time a.node Tuple.pp a.tuple)
      (Core.Alarms.alarms alarms)
  in
  (List.length lines, Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_corpus_alarms_pinned () =
  let engine = Engine.create ~seed:3 () in
  ignore (Chord.boot engine 5);
  Engine.run_until engine 90.;
  let alarms =
    Core.Watchdog.install ~period:2. ~agenda_threshold:5. ~sendq_threshold:1.
      ~retx_threshold:0.01 engine
  in
  let installed = Hashtbl.create 8 in
  Hashtbl.add installed Core.Registry.chord ();
  List.iter
    (fun (name, libs, program) ->
      match name with
      | "chord" | "chord-buggy" | "chord-boot-facts" -> ()
      | _ ->
          List.iter
            (fun src ->
              if not (Hashtbl.mem installed src) then begin
                Hashtbl.add installed src ();
                Engine.install_all engine src
              end)
            (libs @ [ program ]))
    Core.Registry.embedded;
  Engine.run_until engine 200.;
  Alcotest.(check (pair int string)) "corpus alarms"
    (9, "8af7bcedbe4283173327f3335e3c7086") (alarm_digest alarms)

let test_campaign_alarms_pinned () =
  let cfg =
    {
      Harness.Campaign.default_config with
      nodes = 6;
      settle = 60.;
      horizon = 60.;
      cooldown = 60.;
    }
  in
  let plan =
    let open Harness.Fault_plan in
    let p = add (empty 60.) ~time:5. (Crash "n3") in
    let p = add p ~time:20. (Partition [ "n4"; "n5" ]) in
    let p = add p ~time:35. (Recover "n3") in
    add p ~time:45. (Heal_partition [ "n4"; "n5" ])
  in
  let alarms = ref None in
  ignore
    (Harness.Campaign.run_plan cfg ~seed:1
       ~after_settle:(fun e -> alarms := Some (Core.Watchdog.install ~period:2. e))
       plan);
  Alcotest.(check (pair int string)) "campaign alarms"
    (214, "c512be06d2fd18c3e96b2c89c5b4546c")
    (alarm_digest (Option.get !alarms))

(* Reflection rows must never leak into the tracer's tupleTable: the
   instrument would otherwise dominate what it measures. *)
let test_reflection_exempt_from_tracer () =
  let engine = Engine.create ~seed:1 ~trace:true () in
  ignore (Chord.boot engine 4);
  P2stats.attach ~period:2. engine;
  Engine.run_for engine 20.;
  let node = Engine.node engine "n0" in
  let tuple_table = Dataflow.Tracer.tuple_table (Node.tracer node) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rows were reflected") true
        (table_tuples engine "n0" name <> []))
    [ "p2Stats"; "p2Rule" ];
  (* tupleTable rows don't carry names, so approximate: a registered
     tuple resolves back to its contents via the tracer memo *)
  Store.Table.iter tuple_table ~now:(Engine.now engine) (fun row ->
      match Tuple.field row 2 with
      | Value.VInt id -> (
          match Dataflow.Tracer.resolve (Node.tracer node) id with
          | Some t ->
              Alcotest.(check bool)
                (Fmt.str "reflected tuple %s in tupleTable" (Tuple.name t))
                false
                (List.mem (Tuple.name t) Node.reflected_tables)
          | None -> ())
      | _ -> ())

(* --- determinism --- *)

let test_json_deterministic_and_nonzero () =
  let dump () =
    let engine, _ = chord_with_stats () in
    P2stats.to_json engine
  in
  let j1 = dump () and j2 = dump () in
  Alcotest.(check string) "same seed, same dump" j1 j2;
  let contains sub =
    let n = String.length j1 and m = String.length sub in
    let rec go i = i + m <= n && (String.sub j1 i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has executed counter" true
    (contains "\"machine.agenda.executed\"");
  Alcotest.(check bool) "has per-table section" true (contains "\"tables\"");
  Alcotest.(check bool) "executed is non-zero" false
    (contains "\"machine.agenda.executed\": 0,")

(* Attaching reflection must not change what the system itself
   computes: the ring converges identically with and without it. *)
let test_reflection_preserves_ring () =
  let ring ~reflect =
    let engine = Engine.create ~seed:5 () in
    let net = Chord.boot engine 4 in
    if reflect then P2stats.attach ~period:1. engine;
    Engine.run_for engine 60.;
    Chord.ring_walk net
  in
  Alcotest.(check (list string))
    "identical ring with and without reflection" (ring ~reflect:false)
    (ring ~reflect:true)

(* --- watchdog --- *)

let test_watchdog_fires_under_agenda_load () =
  let engine = Engine.create ~seed:1 () in
  ignore (Chord.boot engine 4);
  (* Chord's agenda high-water mark exceeds 5 during joins, so a
     threshold of 5 must fire; the send-queue threshold is set out of
     reach so only agenda alarms appear. *)
  let alarms =
    Core.Watchdog.install ~period:2. ~agenda_threshold:5.
      ~sendq_threshold:1e9 engine
  in
  Engine.run_for engine 30.;
  Alcotest.(check bool) "watchdog fired" true (Core.Alarms.count alarms > 0);
  List.iter
    (fun (a : Core.Alarms.alarm) ->
      match (Tuple.field a.tuple 2, Tuple.field a.tuple 3) with
      | Value.VStr kind, Value.VFloat v ->
          Alcotest.(check string) "alarm kind" "agenda-growth" kind;
          Alcotest.(check bool) "alarm carries the offending value" true (v > 5.)
      | _ -> Alcotest.fail "malformed p2Alarm tuple")
    (Core.Alarms.alarms alarms)

let test_watchdog_quiet_in_steady_state () =
  let engine = Engine.create ~seed:1 () in
  ignore (Chord.boot engine 4);
  (* default thresholds are far above a small healthy ring *)
  let alarms = Core.Watchdog.install ~period:2. engine in
  Engine.run_for engine 40.;
  Alcotest.(check int) "no alarms" 0 (Core.Alarms.count alarms)

(* --- campaign hook --- *)

let test_campaign_on_done_hook () =
  let cfg =
    {
      Harness.Campaign.default_config with
      nodes = 4;
      settle = 30.;
      horizon = 10.;
      cooldown = 20.;
    }
  in
  let dump = ref "" in
  let run =
    Harness.Campaign.run_plan cfg ~seed:3
      ~on_done:(fun engine -> dump := P2stats.to_json engine)
      (Harness.Fault_plan.empty 10.)
  in
  Alcotest.(check bool) "baseline run passes" false (Harness.Campaign.failed run);
  Alcotest.(check bool) "hook produced a dump" true (String.length !dump > 2);
  (* the dump must not perturb the verdict: identical run without the
     hook yields identical stats *)
  let run' = Harness.Campaign.run_plan cfg ~seed:3 (Harness.Fault_plan.empty 10.) in
  Alcotest.(check bool) "verdict unchanged by hook" true (run.stats = run'.stats)

(* --- documentation contract --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* cwd is test/ under `dune runtest` (the declared dep) but the
   project root under `dune exec`. *)
let operations_md () =
  let candidates = [ "../docs/OPERATIONS.md"; "docs/OPERATIONS.md" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> read_file path
  | None -> Alcotest.fail "docs/OPERATIONS.md not found"

(* Every metric name a node registers must appear verbatim in the
   operator's manual. *)
let test_operations_documents_every_metric () =
  let doc = operations_md () in
  let contains sub =
    let n = String.length doc and m = String.length sub in
    let rec go i = i + m <= n && (String.sub doc i m = sub || go (i + 1)) in
    go 0
  in
  let engine = Engine.create ~seed:1 () in
  let node = Engine.add_node engine "n0" in
  let undocumented =
    List.filter (fun name -> not (contains ("`" ^ name ^ "`")))
      (Metrics.names (Node.registry node))
  in
  Alcotest.(check (list string)) "every metric documented" [] undocumented

(* Every table of the reflection schema must appear in the manual's
   reflection-table list, [| `name` | `(Col, ...)` | `(keys)` |], with
   its keys and with one column per field of the rows reflection
   writes. *)
let test_operations_documents_every_reflection_table () =
  let listed =
    String.split_on_char '\n' (operations_md ())
    |> List.filter_map (fun line ->
           match List.map String.trim (String.split_on_char '|' line) with
           | [ ""; name; columns; keys; "" ] -> Some (name, (columns, keys))
           | _ -> None)
  in
  let engine, _ = chord_with_stats () in
  let tables =
    List.filter_map
      (function Ast.Materialize m -> Some m | _ -> None)
      (Parser.parse (P2stats.schema ()))
  in
  Alcotest.(check int) "five reflection tables" 5 (List.length tables);
  List.iter
    (fun (m : Ast.materialize) ->
      match List.assoc_opt ("`" ^ m.mname ^ "`") listed with
      | None -> Alcotest.failf "%s missing from the reflection-table list" m.mname
      | Some (columns, keys) -> (
          Alcotest.(check string) (m.mname ^ " keys")
            (Fmt.str "`(%s)`" (String.concat "," (List.map string_of_int m.mkeys)))
            keys;
          let documented = List.length (String.split_on_char ',' columns) in
          match table_tuples engine "n0" m.mname with
          | row :: _ ->
              Alcotest.(check int) (m.mname ^ " columns") (Tuple.arity row) documented
          | [] -> Alcotest.failf "no %s rows reflected" m.mname))
    tables

(* Every fenced OverLog block in the manual must pass the analyzer
   under the reflection-schema environment (mirroring the CI check on
   examples). *)
let test_operations_olg_blocks_analyze () =
  let doc = operations_md () in
  let lines = String.split_on_char '\n' doc in
  let blocks =
    let rec go acc cur in_block = function
      | [] -> List.rev acc
      | line :: rest ->
          if in_block then
            if String.trim line = "```" then
              go (String.concat "\n" (List.rev cur) :: acc) [] false rest
            else go acc (line :: cur) true rest
          else if String.trim line = "```olg" then go acc [] true rest
          else go acc cur false rest
    in
    go [] [] false lines
  in
  Alcotest.(check bool) "manual has OverLog examples" true (List.length blocks >= 1);
  let env =
    Analysis.env_of_program (Parser.parse (P2stats.schema ()))
  in
  List.iteri
    (fun i block ->
      let _, diags = Analysis.check_source ~env block in
      match Analysis.errors diags with
      | [] -> ()
      | errs ->
          Alcotest.failf "OPERATIONS.md block %d: %a" i
            (Fmt.list (fun ppf d -> Analysis.pp_diagnostic ppf d))
            errs)
    blocks

let () =
  Alcotest.run "p2stats"
    [
      ( "reflection",
        [
          Alcotest.test_case "p2Stats rows appear" `Quick test_p2stats_rows_appear;
          Alcotest.test_case "table and net stats" `Quick
            test_p2tablestats_and_netstats;
          Alcotest.test_case "p2Rule" `Quick test_p2rule_rows;
          Alcotest.test_case "exempt from tracer" `Quick
            test_reflection_exempt_from_tracer;
          Alcotest.test_case "unchanged rows refresh in place" `Quick
            test_unchanged_rows_refresh_in_place;
          Alcotest.test_case "corpus alarms match pinned" `Quick
            test_corpus_alarms_pinned;
          Alcotest.test_case "campaign alarms match pinned" `Quick
            test_campaign_alarms_pinned;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "json dump deterministic" `Quick
            test_json_deterministic_and_nonzero;
          Alcotest.test_case "reflection preserves the ring" `Quick
            test_reflection_preserves_ring;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "fires under agenda load" `Quick
            test_watchdog_fires_under_agenda_load;
          Alcotest.test_case "quiet in steady state" `Quick
            test_watchdog_quiet_in_steady_state;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "campaign on_done" `Quick test_campaign_on_done_hook;
        ] );
      ( "documentation",
        [
          Alcotest.test_case "every metric documented" `Quick
            test_operations_documents_every_metric;
          Alcotest.test_case "every reflection table documented" `Quick
            test_operations_documents_every_reflection_table;
          Alcotest.test_case "manual examples analyze" `Quick
            test_operations_olg_blocks_analyze;
        ] );
    ]
