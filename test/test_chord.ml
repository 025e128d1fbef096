(* P2 Chord: convergence, lookup correctness and consistency, failure
   handling, churn. These are slower integration tests. *)

open Overlog

let boot ?(seed = 11) ?(n = 8) ?(settle = 120.) () =
  let engine = P2_runtime.Engine.create ~seed ~trace:false () in
  let net = Chord.boot engine n in
  P2_runtime.Engine.run_for engine settle;
  (engine, net)

let test_ring_converges () =
  let _, net = boot () in
  Alcotest.(check bool) "ring correct after settling" true (Chord.ring_correct net)

let test_ring_converges_21 () =
  (* the paper's population size *)
  let _, net = boot ~seed:3 ~n:21 ~settle:180. () in
  Alcotest.(check bool) "21-node ring" true (Chord.ring_correct net)

let test_succ_and_pred_symmetry () =
  let _, net = boot () in
  List.iter
    (fun a ->
      match Chord.best_succ net a with
      | Some (_, s) -> (
          match Chord.predecessor net s with
          | Some (_, p) -> Alcotest.(check string) (a ^ " succ/pred symmetric") a p
          | None -> Alcotest.failf "%s has no predecessor" s)
      | None -> Alcotest.failf "%s has no successor" a)
    net.addrs

let collect_lookups engine net =
  let results = ref [] in
  List.iter
    (fun a ->
      P2_runtime.Engine.watch engine a "lookupResults" (fun t ->
          (* our injected req-ids live in a narrow band; Chord's own
             finger-fix lookups use f_rand ids and must be ignored *)
          match Tuple.field t 5 with
          | Value.VInt r when r >= 1_000_000 && r < 1_100_000 ->
              results := (r, Value.as_addr (Tuple.field t 4)) :: !results
          | _ -> ()))
    net.Chord.addrs;
  results

let test_lookup_correctness () =
  let engine, net = boot () in
  let results = collect_lookups engine net in
  (* lookups for several random keys from every node *)
  let keys = [ 12345; 99999999; 1 lsl 29; 77; Value.Ring.space - 1 ] in
  List.iteri
    (fun ki key ->
      List.iteri
        (fun ni addr ->
          Chord.lookup net ~addr ~key ~req_id:(1_000_000 + (ki * 100) + ni) ())
        net.addrs)
    keys;
  P2_runtime.Engine.run_for engine 5.;
  let expected = List.length keys * List.length net.addrs in
  Alcotest.(check bool) "most lookups answered" true
    (List.length !results >= expected * 9 / 10);
  List.iter
    (fun (rid, answer) ->
      let key = List.nth keys ((rid - 1_000_000) / 100) in
      Alcotest.(check string)
        (Fmt.str "lookup %d finds true successor" rid)
        (Chord.true_successor net key) answer)
    !results

let test_lookup_consistency_all_agree () =
  let engine, net = boot ~seed:5 () in
  let results = collect_lookups engine net in
  List.iteri
    (fun ni addr -> Chord.lookup net ~addr ~key:424242 ~req_id:(1_000_000 + ni) ())
    net.addrs;
  P2_runtime.Engine.run_for engine 5.;
  let answers = List.sort_uniq compare (List.map snd !results) in
  Alcotest.(check int) "single answer cluster" 1 (List.length answers)

let test_node_failure_heals () =
  let engine, net = boot ~seed:7 ~settle:150. () in
  Alcotest.(check bool) "converged" true (Chord.ring_correct net);
  (* kill a non-landmark node; ring must heal around it *)
  let victim = List.nth net.addrs 3 in
  P2_runtime.Engine.crash engine victim;
  P2_runtime.Engine.run_for engine 120.;
  let live = List.filter (fun a -> a <> victim) net.addrs in
  let walk = Chord.ring_walk net in
  Alcotest.(check bool) "victim out of the ring" false (List.mem victim walk);
  Alcotest.(check int) "all live nodes present" (List.length live) (List.length walk);
  Alcotest.(check bool) "ring correct without victim" true
    (Chord.ring_correct ~exclude:[ victim ] net)

let test_lookups_after_failure () =
  let engine, net = boot ~seed:7 ~settle:150. () in
  let victim = List.nth net.addrs 3 in
  P2_runtime.Engine.crash engine victim;
  P2_runtime.Engine.run_for engine 120.;
  let results = collect_lookups engine net in
  let key = 555555 in
  List.iteri
    (fun ni addr ->
      if addr <> victim then Chord.lookup net ~addr ~key ~req_id:(1_000_000 + ni) ())
    net.addrs;
  P2_runtime.Engine.run_for engine 5.;
  let truth = Chord.true_successor net ~exclude:[ victim ] key in
  Alcotest.(check bool) "some lookups answered" true (List.length !results > 0);
  List.iter
    (fun (_, answer) -> Alcotest.(check string) "post-failure answer" truth answer)
    !results

let test_late_join () =
  (* a node joining long after the ring stabilized gets integrated *)
  let engine = P2_runtime.Engine.create ~seed:13 () in
  let net = Chord.boot engine 6 in
  P2_runtime.Engine.run_for engine 120.;
  Alcotest.(check bool) "initial ring" true (Chord.ring_correct net);
  ignore (P2_runtime.Engine.add_node engine "late");
  P2_runtime.Engine.install engine "late" (Chord.program net.params);
  P2_runtime.Engine.install engine "late"
    (Chord.boot_facts ~addr:"late" ~landmark:net.landmark);
  ignore @@ P2_runtime.Engine.inject engine "late" "startJoin" [];
  P2_runtime.Engine.run_for engine 120.;
  let net' = { net with addrs = net.addrs @ [ "late" ] } in
  Alcotest.(check bool) "ring includes late joiner" true (Chord.ring_correct net')

let test_crash_and_recover () =
  let engine, net = boot ~seed:7 ~settle:150. () in
  (* Dense probing plus the passive stabilization-piggybacked check:
     with reliable transport the heal completes within one or two
     stabilization rounds, so a 10 s probe period can sample right past
     the whole inconsistency window. *)
  let mon = Core.Ring_check.install ~active:true ~passive:true ~t_probe:2. net in
  let victim = List.nth net.addrs 3 in
  P2_runtime.Engine.crash engine victim;
  P2_runtime.Engine.run_for engine 120.;
  Alcotest.(check bool) "ring healed around the crash" true
    (Chord.ring_correct ~exclude:[ victim ] net);
  Alcotest.(check bool) "monitors alarmed during the outage" true
    (Core.Alarms.count mon.Core.Ring_check.pred_alarms
     + Core.Alarms.count mon.Core.Ring_check.succ_alarms
    > 0);
  P2_runtime.Engine.recover engine victim;
  (* the recovered node kept its identity but its view is stale;
     re-kick the join protocol and let stabilization do the rest *)
  ignore @@ P2_runtime.Engine.inject engine victim "startJoin" [];
  P2_runtime.Engine.run_for engine 180.;
  Alcotest.(check bool) "full ring re-converged within 180 s" true
    (Chord.ring_correct net);
  (* §3.1.1 agreement: once the ring is whole, the alarms clear *)
  let t_end = P2_runtime.Engine.now engine in
  let recent c = List.length (Core.Alarms.since c (t_end -. 30.)) in
  Alcotest.(check int) "inconsistentPred silent in final window" 0
    (recent mon.Core.Ring_check.pred_alarms);
  Alcotest.(check int) "inconsistentSucc silent in final window" 0
    (recent mon.Core.Ring_check.succ_alarms)

let test_join_leave_churn () =
  let engine, net = boot ~seed:9 ~n:6 ~settle:150. () in
  let net = Chord.join net "x1" in
  P2_runtime.Engine.run_for engine 120.;
  Alcotest.(check bool) "joiner integrated" true (Chord.ring_correct net);
  let leaver = List.nth net.Chord.addrs 2 in
  let net = Chord.leave net leaver in
  P2_runtime.Engine.run_for engine 120.;
  Alcotest.(check bool) "ring heals after fail-stop leave" true
    (Chord.ring_correct net);
  Alcotest.(check bool) "leaver gone from the walk" false
    (List.mem leaver (Chord.ring_walk net));
  Alcotest.check_raises "landmark cannot leave"
    (Invalid_argument "Chord.leave: cannot remove the landmark") (fun () ->
      ignore (Chord.leave net net.Chord.landmark));
  Alcotest.check_raises "duplicate join rejected"
    (Invalid_argument (Fmt.str "Chord.join: duplicate node %s" net.Chord.landmark))
    (fun () -> ignore (Chord.join net net.Chord.landmark))

(* Join retries belong to the node they were armed for: a node that
   leaves and re-joins under the same address gets its own three
   [startJoin] injections, not the departed node's leftovers too. *)
let test_rejoin_retries_own_node () =
  let engine, net = boot ~seed:1 ~n:4 ~settle:60. () in
  let net = Chord.join net "j1" in
  P2_runtime.Engine.run_until engine 61.;
  let net = Chord.leave net "j1" in
  P2_runtime.Engine.run_until engine 62.;
  ignore (Chord.join net "j1");
  let starts = ref 0 in
  P2_runtime.Engine.watch engine "j1" "startJoin" (fun _ -> incr starts);
  P2_runtime.Engine.run_until engine 100.;
  Alcotest.(check int) "startJoin injections on the re-joined j1" 3 !starts

let test_ids_deterministic () =
  Alcotest.(check int) "id stable" (Chord.id_of_addr "n3") (Chord.id_of_addr "n3");
  Alcotest.(check bool) "ids differ" true
    (Chord.id_of_addr "n1" <> Chord.id_of_addr "n2");
  let n = 21 in
  let ids = List.init n (fun i -> Chord.id_of_addr (Fmt.str "n%d" i)) in
  Alcotest.(check int) "no collisions at paper scale" n
    (List.length (List.sort_uniq compare ids))

let () =
  Alcotest.run "chord"
    [
      ( "convergence",
        [
          Alcotest.test_case "8-node ring" `Slow test_ring_converges;
          Alcotest.test_case "21-node ring" `Slow test_ring_converges_21;
          Alcotest.test_case "succ/pred symmetry" `Slow test_succ_and_pred_symmetry;
          Alcotest.test_case "ids deterministic" `Quick test_ids_deterministic;
        ] );
      ( "lookups",
        [
          Alcotest.test_case "correctness" `Slow test_lookup_correctness;
          Alcotest.test_case "consistency" `Slow test_lookup_consistency_all_agree;
        ] );
      ( "churn",
        [
          Alcotest.test_case "failure heals" `Slow test_node_failure_heals;
          Alcotest.test_case "lookups after failure" `Slow test_lookups_after_failure;
          Alcotest.test_case "late join" `Slow test_late_join;
          Alcotest.test_case "crash and recover" `Slow test_crash_and_recover;
          Alcotest.test_case "join/leave churn" `Slow test_join_leave_churn;
          Alcotest.test_case "re-join keeps only its own retries" `Slow
            test_rejoin_retries_own_node;
        ] );
    ]
