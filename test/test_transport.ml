(* Reliable transport end-to-end: eventual exactly-once delivery under
   loss, the ablated control arm, the peer failure detector observed
   through p2PeerStatus + the pure-OverLog watchdog, bounded send
   queues, node-retirement purges, restart and re-add semantics (one
   timer chain, no frame crossing into a new node), the inject crash
   guard, the per-event flush of the delta-batch buffers, and the headline
   acceptance run: an 8-node Chord ring converging under 20 %
   uniform loss with the transport on and failing with it off. *)

open Overlog
module Engine = P2_runtime.Engine
module Transport = P2_runtime.Transport

let table_tuples engine addr name =
  let node = Engine.node engine addr in
  match Store.Catalog.find (P2_runtime.Node.catalog node) name with
  | Some t -> Store.Table.tuples t ~now:(Engine.now engine)
  | None -> []

let two_nodes ?(seed = 3) ?(loss_rate = 0.) ?(reliable = true) () =
  let engine = Engine.create ~seed ~loss_rate ~reliable () in
  ignore (Engine.add_node engine "a");
  ignore (Engine.add_node engine "b");
  engine

let forward_rule = "f1 ping@b(X) :- ev@a(X)."

let ints_of tuples = List.map (fun t -> Value.as_int (Tuple.field t 2)) tuples

(* Every injected event arrives exactly once and in order despite 30 %
   uniform loss: retransmission recovers the drops, the receiver's
   sequence window suppresses the duplicates retransmission creates,
   and the reorder buffer restores the send order. *)
let test_eventual_delivery_under_loss () =
  let engine = two_nodes ~loss_rate:0.3 () in
  Engine.install engine "a" forward_rule;
  let got = Engine.collect engine "b" "ping" in
  for i = 1 to 20 do
    ignore @@ Engine.inject engine "a" "ev" [ Value.VInt i ]
  done;
  Engine.run_for engine 60.;
  Alcotest.(check (list int))
    "all 20 delivered exactly once, in order"
    (List.init 20 (fun i -> i + 1))
    (ints_of (got ()));
  Alcotest.(check bool)
    "loss actually forced retransmissions" true
    (Transport.retransmit_count (Engine.transport engine "a") > 0)

(* The control arm: same loss, transport ablated mid-run with
   [set_reliable false] — fire-and-forget drops messages for good. *)
let test_ablated_loses_messages () =
  let engine = two_nodes ~loss_rate:0.5 () in
  Engine.set_reliable engine false;
  Alcotest.(check bool) "ablation switch reads back" false (Engine.reliable engine);
  Engine.install engine "a" forward_rule;
  let got = Engine.collect engine "b" "ping" in
  for i = 1 to 40 do
    ignore @@ Engine.inject engine "a" "ev" [ Value.VInt i ]
  done;
  Engine.run_for engine 60.;
  let n = List.length (got ()) in
  Alcotest.(check bool)
    (Fmt.str "unreliable delivery is lossy (got %d/40)" n)
    true
    (n < 40 && Transport.retransmit_count (Engine.transport engine "a") = 0)

let find_peer_row engine addr peer =
  List.find_opt
    (fun t -> Value.equal (Tuple.field t 2) (Value.VStr peer))
    (table_tuples engine addr "p2PeerStatus")

let alarm_kinds alarms =
  List.filter_map
    (fun a ->
      match Tuple.field a.Core.Alarms.tuple 2 with
      | Value.VStr k -> Some k
      | _ -> None)
    alarms

(* Failure-detector transitions, observed both from the host API and
   from pure OverLog: crash a peer → p2PeerStatus flips suspect then
   dead and the watchdog raises peer-suspect / peer-dead p2Alarms;
   recover it → alive again. *)
let test_failure_detector_transitions () =
  let engine = two_nodes () in
  Engine.install engine "a" forward_rule;
  ignore @@ Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  Engine.run_for engine 5.;
  let alarms = Core.Watchdog.install ~period:1. engine in
  Engine.run_for engine 5.;
  let status () = Transport.peer_status (Engine.transport engine "a") "b" in
  Alcotest.(check (option string))
    "alive while traffic flows" (Some "alive")
    (Option.map Transport.status_name (status ()));
  Engine.crash engine "b";
  Engine.run_for engine 40.;
  Alcotest.(check (option string))
    "dead after sustained silence" (Some "dead")
    (Option.map Transport.status_name (status ()));
  (match find_peer_row engine "a" "b" with
  | Some row ->
      Alcotest.(check string)
        "p2PeerStatus row reflects dead" "dead"
        (match Tuple.field row 3 with Value.VStr s -> s | _ -> "?")
  | None -> Alcotest.fail "no p2PeerStatus row for b at a");
  let kinds = alarm_kinds (Core.Alarms.alarms alarms) in
  Alcotest.(check bool)
    "watchdog raised peer-suspect" true (List.mem "peer-suspect" kinds);
  Alcotest.(check bool)
    "watchdog raised peer-dead" true (List.mem "peer-dead" kinds);
  Engine.recover engine "b";
  Engine.run_for engine 20.;
  Alcotest.(check (option string))
    "alive again after recovery" (Some "alive")
    (Option.map Transport.status_name (status ()));
  match find_peer_row engine "a" "b" with
  | Some row ->
      Alcotest.(check string)
        "p2PeerStatus row reflects recovery" "alive"
        (match Tuple.field row 3 with Value.VStr s -> s | _ -> "?")
  | None -> Alcotest.fail "no p2PeerStatus row for b after recovery"

(* Backpressure: flooding a dead peer fills the window (32) plus the
   pending queue (128) and then drops — the per-peer queue is bounded
   and the drops are counted. *)
let test_bounded_send_queue () =
  let engine = two_nodes () in
  Engine.crash engine "b";
  let tr = Engine.transport engine "a" in
  (* The queue bounds frames: unbatched, each tuple is one frame
     (batched, the flood would pack into five). *)
  Transport.set_batching tr false;
  for i = 1 to 300 do
    Transport.send tr ~dst:"b" ~delete:false (Tuple.make "x" [ Value.VInt i ])
  done;
  let info =
    List.find (fun p -> p.Transport.peer = "b") (Transport.peers tr)
  in
  Alcotest.(check int) "queue bounded at window + pending" 160
    info.Transport.sendq;
  let drops =
    Metrics.value
      (P2_runtime.Node.registry (Engine.node engine "a"))
      "transport.sendq.drops"
  in
  Alcotest.(check (option (float 0.))) "overflow counted" (Some 140.) drops

(* Retiring a node purges every per-address trace: its transport, the
   peers' channels to it, and the network's crash flag — and the stale
   retransmission timers it leaves behind are inert. *)
let test_remove_node_purges () =
  let engine = two_nodes () in
  Engine.install engine "a" forward_rule;
  ignore @@ Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  Engine.run_for engine 2.;
  Alcotest.(check bool) "peer channel exists" true
    (Transport.peer_status (Engine.transport engine "a") "b" <> None);
  Engine.crash engine "b";
  Engine.remove_node engine "b";
  Alcotest.(check bool) "node gone" true (Engine.node_opt engine "b" = None);
  Alcotest.(check bool) "transport gone" true
    (Engine.transport_opt engine "b" = None);
  Alcotest.(check bool) "peer channel purged" true
    (Transport.peer_status (Engine.transport engine "a") "b" = None);
  Alcotest.(check bool) "crash flag cleared" false
    (Sim.Network.is_crashed (Engine.network engine) "b");
  (* armed timers for the retired address must be inert *)
  Engine.run_for engine 30.

(* --- network links --- *)

let sendq_depth engine addr =
  Metrics.value (P2_runtime.Node.registry (Engine.node engine addr)) "net.sendq.depth"

(* In-flight counts live on the links: a frame counts from the send
   until its delivery is popped. Fire-and-forget mode sends no acks or
   heartbeats, so once the injected frames land the run is quiet. *)
let test_links_quiesce () =
  let engine = two_nodes ~reliable:false () in
  Engine.install engine "a" forward_rule;
  for i = 1 to 5 do
    ignore @@ Engine.inject engine "a" "ev" [ Value.VInt i ]
  done;
  Alcotest.(check int) "frames in flight after inject" 5
    (Engine.inflight engine ~src:"a" ~dst:"b");
  Alcotest.(check (option (float 0.))) "a's gauge reads them" (Some 5.)
    (sendq_depth engine "a");
  Engine.run_for engine 5.;
  List.iter
    (fun (src, dst) ->
      Alcotest.(check int) (Fmt.str "%s->%s drained" src dst) 0
        (Engine.inflight engine ~src ~dst))
    (Sim.Network.links (Engine.network engine));
  List.iter
    (fun a ->
      Alcotest.(check (option (float 0.))) (a ^ " net.sendq.depth") (Some 0.)
        (sendq_depth engine a))
    (Engine.addrs engine)

(* Retiring a node drops every link that names it, and the frame still
   in flight toward it dies at delivery without touching anything. *)
let test_remove_node_drops_links () =
  let engine = two_nodes () in
  Engine.install engine "a" forward_rule;
  ignore @@ Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  let names_b () =
    List.filter
      (fun (src, dst) -> src = "b" || dst = "b")
      (Sim.Network.links (Engine.network engine))
  in
  Alcotest.(check int) "frame in flight to b" 1 (Engine.inflight engine ~src:"a" ~dst:"b");
  Engine.remove_node engine "b";
  Alcotest.(check (list (pair string string))) "no link names b" [] (names_b ());
  Alcotest.(check int) "a->b reads 0" 0 (Engine.inflight engine ~src:"a" ~dst:"b");
  Engine.run_for engine 10.;
  Alcotest.(check (list (pair string string))) "none re-created" [] (names_b ());
  Alcotest.(check (option (float 0.))) "a's gauge" (Some 0.) (sendq_depth engine "a")

(* The FIFO floor lives on the link in the network's table, not in the
   sender's transport: a restarted sender's new channel resolves the
   same link, so frames sent after the restart never overtake the ones
   sent before it, however large the jitter. *)
let test_restart_keeps_fifo_floor () =
  let engine = two_nodes ~reliable:false () in
  Engine.set_latency engine ~base:0.01 ~jitter:0.5;
  Engine.install engine "a" forward_rule;
  let got = Engine.collect engine "b" "ping" in
  let burst from =
    for i = from to from + 9 do
      ignore @@ Engine.inject engine "a" "ev" [ Value.VInt i ]
    done
  in
  burst 0;
  let net = Engine.network engine in
  let before = Option.get (Sim.Network.find_link net ~src:"a" ~dst:"b") in
  ignore (Engine.restart engine "a");
  burst 10;
  Alcotest.(check bool) "same link after restart" true
    (Option.get (Sim.Network.find_link net ~src:"a" ~dst:"b") == before);
  Engine.run_for engine 5.;
  Alcotest.(check (list int)) "delivered in send order across the restart"
    (List.init 20 Fun.id) (ints_of (got ()))

(* --- restart and re-add semantics --- *)

let periodic_rule = "p1 tick@N(E) :- periodic@N(E, 1)."

(* A restart rebuilds the node and re-arms its periodic rules from the
   replayed program; the timer chain armed for the old node must die,
   or every periodic rule would fire twice per period. *)
let test_restart_single_timer_chain () =
  let engine = Engine.create ~seed:3 () in
  ignore (Engine.add_node engine "a");
  Engine.install engine "a" periodic_rule;
  let ticks = ref 0 in
  Engine.watch engine "a" "tick" (fun _ -> incr ticks);
  Engine.run_until engine 10.;
  ignore (Engine.restart engine "a");
  ticks := 0;
  Engine.run_until engine 30.;
  Alcotest.(check int) "one tick per second after the restart" 20 !ticks

(* Restart is reset, not replay: a frame launched toward the old node
   dies in flight (it would otherwise alias into the renegotiated
   sequence space, and the first frame after the restart would be
   taken for its duplicate), while a frame sent after the restart
   reaches the reborn node. *)
let test_restart_drops_frames_to_old_node () =
  let engine = two_nodes () in
  Engine.install engine "a" forward_rule;
  let got = Engine.collect engine "b" "ping" in
  ignore @@ Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  Alcotest.(check int) "frame in flight to b" 1 (Engine.inflight engine ~src:"a" ~dst:"b");
  ignore (Engine.restart engine "b");
  Engine.run_for engine 5.;
  Alcotest.(check (list int)) "in-flight frame dropped" [] (ints_of (got ()));
  ignore @@ Engine.inject engine "a" "ev" [ Value.VInt 2 ];
  Engine.run_for engine 5.;
  Alcotest.(check (list int)) "post-restart frame delivered" [ 2 ] (ints_of (got ()))

(* A frame the retired node sent before it left (here b's delayed ack)
   must not reach its peer: delivered, it would re-create a's channel
   to b and the link b>a, and a would heartbeat the dead address for
   the rest of the run. *)
let test_remove_node_drops_ghost_frames () =
  let engine = two_nodes () in
  Engine.install engine "a" forward_rule;
  ignore @@ Engine.inject engine "a" "ev" [ Value.VInt 1 ];
  Engine.run_until engine 0.07;
  Engine.remove_node engine "b";
  let net = Engine.network engine in
  let sent_at_leave = Sim.Network.tx_count net in
  Engine.run_until engine 60.;
  Alcotest.(check bool) "a has no channel to b" true
    (Transport.peer_status (Engine.transport engine "a") "b" = None);
  Alcotest.(check (list (pair string string))) "no link names b" []
    (List.filter (fun (src, dst) -> src = "b" || dst = "b") (Sim.Network.links net));
  Alcotest.(check int) "no sends after the leave" 0 (Sim.Network.tx_count net - sent_at_leave)

(* A removed address may be added again, and the new node starts
   clean: no timer chain, frame or state of the old one reaches it. *)
let test_readd_starts_clean () =
  let engine = Engine.create ~seed:3 () in
  ignore (Engine.add_node engine "a");
  Engine.install engine "a" periodic_rule;
  Engine.run_until engine 10.;
  Engine.remove_node engine "a";
  ignore (Engine.add_node engine "a");
  Engine.install engine "a" periodic_rule;
  let ticks = ref 0 in
  Engine.watch engine "a" "tick" (fun _ -> incr ticks);
  Engine.run_until engine 30.;
  Alcotest.(check int) "one tick per second in the new node" 20 !ticks

(* Host injection respects the fault model: refused while crashed. *)
let test_inject_crash_guard () =
  let engine = two_nodes () in
  let got = Engine.collect engine "a" "ev" in
  Engine.crash engine "a";
  Alcotest.(check bool) "refused while crashed" false
    (Engine.inject engine "a" "ev" [ Value.VInt 1 ]);
  Engine.run_for engine 1.;
  Alcotest.(check int) "nothing delivered" 0 (List.length (got ()));
  Engine.recover engine "a";
  Alcotest.(check bool) "accepted after recovery" true
    (Engine.inject engine "a" "ev" [ Value.VInt 2 ]);
  Engine.run_for engine 1.;
  Alcotest.(check int) "delivered after recovery" 1 (List.length (got ()))

(* --- the delta-batch flush point --- *)

(* A host [inject] whose rule ships to a remote node puts the frame on
   the wire before it returns: the tuple arrives one base latency plus
   jitter later, long before [a] handles any event of its own (its
   first sweep is at 1 s, its first heartbeat later still). Likewise
   for an inject from a host callback mid-run. *)
let test_inject_ships_at_once () =
  List.iter
    (fun shards ->
      let engine = two_nodes () in
      Engine.set_shards engine shards;
      Engine.install engine "a" forward_rule;
      let arrivals = ref [] in
      Engine.watch engine "b" "ping" (fun _ ->
          arrivals := Engine.now engine :: !arrivals);
      let check_arrival ~sent =
        match !arrivals with
        | [ at ] ->
            arrivals := [];
            if at < sent +. 0.01 || at > sent +. 0.015 then
              Alcotest.failf "shards=%d: sent at %g, arrived at %g" shards sent
                at
        | l ->
            Alcotest.failf "shards=%d: %d arrivals after the send at %g" shards
              (List.length l) sent
      in
      ignore (Engine.inject engine "a" "ev" [ Value.VInt 1 ]);
      Alcotest.(check int)
        (Fmt.str "shards=%d: nothing left buffered" shards)
        0
        (Transport.buffered (Engine.transport engine "a"));
      Engine.run_until engine 0.5;
      check_arrival ~sent:0.;
      Engine.at engine ~time:5.25 (fun () ->
          ignore (Engine.inject engine "a" "ev" [ Value.VInt 2 ]));
      Engine.run_until engine 5.75;
      check_arrival ~sent:5.25)
    [ 1; 2 ]

(* Whatever drove the sends — rounds, host callbacks (p2Stats
   reflection), a crash-restart and its restore cascade — no tuple is
   ever left in a coalescing buffer when [run_until] returns. *)
let test_buffers_empty_after_run_until () =
  let engine = Engine.create ~seed:5 () in
  Engine.set_shards engine 2;
  let net = Chord.boot engine 6 in
  P2_runtime.P2stats.attach ~period:2. engine;
  let victim = List.nth net.Chord.addrs 3 in
  Engine.at engine ~time:20. (fun () -> Engine.crash engine victim);
  Engine.at engine ~time:25. (fun () -> ignore (Engine.restart engine victim));
  let batches = ref 0. in
  let t = ref 0. in
  while !t < 60. do
    t := !t +. 0.37;
    Engine.run_until engine !t;
    List.iter
      (fun a ->
        let left = Transport.buffered (Engine.transport engine a) in
        if left > 0 then
          Alcotest.failf "%d tuple(s) left in %s's buffer at %g" left a !t)
      (Engine.addrs engine)
  done;
  List.iter
    (fun a ->
      let reg = P2_runtime.Node.registry (Engine.node engine a) in
      batches :=
        !batches
        +. Option.value ~default:0. (Metrics.value reg "transport.tx.batches"))
    (Engine.addrs engine);
  Alcotest.(check bool)
    (Fmt.str "batches were sent (%g)" !batches)
    true (!batches > 0.)

(* Partition, then heal: frames sent into the cut are retransmitted
   (never abandoned), so after the heal every one arrives exactly once
   and in order; the failure detector walks suspect → alive without
   flapping back. *)
let test_partition_heal_resumes () =
  let engine = two_nodes () in
  Engine.install engine "a" forward_rule;
  let got = Engine.collect engine "b" "ping" in
  for i = 1 to 5 do
    ignore @@ Engine.inject engine "a" "ev" [ Value.VInt i ]
  done;
  Engine.run_for engine 5.;
  Alcotest.(check int) "pre-partition traffic delivered" 5
    (List.length (got ()));
  let cut () =
    Engine.cut_link engine ~src:"a" ~dst:"b";
    Engine.cut_link engine ~src:"b" ~dst:"a"
  and heal () =
    Engine.heal_link engine ~src:"a" ~dst:"b";
    Engine.heal_link engine ~src:"b" ~dst:"a"
  in
  cut ();
  let tr = Engine.transport engine "a" in
  let rtx_before = Transport.retransmit_count tr in
  for i = 6 to 15 do
    ignore @@ Engine.inject engine "a" "ev" [ Value.VInt i ]
  done;
  Engine.run_for engine 8.;
  Alcotest.(check bool) "retransmissions backing off into the cut" true
    (Transport.retransmit_count tr > rtx_before);
  Alcotest.(check (option string))
    "peer suspected during the partition" (Some "suspect")
    (Option.map Transport.status_name (Transport.peer_status tr "b"));
  Alcotest.(check int) "nothing crossed the cut" 5 (List.length (got ()));
  heal ();
  (* watch the detector after the heal: once alive, it must stay
     alive — recovery must not flap through suspect again *)
  let statuses = ref [] in
  for i = 1 to 20 do
    Engine.at engine
      ~time:(Engine.now engine +. float_of_int i)
      (fun () ->
        match Transport.peer_status tr "b" with
        | Some s -> statuses := Transport.status_name s :: !statuses
        | None -> ())
  done;
  Engine.run_for engine 21.;
  Alcotest.(check (list int))
    "every frame sent into the partition arrives exactly once, in order"
    (List.init 15 (fun i -> i + 1))
    (ints_of (got ()));
  Alcotest.(check (option string))
    "peer alive again after the heal" (Some "alive")
    (Option.map Transport.status_name (Transport.peer_status tr "b"));
  let after_first_alive =
    let rec drop = function
      | "alive" :: _ as l -> l
      | _ :: rest -> drop rest
      | [] -> []
    in
    drop (List.rev !statuses)
  in
  Alcotest.(check bool) "status settled" true (after_first_alive <> []);
  Alcotest.(check bool) "no flapping after recovery" true
    (List.for_all (( = ) "alive") after_first_alive)

(* The acceptance run: an 8-node Chord ring under 20 % uniform loss
   reaches ring well-formedness with the transport on — and fails with
   it ablated, same seed, same horizon. *)
let ring_under_loss ~reliable =
  let engine = Engine.create ~seed:1 ~loss_rate:0.2 ~reliable () in
  let net = Chord.boot engine 8 in
  Engine.run_for engine 240.;
  (engine, net)

let test_ring_converges_under_loss () =
  let engine, net = ring_under_loss ~reliable:true in
  Alcotest.(check bool) "ring well-formed at 20 % loss" true
    (Chord.ring_correct net);
  let tr = Engine.transport engine (List.hd net.Chord.addrs) in
  Alcotest.(check bool) "retransmissions happened" true
    (Transport.retransmit_count tr > 0)

let test_ring_fails_ablated () =
  let _, net = ring_under_loss ~reliable:false in
  Alcotest.(check bool) "ablated ring does not converge" false
    (Chord.ring_correct net)

let () =
  Alcotest.run "transport"
    [
      ( "delivery",
        [
          Alcotest.test_case "eventual delivery under loss" `Quick
            test_eventual_delivery_under_loss;
          Alcotest.test_case "ablated transport is lossy" `Quick
            test_ablated_loses_messages;
          Alcotest.test_case "bounded send queue" `Quick
            test_bounded_send_queue;
        ] );
      ( "failure detector",
        [
          Alcotest.test_case "suspect/dead/alive transitions" `Quick
            test_failure_detector_transitions;
          Alcotest.test_case "partition heal: resume without flapping" `Quick
            test_partition_heal_resumes;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "remove_node purges transport state" `Quick
            test_remove_node_purges;
          Alcotest.test_case "inject crash guard" `Quick
            test_inject_crash_guard;
          Alcotest.test_case "links quiesce to zero in flight" `Quick
            test_links_quiesce;
          Alcotest.test_case "remove_node drops its links" `Quick
            test_remove_node_drops_links;
          Alcotest.test_case "restart keeps the FIFO floor" `Quick
            test_restart_keeps_fifo_floor;
          Alcotest.test_case "restart keeps one timer chain" `Quick
            test_restart_single_timer_chain;
          Alcotest.test_case "restart drops frames to the old node" `Quick
            test_restart_drops_frames_to_old_node;
          Alcotest.test_case "remove_node drops ghost frames" `Quick
            test_remove_node_drops_ghost_frames;
          Alcotest.test_case "re-added address starts clean" `Quick
            test_readd_starts_clean;
        ] );
      ( "flush point",
        [
          Alcotest.test_case "host inject ships at once" `Quick
            test_inject_ships_at_once;
          Alcotest.test_case "buffers empty after run_until" `Quick
            test_buffers_empty_after_run_until;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "8-node ring converges at 20 % loss" `Slow
            test_ring_converges_under_loss;
          Alcotest.test_case "ablated ring fails at 20 % loss" `Slow
            test_ring_fails_ablated;
        ] );
    ]
