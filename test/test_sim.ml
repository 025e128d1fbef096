(* Simulation substrate: RNG determinism, event queue ordering, FIFO
   network delivery, fault injection, metric accounting. *)

let test_rng_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Sim.Rng.float a) (Sim.Rng.float b)
  done

let test_rng_different_seeds () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let xs = List.init 10 (fun _ -> Sim.Rng.float a) in
  let ys = List.init 10 (fun _ -> Sim.Rng.float b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let r = Sim.Rng.create 7 in
  for _ = 1 to 1000 do
    let f = Sim.Rng.float r in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f;
    let i = Sim.Rng.int r 10 in
    if i < 0 || i >= 10 then Alcotest.failf "int out of range: %d" i
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_rng_split () =
  let r = Sim.Rng.create 5 in
  let a = Sim.Rng.split r and b = Sim.Rng.split r in
  Alcotest.(check bool) "split streams differ" true
    (List.init 5 (fun _ -> Sim.Rng.float a) <> List.init 5 (fun _ -> Sim.Rng.float b))

let test_queue_order () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.schedule q ~time:3. "c";
  Sim.Event_queue.schedule q ~time:1. "a";
  Sim.Event_queue.schedule q ~time:2. "b";
  let pop () = match Sim.Event_queue.pop q with Some (_, x) -> x | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_queue_fifo_ties () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 9 do
    Sim.Event_queue.schedule q ~time:1. i
  done;
  let out = List.init 10 (fun _ ->
      match Sim.Event_queue.pop q with Some (_, x) -> x | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 0;1;2;3;4;5;6;7;8;9 ] out

let test_queue_interleaved () =
  let q = Sim.Event_queue.create () in
  (* push/pop interleaving with many elements exercises the heap *)
  let r = Sim.Rng.create 3 in
  let popped = ref [] in
  for _ = 1 to 500 do
    Sim.Event_queue.schedule q ~time:(Sim.Rng.float r) ()
  done;
  let last = ref (-1.) in
  let ok = ref true in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
        if t < !last then ok := false;
        last := t;
        popped := t :: !popped;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "monotone pops" true !ok;
  Alcotest.(check int) "all popped" 500 (List.length !popped)

let prop_queue_sorted =
  QCheck.Test.make ~name:"queue always sorted" ~count:100
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iter (fun t -> Sim.Event_queue.schedule q ~time:t ()) times;
      let rec drain acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

(* Model check of the flat heap against a stable sort by (time,
   insertion): random interleavings of schedule, pop, the top
   accessors and drains to empty, with times drawn from a handful of
   values so exact ties are the common case. Payloads are insertion
   indexes, which are also the seqs the queue must report. *)
type queue_op = Schedule of int | Pop | Peek | Drain

let gen_queue_ops =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (frequency
         [
           (5, map (fun t -> Schedule t) (int_range 0 4));
           (3, return Pop);
           (2, return Peek);
           (1, return Drain);
         ]))

let show_queue_op = function
  | Schedule t -> Fmt.str "schedule %d" t
  | Pop -> "pop"
  | Peek -> "peek"
  | Drain -> "drain"

let prop_queue_model =
  QCheck.Test.make ~name:"queue = stable sort by (time, insertion)" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_queue_op) gen_queue_ops)
    (fun ops ->
      let module Q = Sim.Event_queue in
      let q = Q.create () in
      let model = ref [] (* (time, insertion), sorted *) and next = ref 0 in
      let expect_pop () =
        match (!model, Q.pop q) with
        | [], None -> ()
        | (t, i) :: rest, Some (t', i') when t = t' && i = i' -> model := rest
        | _ -> QCheck.Test.fail_report "pop differs from the model"
      in
      List.iter
        (function
          | Schedule t ->
              let time = float_of_int t in
              Q.schedule q ~time !next;
              model := List.stable_sort (fun (a, _) (b, _) -> compare a b)
                  (!model @ [ (time, !next) ]);
              incr next
          | Pop -> expect_pop ()
          | Peek -> (
              match !model with
              | [] -> if not (Q.is_empty q) then QCheck.Test.fail_report "not empty"
              | (t, i) :: _ ->
                  if Q.top_time q <> t || Q.top q <> i || Q.top_seq q <> i then
                    QCheck.Test.fail_report "top differs from the model")
          | Drain ->
              while !model <> [] do
                expect_pop ()
              done;
              if Q.pop q <> None then QCheck.Test.fail_report "drained queue not empty")
        ops;
      Q.length q = List.length !model)

let test_queue_rejects_nan () =
  let q = Sim.Event_queue.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Event_queue.schedule: NaN time")
    (fun () -> Sim.Event_queue.schedule q ~time:Float.nan ());
  Alcotest.(check int) "nothing queued" 0 (Sim.Event_queue.length q)

let test_network_fifo () =
  (* even with jitter, per-channel delivery times are monotone *)
  let net = Sim.Network.create ~base_latency:0.01 ~jitter:0.05 (Sim.Rng.create 1) in
  let last = ref 0. in
  let ok = ref true in
  for i = 0 to 99 do
    match Sim.Network.send net ~now:(float_of_int i *. 0.001) ~src:"a" ~dst:"b" with
    | Sim.Network.Deliver t ->
        if t <= !last then ok := false;
        last := t
    | Sim.Network.Drop _ -> Alcotest.fail "unexpected drop"
  done;
  Alcotest.(check bool) "fifo per channel" true !ok

let test_network_latency () =
  let net = Sim.Network.create ~base_latency:0.01 ~jitter:0. (Sim.Rng.create 1) in
  (match Sim.Network.send net ~now:5. ~src:"a" ~dst:"b" with
  | Sim.Network.Deliver t -> Alcotest.(check (float 1e-9)) "base latency" 5.01 t
  | Sim.Network.Drop _ -> Alcotest.fail "drop");
  (* loopback is instantaneous *)
  match Sim.Network.send net ~now:5. ~src:"a" ~dst:"a" with
  | Sim.Network.Deliver t -> Alcotest.(check (float 1e-9)) "loopback" 5. t
  | Sim.Network.Drop _ -> Alcotest.fail "drop"

let test_network_faults () =
  let net = Sim.Network.create ~loss_rate:0. (Sim.Rng.create 1) in
  Sim.Network.cut_link net ~src:"a" ~dst:"b";
  (match Sim.Network.send net ~now:0. ~src:"a" ~dst:"b" with
  | Sim.Network.Drop reason -> Alcotest.(check string) "cut" "link cut" reason
  | _ -> Alcotest.fail "expected drop");
  (* direction matters *)
  (match Sim.Network.send net ~now:0. ~src:"b" ~dst:"a" with
  | Sim.Network.Deliver _ -> ()
  | _ -> Alcotest.fail "reverse direction should work");
  Sim.Network.heal_link net ~src:"a" ~dst:"b";
  (match Sim.Network.send net ~now:0. ~src:"a" ~dst:"b" with
  | Sim.Network.Deliver _ -> ()
  | _ -> Alcotest.fail "healed");
  Sim.Network.crash net "c";
  Alcotest.(check bool) "crashed" true (Sim.Network.is_crashed net "c");
  (match Sim.Network.send net ~now:0. ~src:"x" ~dst:"c" with
  | Sim.Network.Drop _ -> ()
  | _ -> Alcotest.fail "to crashed");
  (match Sim.Network.send net ~now:0. ~src:"c" ~dst:"x" with
  | Sim.Network.Drop _ -> ()
  | _ -> Alcotest.fail "from crashed");
  Sim.Network.recover net "c";
  match Sim.Network.send net ~now:0. ~src:"x" ~dst:"c" with
  | Sim.Network.Deliver _ -> ()
  | _ -> Alcotest.fail "recovered"

let test_network_loss () =
  let net = Sim.Network.create ~loss_rate:0.5 (Sim.Rng.create 9) in
  let drops = ref 0 in
  for _ = 1 to 1000 do
    match Sim.Network.send net ~now:0. ~src:"a" ~dst:"b" with
    | Sim.Network.Drop _ -> incr drops
    | Sim.Network.Deliver _ -> ()
  done;
  Alcotest.(check bool) "roughly half dropped" true (!drops > 400 && !drops < 600);
  Alcotest.(check int) "tx counted" 1000 (Sim.Network.tx_count net);
  Alcotest.(check int) "drops counted" !drops (Sim.Network.drop_count net)

(* --- property: no fault-op interleaving breaks per-channel FIFO --- *)

type net_op =
  | Send of int * int
  | Cut of int * int
  | Heal of int * int
  | NodeCrash of int
  | NodeRecover of int
  | Loss of int  (* tenths: 0..4 -> 0.0..0.4 *)
  | Latency of int  (* milliseconds of base latency *)

let gen_net_op =
  QCheck.Gen.(
    let node = int_bound 3 in
    frequency
      [
        (8, map2 (fun s d -> Send (s, d)) node node);
        (1, map2 (fun s d -> Cut (s, d)) node node);
        (1, map2 (fun s d -> Heal (s, d)) node node);
        (1, map (fun n -> NodeCrash n) node);
        (1, map (fun n -> NodeRecover n) node);
        (1, map (fun t -> Loss t) (int_bound 4));
        (1, map (fun ms -> Latency ms) (int_range 1 80));
      ])

let prop_fifo_under_faults =
  QCheck.Test.make ~name:"per-channel FIFO survives fault interleavings" ~count:200
    (QCheck.make QCheck.Gen.(pair small_nat (list_size (int_range 1 150) gen_net_op)))
    (fun (seed, ops) ->
      let net =
        Sim.Network.create ~base_latency:0.01 ~jitter:0.05 (Sim.Rng.create (seed + 1))
      in
      let addr n = Fmt.str "n%d" n in
      let last : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun i op ->
          let now = float_of_int i *. 0.01 in
          match op with
          | Send (s, d) when s <> d -> (
              match Sim.Network.send net ~now ~src:(addr s) ~dst:(addr d) with
              | Sim.Network.Drop _ -> ()
              | Sim.Network.Deliver t ->
                  let chan = (addr s, addr d) in
                  let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt last chan) in
                  (* strictly later than the channel's previous delivery,
                     and never before the send *)
                  if t <= prev || t < now then ok := false;
                  Hashtbl.replace last chan t)
          | Send _ -> ()
          | Cut (s, d) -> Sim.Network.cut_link net ~src:(addr s) ~dst:(addr d)
          | Heal (s, d) -> Sim.Network.heal_link net ~src:(addr s) ~dst:(addr d)
          | NodeCrash n -> Sim.Network.crash net (addr n)
          | NodeRecover n -> Sim.Network.recover net (addr n)
          | Loss t -> Sim.Network.set_loss_rate net (float_of_int t /. 10.)
          | Latency ms ->
              let base = float_of_int ms /. 1000. in
              Sim.Network.set_latency net ~base ~jitter:(base /. 2.))
        ops;
      !ok)

(* --- engine determinism: same seed => identical deliveries and metrics --- *)

(* A small gossip deployment under jitter, loss, and mid-run faults;
   returns the full observable trace: every ping delivery (time, node,
   tuple) plus network counters and per-node metric snapshots. *)
let gossip_trace seed =
  let engine = P2_runtime.Engine.create ~seed ~base_latency:0.02 ~jitter:0.03 ~loss_rate:0.05 () in
  let addrs = [ "a"; "b"; "c" ] in
  List.iter (fun a -> ignore (P2_runtime.Engine.add_node engine a)) addrs;
  P2_runtime.Engine.install_all engine
    {|
materialize(peer, infinity, 16, keys(2)).
materialize(seen, 30, infinity, keys(1,2,3)).
g1 ping@P(N, E) :- periodic@N(E, 0.5), peer@N(P).
g2 seen@N(P, E) :- ping@N(P, E).
|};
  P2_runtime.Engine.install engine "a" {|peer@a(b). peer@a(c).|};
  P2_runtime.Engine.install engine "b" {|peer@b(c).|};
  P2_runtime.Engine.install engine "c" {|peer@c(a).|};
  let log = ref [] in
  List.iter
    (fun a ->
      P2_runtime.Engine.watch engine a "ping" (fun t ->
          log :=
            Fmt.str "%.9f %s %a" (P2_runtime.Engine.now engine) a Overlog.Tuple.pp t
            :: !log))
    addrs;
  P2_runtime.Engine.at engine ~time:3. (fun () -> P2_runtime.Engine.crash engine "b");
  P2_runtime.Engine.at engine ~time:4. (fun () ->
      P2_runtime.Engine.cut_link engine ~src:"a" ~dst:"c");
  P2_runtime.Engine.at engine ~time:6. (fun () -> P2_runtime.Engine.recover engine "b");
  P2_runtime.Engine.at engine ~time:7. (fun () ->
      P2_runtime.Engine.heal_link engine ~src:"a" ~dst:"c");
  P2_runtime.Engine.run_for engine 10.;
  let counters =
    ( Sim.Network.tx_count (P2_runtime.Engine.network engine),
      Sim.Network.drop_count (P2_runtime.Engine.network engine) )
  in
  let snaps = List.map (fun a -> P2_runtime.Engine.snapshot_node engine a) addrs in
  (List.rev !log, counters, snaps)

let test_engine_deterministic () =
  let t1 = gossip_trace 11 and t2 = gossip_trace 11 in
  let log1, counters1, snaps1 = t1 and log2, counters2, snaps2 = t2 in
  Alcotest.(check bool) "a run delivers messages" true (List.length log1 > 0);
  Alcotest.(check (list string)) "same seed: identical delivery order" log1 log2;
  Alcotest.(check (pair int int)) "same seed: identical tx/drop counters" counters1
    counters2;
  Alcotest.(check bool) "same seed: identical per-node metrics" true (snaps1 = snaps2)

let test_engine_seed_sensitivity () =
  let log1, _, _ = gossip_trace 11 and log2, _, _ = gossip_trace 12 in
  Alcotest.(check bool) "different seed: different trace" true (log1 <> log2)

(* The node's counters live in its registry: one message in, one rule
   firing, one message out. The CPU and memory proxies are computed
   from registry snapshots by the engine. *)
let test_metrics () =
  let module Node = P2_runtime.Node in
  let module Engine = P2_runtime.Engine in
  let node = Node.create ~addr:"a" ~rng:(Sim.Rng.create 1) () in
  Node.install_text node "r1 pong@b(X) :- ping@a(X).";
  Node.receive node ~bytes:100 ~src:"b" ~src_tuple_id:7 ~delete:false ~name:"ping"
    ~fields:[ Overlog.Value.VAddr "a"; Overlog.Value.VInt 1 ]
    ();
  let reg name = Option.get (Metrics.value (Node.registry node) name) in
  Alcotest.(check (float 0.)) "tx" 1. (reg "net.msgs_tx");
  Alcotest.(check (float 0.)) "rx" 1. (reg "net.msgs_rx");
  Alcotest.(check (float 0.)) "bytes" 100. (reg "net.bytes_rx");
  Alcotest.(check (float 0.)) "tuples" 2. (reg "node.tuples_created");
  Alcotest.(check (float 0.)) "rules" 1. (reg "node.rule_executions");
  Alcotest.(check bool) "work includes marshal" true (reg "node.work_units" > 40.);
  (* cpu proxy: one second's full budget (43 000 units) over 100 s = 1% *)
  let snap ~time ~work ~live_tuples ~live_bytes =
    { Engine.time; work; messages_tx = 0; messages_rx = 0; live_tuples; live_bytes }
  in
  Alcotest.(check (float 1e-9)) "cpu percent" 1.
    (Engine.cpu_percent
       ~before:(snap ~time:0. ~work:0. ~live_tuples:0 ~live_bytes:0)
       ~after:(snap ~time:100. ~work:43_000. ~live_tuples:0 ~live_bytes:0));
  Alcotest.(check bool) "memory grows with tuples" true
    (Engine.memory_mb (snap ~time:0. ~work:0. ~live_tuples:1000 ~live_bytes:100_000)
    > Engine.memory_mb (snap ~time:0. ~work:0. ~live_tuples:0 ~live_bytes:0))

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split;
        ] );
      ( "event queue",
        [
          Alcotest.test_case "order" `Quick test_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
          QCheck_alcotest.to_alcotest prop_queue_model;
          Alcotest.test_case "rejects NaN" `Quick test_queue_rejects_nan;
        ] );
      ( "network",
        [
          Alcotest.test_case "fifo" `Quick test_network_fifo;
          Alcotest.test_case "latency" `Quick test_network_latency;
          Alcotest.test_case "faults" `Quick test_network_faults;
          Alcotest.test_case "loss" `Quick test_network_loss;
          QCheck_alcotest.to_alcotest prop_fifo_under_faults;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same run" `Quick test_engine_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_engine_seed_sensitivity;
        ] );
      ("metrics", [ Alcotest.test_case "counters" `Quick test_metrics ]);
    ]
