(* Naive-vs-delta differential oracle for the evaluation pipeline.

   The engine ships one pipeline — semi-naive delta evaluation with
   cross-node delta batching — and keeps one ablation: naive full-body
   re-enumeration with every tuple in its own frame. The two must
   compute the same fixpoints — they are two executions of the same
   logic program — while semi-naive ships strictly fewer cross-node
   tuples on recursive workloads. The naive arm is unbatched, so the
   fixpoint agreement is also what shows batching invisible above the
   transport.

   Three suites:
   - transitive closure over generated random digraphs, >= 10 seeds,
     semi+batched vs naive+unbatched, plus a check that the batched
     arm really packs frames;
   - every Core.Registry monitor co-installed on a live Chord ring,
     semi-naive vs naive, structural ring state compared exactly;
   - a campaign regression: the semi-naive reachable program under 20%
     loss with batched frames, judged by the eventual-delivery oracle. *)

module Engine = P2_runtime.Engine
module Node = P2_runtime.Node
open Overlog

type mode = Semi | Naive

let apply_mode engine = function
  | Semi -> () (* the engine default: semi-naive, batched *)
  | Naive -> Engine.set_seminaive engine false

(* --- observation helpers --- *)

(* Canonical fixpoint: per node, per hard-state table, the sorted
   multiset of tuple contents. Soft-state tables are excluded — naive
   refiring refreshes row lifetimes, so expiry timing is legitimately
   mode-dependent; hard state is where the fixpoints must agree. *)
let fixpoint ?(only = fun _ -> true) engine =
  let now = Engine.now engine in
  List.concat_map
    (fun addr ->
      let cat = Node.catalog (Engine.node engine addr) in
      List.filter_map
        (fun tname ->
          let tbl = Store.Catalog.find_exn cat tname in
          if Store.Table.lifetime tbl = infinity && only tname then
            Some
              ( addr,
                tname,
                List.sort String.compare
                  (List.map Tuple.to_string (Store.Table.tuples tbl ~now)) )
          else None)
        (Store.Catalog.names cat))
    (Engine.addrs engine)

let pp_fixpoint ppf fp =
  List.iter
    (fun (addr, t, rows) ->
      Fmt.pf ppf "%s/%s: %a@." addr t Fmt.(list ~sep:(any "; ") string) rows)
    fp

let check_fixpoints_equal ~what a b =
  if a <> b then
    Alcotest.failf "%s: fixpoints differ@.--- first:@.%a--- second:@.%a" what
      pp_fixpoint a pp_fixpoint b

let sum_metric engine name =
  List.fold_left
    (fun acc addr ->
      let reg = Node.registry (Engine.node engine addr) in
      acc +. Option.value ~default:0. (Metrics.value reg name))
    0. (Engine.addrs engine)

(* Logical tuple shipments (independent of framing/batching). *)
let messages engine =
  List.fold_left
    (fun acc addr -> acc + (Engine.snapshot_node engine addr).Engine.messages_tx)
    0 (Engine.addrs engine)

(* Data frames on their first transmission: every frame minus the
   acks, heartbeats and retransmissions. *)
let data_frames engine =
  int_of_float
    (sum_metric engine "transport.tx.frames"
    -. sum_metric engine "transport.tx.acks"
    -. sum_metric engine "transport.tx.heartbeats"
    -. sum_metric engine "transport.retransmits")

(* --- suite 1: transitive closure over generated digraphs --- *)

let tc_program =
  {|materialize(link, infinity, 1024, keys(1, 2)).
materialize(path, infinity, 65536, keys(1, 2)).
p1 path@T(S) :- link@S(T).
p2 path@T(S) :- link@M(T), path@M(S).|}

(* A random recursive workload: [n] nodes, a guaranteed Hamiltonian
   cycle (so the closure is total and every rule recurses), plus
   random chords. Edges are injected staggered in time so the engine
   sees genuine incremental deltas, not one bulk load. *)
let gen_edges ~rng ~n =
  let addr i = Fmt.str "n%d" i in
  let cycle = List.init n (fun i -> (addr i, addr ((i + 1) mod n))) in
  let chords = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && (j - i) mod n <> 1 && Sim.Rng.float rng < 0.3 then
        chords := (addr i, addr j) :: !chords
    done
  done;
  cycle @ List.rev !chords

type arm = {
  fp : (string * string * string list) list;
  msgs : int;
  data_frames : int;
  batched_tuples : int;
}

let run_tc ~mode ~seed ~n ~edges =
  let engine = Engine.create ~seed () in
  apply_mode engine mode;
  for i = 0 to n - 1 do
    ignore (Engine.add_node engine (Fmt.str "n%d" i))
  done;
  Engine.install_all engine tc_program;
  List.iteri
    (fun i (src, dst) ->
      Engine.at engine
        ~time:(1.0 +. (0.5 *. float_of_int i))
        (fun () -> ignore (Engine.inject engine src "link" [ Value.VAddr dst ])))
    edges;
  Engine.run_until engine (60. +. (0.5 *. float_of_int (List.length edges)));
  {
    fp = fixpoint engine;
    msgs = messages engine;
    data_frames = data_frames engine;
    batched_tuples = int_of_float (sum_metric engine "transport.tx.batched_tuples");
  }

let test_tc_differential () =
  let strict_wins = ref 0 in
  for seed = 1 to 12 do
    let rng = Sim.Rng.create (1000 + seed) in
    let n = 3 + Sim.Rng.int rng 3 in
    let edges = gen_edges ~rng ~n in
    let semi = run_tc ~mode:Semi ~seed ~n ~edges in
    let naive = run_tc ~mode:Naive ~seed ~n ~edges in
    let what = Fmt.str "seed %d (%d nodes, %d edges)" seed n (List.length edges) in
    check_fixpoints_equal ~what:(what ^ " semi vs naive") semi.fp naive.fp;
    (* The closure must actually be total: path at every node holds
       every node (the Hamiltonian cycle guarantees reachability). *)
    List.iter
      (fun (addr, t, rows) ->
        if t = "path" then
          Alcotest.(check int)
            (Fmt.str "%s: |path| at %s" what addr)
            n (List.length rows))
      semi.fp;
    (* Semi-naive never ships more tuples than naive. *)
    Alcotest.(check bool)
      (Fmt.str "%s: msgs semi (%d) <= naive (%d)" what semi.msgs naive.msgs)
      true
      (semi.msgs <= naive.msgs);
    if semi.msgs < naive.msgs then incr strict_wins
  done;
  (* Strictly fewer messages on recursive workloads: every digraph here
     recurses, so the naive re-shipping penalty must show up broadly. *)
  Alcotest.(check bool)
    (Fmt.str "strict message wins on %d/12 recursive workloads" !strict_wins)
    true (!strict_wins >= 10)

(* Batching must actually batch: on a workload where one event ships
   several tuples to one peer, the batched arm packs tuples into
   delta-batch frames and sends fewer data frames than tuples. *)
let test_tc_batching_packs_frames () =
  let rng = Sim.Rng.create 4242 in
  let n = 5 in
  let edges = gen_edges ~rng ~n in
  let semi = run_tc ~mode:Semi ~seed:99 ~n ~edges in
  Alcotest.(check bool)
    (Fmt.str "batched tuples (%d) > 0" semi.batched_tuples)
    true (semi.batched_tuples > 0);
  Alcotest.(check bool)
    (Fmt.str "data frames (%d) < tuple shipments (%d)" semi.data_frames
       semi.msgs)
    true
    (semi.data_frames < semi.msgs)

(* --- suite 2: the embedded monitor corpus on a live ring --- *)

(* Structural ring state: time-free hard-state tables whose converged
   contents are a pure function of membership. Monitor-derived tables
   often embed f_now timestamps or event counts, which are legitimately
   schedule-dependent; the ring itself must not be. *)
let structural = [ "node"; "landmark"; "bestSucc"; "pred" ]

let run_registry_group ~mode ~seed ~params ~programs =
  let engine = Engine.create ~seed () in
  apply_mode engine mode;
  let net = Chord.boot ~params engine 5 in
  Engine.run_until engine 90.;
  (* Install the monitors piecemeal on the running ring (the paper's
     deployment story), deduplicated: a program text installs once. *)
  let seen = Hashtbl.create 8 in
  Hashtbl.add seen Core.Registry.chord ();
  List.iter
    (fun src ->
      if not (Hashtbl.mem seen src) then begin
        Hashtbl.add seen src ();
        Engine.install_all engine src
      end)
    programs;
  Engine.run_until engine 240.;
  let ring_ok = Chord.ring_correct net in
  (ring_ok, fixpoint ~only:(fun t -> List.mem t structural) engine)

let test_registry_differential () =
  (* chord-buggy replaces the chord library wholesale (same rule names,
     different bodies), so it gets its own ring; everything else
     co-installs over the standard ring. chord and chord-boot-facts are
     what Chord.boot already installs. *)
  let monitors =
    List.concat_map
      (fun (name, libs, program) ->
        match name with
        | "chord" | "chord-buggy" | "chord-boot-facts" -> []
        | _ -> libs @ [ program ])
      Core.Registry.embedded
  in
  List.iter
    (fun seed ->
      let semi =
        run_registry_group ~mode:Semi ~seed ~params:Chord.default_params
          ~programs:monitors
      in
      let naive =
        run_registry_group ~mode:Naive ~seed ~params:Chord.default_params
          ~programs:monitors
      in
      Alcotest.(check bool)
        (Fmt.str "seed %d: semi-naive ring correct" seed)
        true (fst semi);
      Alcotest.(check bool)
        (Fmt.str "seed %d: naive ring correct" seed)
        true (fst naive);
      check_fixpoints_equal
        ~what:(Fmt.str "registry corpus seed %d" seed)
        (snd semi) (snd naive))
    [ 3; 8 ]

let test_registry_buggy_differential () =
  let seed = 5 in
  let semi =
    run_registry_group ~mode:Semi ~seed ~params:Chord.buggy_params
      ~programs:[]
  in
  let naive =
    run_registry_group ~mode:Naive ~seed ~params:Chord.buggy_params ~programs:[]
  in
  (* The buggy variant need not converge to a correct ring — the point
     is that both evaluation modes agree on whatever it does compute. *)
  check_fixpoints_equal ~what:"chord-buggy" (snd semi) (snd naive)

(* --- suite 3: campaign regression, batched frames under loss --- *)

(* Reachability along best-successor edges: a recursive cross-node
   monitor. rb0 seeds from a periodic — the monitor is installed on a
   ring whose bestSucc rows already exist, and delta rules only see new
   deltas, so the edge relation must be enumerated once after install
   (later rounds refresh identically and go quiet). rb2 then closes
   transitively, delta-driven. On a converged ring the closure is
   total, so under 20% loss the reliable transport must still deliver
   every (possibly batched) delta frame for the assertion to hold. *)
let reach_program =
  {|materialize(reachable, infinity, 65536, keys(1, 2)).
rb0 reachable@S(N) :- periodic@N(E, 10), bestSucc@N(I, S).
rb1 reachable@S(N) :- bestSucc@N(I, S).
rb2 reachable@S(M) :- bestSucc@N(I, S), reachable@N(M), M != S.|}

let test_campaign_loss_batched () =
  let cfg =
    {
      Harness.Campaign.default_config with
      nodes = 5;
      settle = 120.;
      horizon = 30.;
      cooldown = 150.;
      loss_rate = 0.2;
      reliable = true;
      seminaive = true;
    }
  in
  let batches = ref 0. in
  let complete = ref true in
  let missing = ref "" in
  let run =
    Harness.Campaign.run_plan cfg ~seed:5
      ~after_settle:(fun engine -> Engine.install_all engine reach_program)
      ~on_done:(fun engine ->
        batches := sum_metric engine "transport.tx.batches";
        let addrs = Engine.addrs engine in
        let now = Engine.now engine in
        List.iter
          (fun a ->
            let cat = Node.catalog (Engine.node engine a) in
            match Store.Catalog.find cat "reachable" with
            | None ->
                complete := false;
                missing := Fmt.str "%s has no reachable table" a
            | Some tbl ->
                let got =
                  List.map
                    (fun t -> Value.to_string (Tuple.field t 2))
                    (Store.Table.tuples tbl ~now)
                in
                List.iter
                  (fun b ->
                    if b <> a && not (List.mem b got) then begin
                      complete := false;
                      missing := Fmt.str "%s not reachable at %s" b a
                    end)
                  addrs)
          addrs)
      (Harness.Fault_plan.empty cfg.Harness.Campaign.horizon)
  in
  Alcotest.(check bool)
    "oracle holds under 20% loss with batching" false
    (Harness.Campaign.failed run);
  Alcotest.(check bool) (Fmt.str "closure total (%s)" !missing) true !complete;
  Alcotest.(check bool)
    (Fmt.str "delta batches were exercised (%g)" !batches)
    true (!batches > 0.)

let () =
  Alcotest.run "seminaive"
    [
      ( "tc-differential",
        [
          Alcotest.test_case "naive vs delta fixpoints, 12 seeds" `Slow
            test_tc_differential;
          Alcotest.test_case "batching packs frames" `Quick
            test_tc_batching_packs_frames;
        ] );
      ( "registry-differential",
        [
          Alcotest.test_case "monitor corpus on a live ring" `Slow
            test_registry_differential;
          Alcotest.test_case "chord-buggy agrees with itself" `Slow
            test_registry_buggy_differential;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "loss sweep with batched frames" `Slow
            test_campaign_loss_batched;
        ] );
    ]
