(* Fault-injection harness (lib/harness): plan generation and text
   round-trips, campaign determinism, a smoke sweep, and the
   acceptance path — a planted successor corruption must be caught by
   the oracle and shrunk to a minimal replayable schedule. *)

module F = Harness.Fault_plan
module C = Harness.Campaign

(* Small but realistic: 6 nodes, 60 s fault window, cooldown long
   enough (> heal_window) to tell healing from failure. *)
let cfg = { C.default_config with nodes = 6; horizon = 60. }
let addrs = List.init cfg.C.nodes (Fmt.str "n%d")

let sorted p =
  let rec go = function
    | { F.time = a; _ } :: ({ F.time = b; _ } :: _ as rest) ->
        a <= b && go rest
    | _ -> true
  in
  go p.F.actions

(* --- fault plans --- *)

let test_plan_roundtrip () =
  for seed = 1 to 25 do
    let rng = Sim.Rng.create seed in
    let plan =
      F.generate ~rng ~addrs ~horizon:60. ~intensity:(1 + (seed mod 4)) ()
    in
    let plan =
      if seed mod 3 = 0 then F.plant_corruption ~rng ~addrs ~time:30. plan
      else plan
    in
    Alcotest.(check bool) "generated plan is sorted" true (sorted plan);
    let reread = F.of_string (F.to_string plan) in
    Alcotest.(check bool) "text round-trip is exact" true (plan = reread)
  done

let test_plan_generation_deterministic () =
  let gen seed =
    F.generate ~rng:(Sim.Rng.create seed) ~addrs ~horizon:60. ~intensity:3 ()
  in
  Alcotest.(check bool) "same seed, same plan" true (gen 7 = gen 7);
  Alcotest.(check bool) "seeds differ, plans differ" false (gen 7 = gen 8);
  Alcotest.(check int) "intensity 0 is the empty plan" 0
    (F.length (F.generate ~rng:(Sim.Rng.create 7) ~addrs ~horizon:60. ~intensity:0 ()))

let test_plan_landmark_protected () =
  for seed = 1 to 25 do
    let rng = Sim.Rng.create seed in
    let plan = F.generate ~rng ~addrs ~horizon:60. ~intensity:4 () in
    List.iter
      (fun { F.action; _ } ->
        match action with
        | F.Crash a | F.Leave a ->
            Alcotest.(check bool) "landmark never crashed or removed" false
              (a = List.hd addrs)
        | _ -> ())
      plan.F.actions
  done

let test_plan_shrink_ops () =
  let plan =
    F.generate ~rng:(Sim.Rng.create 3) ~addrs ~horizon:60. ~intensity:4 ()
  in
  let n = F.length plan in
  Alcotest.(check bool) "plan has actions" true (n > 0);
  for i = 0 to n - 1 do
    Alcotest.(check int) "remove drops one action" (n - 1) (F.length (F.remove plan i))
  done;
  let t = F.truncate plan in
  Alcotest.(check bool) "truncate shrinks the horizon" true (t.F.horizon <= plan.F.horizon);
  for i = 0 to n - 1 do
    let s = F.scale_time plan i in
    Alcotest.(check int) "scale_time keeps the length" n (F.length s);
    Alcotest.(check bool) "scale_time keeps sortedness" true (sorted s)
  done;
  Alcotest.(check (float 0.)) "truncate of empty plan zeroes horizon" 0.
    (F.truncate (F.empty 60.)).F.horizon

(* --- extended fault alphabet (partitions + restarts) --- *)

let test_extended_generation () =
  (* over enough seeds the widened alphabet must actually draw the new
     action kinds, every partition must pair with a later heal, every
     extended crash with a later restart — and the classic draw
     sequence must be untouched when the flag is off *)
  let saw_partition = ref false and saw_restart = ref false in
  for seed = 1 to 40 do
    let plan =
      F.generate ~extended:true
        ~rng:(Sim.Rng.create seed)
        ~addrs ~horizon:60. ~intensity:4 ()
    in
    Alcotest.(check bool) "extended plan sorted" true (sorted plan);
    List.iter
      (fun { F.time; F.action } ->
        match action with
        | F.Partition g ->
            saw_partition := true;
            Alcotest.(check bool) "partition group non-empty" true (g <> []);
            Alcotest.(check bool) "landmark never partitioned" false
              (List.mem (List.hd addrs) g);
            Alcotest.(check bool) "partition paired with a later heal" true
              (List.exists
                 (fun b ->
                   b.F.action = F.Heal_partition g && b.F.time > time)
                 plan.F.actions)
        | F.Restart a ->
            saw_restart := true;
            Alcotest.(check bool) "restart follows its crash" true
              (List.exists
                 (fun b -> b.F.action = F.Crash a && b.F.time < time)
                 plan.F.actions)
        | _ -> ())
      plan.F.actions
  done;
  Alcotest.(check bool) "partitions drawn" true !saw_partition;
  Alcotest.(check bool) "restarts drawn" true !saw_restart;
  let classic seed =
    F.generate ~rng:(Sim.Rng.create seed) ~addrs ~horizon:60. ~intensity:3 ()
  in
  Alcotest.(check bool) "flag off preserves the classic draw sequence" true
    (classic 7 = classic 7
    && List.for_all
         (fun { F.action; _ } ->
           match action with
           | F.Partition _ | F.Heal_partition _ | F.Restart _ -> false
           | _ -> true)
         (classic 7).F.actions)

let test_extended_roundtrip () =
  let plan =
    {
      F.horizon = 60.;
      F.actions =
        [
          { F.time = 5.; F.action = F.Partition [ "n1"; "n3" ] };
          { F.time = 10.; F.action = F.Crash "n2" };
          { F.time = 15.; F.action = F.Heal_partition [ "n1"; "n3" ] };
          { F.time = 20.; F.action = F.Restart "n2" };
        ];
    }
  in
  Alcotest.(check bool) "new actions survive the text round-trip" true
    (F.of_string (F.to_string plan) = plan);
  for seed = 1 to 25 do
    let plan =
      F.generate ~extended:true
        ~rng:(Sim.Rng.create seed)
        ~addrs ~horizon:60. ~intensity:(1 + (seed mod 4)) ()
    in
    Alcotest.(check bool) "generated extended plan round-trips" true
      (F.of_string (F.to_string plan) = plan)
  done

let test_extended_campaign_passes () =
  let cfg =
    {
      cfg with
      C.extended_faults = true;
      C.checkpoint =
        Some
          (Filename.concat
             (Filename.get_temp_dir_name ())
             (Fmt.str "p2camp-test-%d" (Unix.getpid ())));
    }
  in
  let runs = C.sweep cfg ~seeds:[ 3; 4 ] ~intensities:[ 2 ] () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Fmt.str "seed %d heals through partition/restart faults" r.C.seed)
        true (not (C.failed r)))
    runs

(* --- campaigns --- *)

let test_baseline_passes () =
  let run = C.run_plan cfg ~seed:1 (F.empty 30.) in
  Alcotest.(check bool) "fault-free run passes" true (not (C.failed run));
  Alcotest.(check bool) "oracle sampled" true (run.C.stats.C.oracle.Harness.Oracle.checks > 10)

let test_campaign_reproducible () =
  let r1 = C.run_seed cfg ~seed:2 ~intensity:2 () in
  let r2 = C.run_seed cfg ~seed:2 ~intensity:2 () in
  Alcotest.(check string) "reports identical bit-for-bit"
    (Fmt.str "%a" C.pp_report [ r1 ])
    (Fmt.str "%a" C.pp_report [ r2 ]);
  Alcotest.(check bool) "run records structurally equal" true (r1 = r2)

(* The seed-1, intensity-1 cell of the CI smoke campaign, pinned whole:
   the frame count and every verdict. A change to what the pipeline
   ships or when (the batching scope, the flush point) moves a number
   here and shows up as a diff. *)
let golden_cell =
  "seed=1    intensity=1 actions=1  PASS tx=5766   drop=0     \
   unhealthy=9/106 alarms=1   probes=13/14 wrong=0"

let test_campaign_golden () =
  let r = C.run_seed cfg ~seed:1 ~intensity:1 () in
  Alcotest.(check string) "report line" golden_cell (Fmt.str "%a" C.pp_run r)

(* The extended cell whose plan exercises join, partition,
   heal-partition, loss, cut, crash, heal and restart — every kind of
   action a generated plan applies through the interpreter — pinned
   whole like the seed-1 cell. *)
let extended_cell =
  "seed=8    intensity=3 actions=9  PASS tx=8917   drop=234   \
   unhealthy=32/106 alarms=11  probes=13/14 wrong=0"

let test_extended_golden () =
  let cfg = { cfg with C.extended_faults = true } in
  let kind { F.action; _ } =
    List.hd (String.split_on_char ' ' (Fmt.str "%a" F.pp_action action))
  in
  let kinds =
    List.sort_uniq compare
      (List.map kind (C.plan_of_seed cfg ~seed:8 ~intensity:3).F.actions)
  in
  Alcotest.(check (list string)) "action kinds"
    [ "crash"; "cut"; "heal"; "heal-partition"; "join"; "loss"; "partition"; "restart" ]
    kinds;
  let r = C.run_seed cfg ~seed:8 ~intensity:3 () in
  Alcotest.(check string) "report line" extended_cell (Fmt.str "%a" C.pp_run r)

let test_smoke_sweep () =
  let runs = C.sweep cfg ~seeds:[ 1; 2 ] ~intensities:[ 1 ] () in
  Alcotest.(check int) "sweep covers the grid" 2 (List.length runs);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Fmt.str "seed %d heals and passes" r.C.seed)
        true (not (C.failed r)))
    runs

let test_planted_corruption_caught_and_shrunk () =
  let plan =
    C.plan_of_seed cfg ~seed:1 ~intensity:1
    |> F.plant_corruption ~rng:(Sim.Rng.create 41) ~addrs ~time:30.
  in
  let run = C.run_plan cfg ~seed:1 plan in
  Alcotest.(check bool) "planted corruption detected" true (C.failed run);
  (match run.C.outcome with
  | C.Fail vs ->
      Alcotest.(check bool) "oracle reports an unhealed violation" true
        (List.exists (fun v -> v.Harness.Oracle.kind = "unhealed") vs)
  | C.Pass -> ());
  let shrunk, attempts = C.shrink cfg ~seed:1 run.C.plan in
  Alcotest.(check bool) "shrinker ran" true (attempts > 0);
  Alcotest.(check bool)
    (Fmt.str "shrunk to <= 3 actions (got %d)" (F.length shrunk))
    true
    (F.length shrunk <= 3);
  (* the printed schedule is the replay artifact: re-reading it must
     reproduce the failure *)
  let replayed = F.of_string (F.to_string shrunk) in
  Alcotest.(check bool) "replayed shrunk plan still fails" true
    (C.failed (C.run_plan cfg ~seed:1 replayed))

let () =
  Alcotest.run "harness"
    [
      ( "fault_plan",
        [
          Alcotest.test_case "text round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "deterministic generation" `Quick
            test_plan_generation_deterministic;
          Alcotest.test_case "landmark protected" `Quick test_plan_landmark_protected;
          Alcotest.test_case "shrink operations" `Quick test_plan_shrink_ops;
          Alcotest.test_case "extended generation" `Quick
            test_extended_generation;
          Alcotest.test_case "extended text round-trip" `Quick
            test_extended_roundtrip;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "baseline passes" `Slow test_baseline_passes;
          Alcotest.test_case "reproducible" `Slow test_campaign_reproducible;
          Alcotest.test_case "smoke sweep" `Slow test_smoke_sweep;
          Alcotest.test_case "seed-1 cell matches pinned golden" `Slow
            test_campaign_golden;
          Alcotest.test_case "extended seed-8 cell matches pinned golden" `Slow
            test_extended_golden;
          Alcotest.test_case "extended sweep with checkpoints" `Slow
            test_extended_campaign_passes;
          Alcotest.test_case "planted corruption caught, shrunk" `Slow
            test_planted_corruption_caught_and_shrunk;
        ] );
    ]
