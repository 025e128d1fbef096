(* The recovery-time oracle (ISSUE 10 acceptance): on a 21-node ring
   under a crash + partition plan, a checkpointed restart must reach
   ring-invariant convergence in strictly fewer probe ticks than a
   cold rejoin through the landmark — and the verdict must be
   identical however the simulation is sharded. *)

module R = Harness.Recovery

let dir suffix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "p2rec-test-%d-%s" (Unix.getpid ()) suffix)

let measure ?shards arm suffix =
  R.measure ?shards ~dir:(dir suffix) arm

let test_checkpointed_strictly_faster () =
  let ck = measure R.Checkpointed "ck" in
  let cold = measure R.Cold "cold" in
  Alcotest.(check bool) "checkpointed arm recovered from a snapshot" true
    ck.R.recovered_from_checkpoint;
  Alcotest.(check bool) "checkpointed arm restored hard state" true
    (ck.R.restored_rows > 0);
  Alcotest.(check bool) "cold arm restored nothing" true
    (cold.R.restored_rows = 0 && not cold.R.recovered_from_checkpoint);
  Alcotest.(check bool) "checkpoint stream non-empty" true
    (ck.R.ckpt_snapshots > 0 && ck.R.ckpt_bytes > 0);
  (* the seeded scenario, pinned: the restore re-mints 6 rows and the
     two arms converge 1 and 5 ticks after the restart *)
  Alcotest.(check int) "restored rows" 6 ck.R.restored_rows;
  Alcotest.(check (option int)) "checkpointed ticks" (Some 1) ck.R.ticks_to_converge;
  Alcotest.(check (option int)) "cold ticks" (Some 5) cold.R.ticks_to_converge;
  match (ck.R.ticks_to_converge, cold.R.ticks_to_converge) with
  | Some fast, Some slow ->
      Alcotest.(check bool)
        (Fmt.str "checkpointed (%d ticks) strictly faster than cold (%d)" fast
           slow)
        true (fast < slow)
  | fast, slow ->
      Alcotest.fail
        (Fmt.str "an arm never converged (ckpt=%s cold=%s)"
           (match fast with Some n -> string_of_int n | None -> "never")
           (match slow with Some n -> string_of_int n | None -> "never"))

let test_verdict_stable_across_shards () =
  let ticks shards arm suffix =
    (measure ~shards arm (Fmt.str "%s-s%d" suffix shards)).R.ticks_to_converge
  in
  let base arm suffix = (measure arm suffix).R.ticks_to_converge in
  let base_ck = base R.Checkpointed "ck-default" in
  let base_cold = base R.Cold "cold-default" in
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Fmt.str "shards=%d checkpointed ticks match the default engine" shards)
        true
        (ticks shards R.Checkpointed "ck" = base_ck);
      Alcotest.(check bool)
        (Fmt.str "shards=%d cold ticks match the default engine" shards)
        true
        (ticks shards R.Cold "cold" = base_cold))
    [ 2; 4 ]

let () =
  Alcotest.run "recovery"
    [
      ( "oracle",
        [
          Alcotest.test_case "checkpointed restart strictly faster" `Slow
            test_checkpointed_strictly_faster;
          Alcotest.test_case "verdict stable across shard counts" `Slow
            test_verdict_stable_across_shards;
        ] );
    ]
