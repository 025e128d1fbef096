(* Durable checkpoints (lib/core/checkpoint) and crash-restart
   recovery (Engine.restart): snapshot round-trips, retention,
   damage fallback, atomicity guarantees, hard-state restoration on
   restart, and the cross-shard byte-identity of seeded checkpoint
   streams. *)

open Overlog
module Engine = P2_runtime.Engine

let tmpdir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "p2ck-test-%d-%d" (Unix.getpid ()) !n)
    in
    Framed.rm_rf d;
    d

let tuple name fields = Tuple.make name fields

let tables =
  [
    ( "bestSucc",
      [ tuple "bestSucc" [ Value.VStr "n1"; Value.VInt 42; Value.VStr "n2" ] ] );
    ( "node",
      [ tuple "node" [ Value.VStr "n1"; Value.VInt 7 ] ] );
  ]

(* --- format --- *)

let test_roundtrip () =
  let dir = tmpdir () in
  let w = Checkpoint.create ~dir () in
  let path = Checkpoint.write w ~stamp:12.5 ~tables in
  Checkpoint.close w;
  match Checkpoint.read path with
  | Error e -> Alcotest.fail e
  | Ok snap ->
      Alcotest.(check (float 0.)) "stamp preserved" 12.5 snap.Checkpoint.stamp;
      Alcotest.(check int) "two tables" 2 (List.length snap.Checkpoint.tables);
      let t = List.hd snap.Checkpoint.tables in
      Alcotest.(check string) "table name" "bestSucc" t.Checkpoint.name;
      let m = List.hd t.Checkpoint.rows in
      Alcotest.(check string) "tuple name" "bestSucc" m.Wire.name;
      Alcotest.(check bool) "fields preserved" true
        (m.Wire.fields
        = [ Value.VStr "n1"; Value.VInt 42; Value.VStr "n2" ])

let test_numbering_and_latest () =
  let dir = tmpdir () in
  let w = Checkpoint.create ~dir () in
  ignore (Checkpoint.write w ~stamp:1. ~tables);
  ignore (Checkpoint.write w ~stamp:2. ~tables);
  Checkpoint.close w;
  (* a re-opened writer continues the numbering *)
  let w2 = Checkpoint.create ~dir () in
  ignore (Checkpoint.write w2 ~stamp:3. ~tables);
  Checkpoint.close w2;
  let files = Checkpoint.files ~dir in
  Alcotest.(check (list int)) "indices continue across reopen" [ 0; 1; 2 ]
    (List.map fst files);
  match Checkpoint.latest ~dir with
  | Some s -> Alcotest.(check (float 0.)) "latest is newest" 3. s.Checkpoint.stamp
  | None -> Alcotest.fail "no latest snapshot"

let test_retention () =
  let dir = tmpdir () in
  let w =
    Checkpoint.create
      ~config:{ Checkpoint.default_config with retain = Some 2 }
      ~dir ()
  in
  for i = 1 to 5 do
    ignore (Checkpoint.write w ~stamp:(float_of_int i) ~tables)
  done;
  let st = Checkpoint.stats w in
  Checkpoint.close w;
  Alcotest.(check int) "retention deleted the oldest" 3
    st.Checkpoint.retention_drops;
  Alcotest.(check (list int)) "newest two remain" [ 3; 4 ]
    (List.map fst (Checkpoint.files ~dir))

let test_damage_fallback () =
  let dir = tmpdir () in
  let w = Checkpoint.create ~dir () in
  ignore (Checkpoint.write w ~stamp:1. ~tables);
  let newest = Checkpoint.write w ~stamp:2. ~tables in
  Checkpoint.close w;
  (* flip one body byte of the newest snapshot *)
  let oc = open_out_gen [ Open_binary; Open_wronly ] 0o644 newest in
  seek_out oc 60;
  output_char oc '\xff';
  close_out oc;
  (match Checkpoint.read newest with
  | Ok _ -> Alcotest.fail "corrupted snapshot read back as intact"
  | Error _ -> ());
  (match Checkpoint.latest ~dir with
  | Some s ->
      Alcotest.(check (float 0.)) "latest skips the damaged newest" 1.
        s.Checkpoint.stamp
  | None -> Alcotest.fail "older intact snapshot not found");
  let infos = Checkpoint.inventory ~dir in
  Alcotest.(check int) "inventory lists both" 2 (List.length infos);
  Alcotest.(check (list bool)) "inventory flags exactly the damaged one"
    [ true; false ]
    (List.map (fun i -> i.Checkpoint.i_ok) infos)

let test_no_tmp_left_behind () =
  let dir = tmpdir () in
  let w = Checkpoint.create ~dir () in
  ignore (Checkpoint.write w ~stamp:1. ~tables);
  Checkpoint.close w;
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> not (Filename.check_suffix f ".p2ck"))
  in
  Alcotest.(check (list string)) "only .p2ck files on disk" [] leftovers

let test_stale_tmp_removed () =
  let dir = tmpdir () in
  let w = Checkpoint.create ~dir () in
  ignore (Checkpoint.write w ~stamp:1. ~tables);
  ignore (Checkpoint.write w ~stamp:2. ~tables);
  Checkpoint.close w;
  (* a crash between the temp write and its rename leaves this *)
  let stale = Filename.concat dir "ckpt-00000002.p2ck.tmp" in
  Out_channel.with_open_bin stale (fun oc -> output_string oc "torn");
  let stamp_of = Option.map (fun s -> s.Checkpoint.stamp) in
  let latest_before = stamp_of (Checkpoint.latest ~dir) in
  let w = Checkpoint.create ~dir () in
  Alcotest.(check bool) "opening a writer removes the stale tmp" false
    (Sys.file_exists stale);
  Alcotest.(check (option (float 0.))) "latest unchanged" latest_before
    (stamp_of (Checkpoint.latest ~dir));
  Alcotest.(check (list int)) "snapshots untouched" [ 0; 1 ]
    (List.map fst (Checkpoint.files ~dir));
  (* a write that raises (here the rename: a directory holds the
     target name) must not leave its tmp behind either *)
  let target = Filename.concat dir "ckpt-00000002.p2ck" in
  Unix.mkdir target 0o755;
  (match Checkpoint.write w ~stamp:3. ~tables with
  | _ -> Alcotest.fail "write onto a directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "failed write removed its tmp" false
    (Sys.file_exists (target ^ ".tmp"));
  Unix.rmdir target;
  let path = Checkpoint.write w ~stamp:3. ~tables in
  Checkpoint.close w;
  Alcotest.(check string) "numbering unchanged" "ckpt-00000002.p2ck"
    (Filename.basename path)

(* A fixed snapshot must be exactly these bytes: length and MD5 of
   the whole file, captured from the format as first shipped
   (version 1). *)
let test_format_pinned () =
  let dir = tmpdir () in
  let w = Checkpoint.create ~dir () in
  ignore (Checkpoint.write w ~stamp:1. ~tables);
  let path = Checkpoint.write w ~stamp:12.5 ~tables in
  Checkpoint.close w;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check (triple string int string))
    "snapshot file"
    ("ckpt-00000001.p2ck", 156, "a9f10930741d6836047b32852e7eba3a")
    (Filename.basename path, String.length s, Digest.to_hex (Digest.string s))

(* --- engine integration --- *)

let settle = 120.

let booted ?(nodes = 7) ?(seed = 5) ?shards ?checkpoint () =
  let engine = Engine.create ~seed () in
  Option.iter (Engine.set_shards engine) shards;
  (match checkpoint with
  | Some dir -> Engine.set_checkpoint engine dir
  | None -> ());
  let net = Chord.boot engine nodes in
  Engine.run_until engine settle;
  (engine, net)

let test_periodic_snapshots_written () =
  let dir = tmpdir () in
  let engine, net = booted ~checkpoint:dir () in
  Alcotest.(check (option string)) "dir readback" (Some dir)
    (Engine.checkpoint_dir engine);
  List.iter
    (fun addr ->
      let files = Checkpoint.files ~dir:(Filename.concat dir addr) in
      Alcotest.(check bool)
        (Fmt.str "%s wrote snapshots" addr)
        true (files <> []);
      match Checkpoint.latest ~dir:(Filename.concat dir addr) with
      | Some s ->
          Alcotest.(check bool) "snapshot has hard-state tables" true
            (List.exists
               (fun t -> t.Checkpoint.name = "bestSucc")
               s.Checkpoint.tables)
      | None -> Alcotest.fail "no intact snapshot")
    net.Chord.addrs;
  Engine.close_checkpoints engine

let test_restart_restores_hard_state () =
  let dir = tmpdir () in
  let engine, net = booted ~checkpoint:dir () in
  let victim =
    List.find (fun a -> a <> net.Chord.landmark) (List.rev net.Chord.addrs)
  in
  let succ_before = Chord.best_succ net victim in
  Engine.crash engine victim;
  Engine.run_for engine 3.;
  let o = Engine.restart engine victim in
  (match o.Engine.recovered_from with
  | `Checkpoint (_, stamp) ->
      Alcotest.(check bool) "recovered from a pre-crash snapshot" true
        (stamp <= settle)
  | `Cold -> Alcotest.fail "expected checkpointed recovery");
  Alcotest.(check bool) "restored rows" true (o.Engine.restored_rows > 0);
  Alcotest.(check int) "nothing skipped" 0 o.Engine.skipped_rows;
  (* the restored successor pointer is visible without any protocol round *)
  Alcotest.(check bool) "bestSucc restored verbatim" true
    (Chord.best_succ net victim = succ_before);
  Engine.run_for engine 30.;
  Alcotest.(check bool) "ring converges after restart" true
    (Chord.ring_correct net);
  Engine.close_checkpoints engine

let test_restart_cold_without_checkpoints () =
  let engine, net = booted () in
  let victim =
    List.find (fun a -> a <> net.Chord.landmark) (List.rev net.Chord.addrs)
  in
  Engine.crash engine victim;
  Engine.run_for engine 3.;
  let o = Engine.restart engine victim in
  Alcotest.(check bool) "cold outcome" true (o.Engine.recovered_from = `Cold);
  Alcotest.(check int) "no rows restored" 0 o.Engine.restored_rows;
  (* the reborn node is empty but alive *)
  Alcotest.(check bool) "node is back" true (Engine.node_opt engine victim <> None);
  Alcotest.(check bool) "hard state empty" true (Chord.best_succ net victim = None)

(* The default engine is the baseline; every sharded arm must write
   the same snapshot stream byte for byte. *)
let test_checkpoints_byte_identical_across_shards () =
  let dirs =
    List.map
      (fun shards ->
        let dir = tmpdir () in
        let engine, _ = booted ?shards ~checkpoint:dir () in
        Engine.close_checkpoints engine;
        (shards, dir))
      [ None; Some 2; Some 4 ]
  in
  let read_all dir =
    Core.Replay.node_dirs dir
    |> List.concat_map (fun addr ->
           Checkpoint.files ~dir:(Filename.concat dir addr)
           |> List.map (fun (i, path) ->
                  let ic = open_in_bin path in
                  let n = in_channel_length ic in
                  let bytes = really_input_string ic n in
                  close_in ic;
                  (addr, i, bytes)))
  in
  match dirs with
  | (_, base) :: rest ->
      let baseline = read_all base in
      Alcotest.(check bool) "baseline wrote snapshots" true (baseline <> []);
      List.iter
        (fun (shards, dir) ->
          Alcotest.(check bool)
            (Fmt.str "shards=%d stream byte-identical to the default engine"
               (Option.get shards))
            true
            (read_all dir = baseline))
        rest
  | [] -> assert false

let () =
  Alcotest.run "checkpoint"
    [
      ( "format",
        [
          Alcotest.test_case "snapshot round-trip" `Quick test_roundtrip;
          Alcotest.test_case "numbering and latest" `Quick
            test_numbering_and_latest;
          Alcotest.test_case "retention" `Quick test_retention;
          Alcotest.test_case "damage fallback" `Quick test_damage_fallback;
          Alcotest.test_case "atomic writes leave no tmp files" `Quick
            test_no_tmp_left_behind;
          Alcotest.test_case "stale tmp removed on open" `Quick
            test_stale_tmp_removed;
          Alcotest.test_case "format pinned" `Quick test_format_pinned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "periodic snapshots written" `Slow
            test_periodic_snapshots_written;
          Alcotest.test_case "restart restores hard state" `Slow
            test_restart_restores_hard_state;
          Alcotest.test_case "restart cold-boots without checkpoints" `Slow
            test_restart_cold_without_checkpoints;
          Alcotest.test_case "byte-identical across shard counts" `Slow
            test_checkpoints_byte_identical_across_shards;
        ] );
    ]
