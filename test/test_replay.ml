(* Flight-recorder end-to-end oracles.

   - Replay equivalence: a live traced run spills its records through
     the engine's segment-log path; replaying the log must rebuild
     exactly the live tracer's ruleExec / tupleTable contents.
   - Windowed replay: restoring [--from/--to] must equal the live
     rows filtered on their tOut stamp (ruleExec records are stamped
     with tOut for precisely this reason).
   - Shard determinism: per-node log files are byte-identical across
     shard counts, because flushes happen only at single-threaded
     tick barriers in per-node append order.
   - Sanitized spill: recording during a sharded, sanitized run must
     never trip the effect discipline (file I/O is node-local). *)

module Engine = P2_runtime.Engine
module Node = P2_runtime.Node
open Overlog

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "p2replay_test_%d_%d" (Unix.getpid ()) !dir_counter)

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> Framed.rm_rf dir) (fun () -> f dir)

(* A small cross-node workload: a periodic driver on every node ships
   pings around a three-node line, so the trace holds local rules,
   remote deliveries, and steady periodic traffic. *)
let program =
  {|
materialize(seen, infinity, infinity, keys(1,2)).
g1 ping@b(E) :- periodic@a(E, 1.0).
g2 pong@c(E) :- ping@b(E).
g3 seen@N(E) :- pong@N(E).
|}

let addrs = [ "a"; "b"; "c" ]

(* Run the workload live with the flight recorder on. The live nodes
   use the expiry-free replay tracer config so their in-RAM tables
   still hold the full history at comparison time. *)
let record_live ~dir ~duration =
  let engine = Engine.create ~seed:7 ~trace:true () in
  Engine.set_trace_log engine dir;
  List.iter
    (fun a ->
      ignore
        (Engine.add_node ~tracer_config:Dataflow.Tracer.replay_config engine a))
    addrs;
  Engine.install_all engine program;
  Engine.run_for engine duration;
  Engine.close_trace_logs engine;
  engine

let canon tuple =
  Fmt.str "%s(%s)" (Tuple.name tuple)
    (String.concat "," (List.map Value.to_string (Tuple.fields tuple)))

let canon_table table ~now =
  Store.Table.tuples table ~now |> List.map canon |> List.sort String.compare

let tracer_tables engine addr =
  let tracer = Node.tracer (Engine.node engine addr) in
  let now = Engine.now engine in
  ( canon_table (Dataflow.Tracer.rule_exec_table tracer) ~now,
    canon_table (Dataflow.Tracer.tuple_table tracer) ~now )

let t_out_of row =
  match Tuple.fields row with
  | [ _; _; _; _; _; Value.VFloat t_out; _ ] -> t_out
  | _ -> Alcotest.fail "malformed ruleExec row"

(* --- full-range equivalence --- *)

let test_replay_equals_live () =
  with_dir @@ fun dir ->
  let live = record_live ~dir ~duration:30. in
  let replayed = Core.Replay.load ~dir () in
  Alcotest.(check (list string))
    "replay rebuilt every node" addrs
    (List.map (fun r -> r.Core.Replay.addr) replayed.Core.Replay.reports);
  List.iter
    (fun r -> Alcotest.(check bool) "restored records" true (r.Core.Replay.restored > 0))
    replayed.Core.Replay.reports;
  List.iter
    (fun addr ->
      let live_re, live_tt = tracer_tables live addr in
      let rep_re, rep_tt = tracer_tables replayed.Core.Replay.engine addr in
      Alcotest.(check bool) "live trace is non-trivial" true
        (List.length live_re > 0 && List.length live_tt > 0);
      Alcotest.(check (list string))
        (addr ^ ": ruleExec replayed exactly")
        live_re rep_re;
      Alcotest.(check (list string))
        (addr ^ ": tupleTable replayed exactly")
        live_tt rep_tt)
    addrs

(* --- time-windowed replay --- *)

let test_windowed_replay () =
  with_dir @@ fun dir ->
  let live = record_live ~dir ~duration:30. in
  let from_, to_ = (10., 20.) in
  let replayed = Core.Replay.load ~from_ ~to_ ~dir () in
  List.iter
    (fun addr ->
      let live_tracer = Node.tracer (Engine.node live addr) in
      let now = Engine.now live in
      let live_window =
        Store.Table.tuples (Dataflow.Tracer.rule_exec_table live_tracer) ~now
        |> List.filter (fun row ->
               let t = t_out_of row in
               from_ <= t && t <= to_)
        |> List.map canon |> List.sort String.compare
      in
      Alcotest.(check bool) "window is non-trivial" true
        (List.length live_window > 0);
      let rep_re, _ = tracer_tables replayed.Core.Replay.engine addr in
      Alcotest.(check (list string))
        (addr ^ ": windowed replay = live rows filtered on tOut")
        live_window rep_re)
    addrs

(* --- a historical query over the restored window --- *)

let test_historical_query () =
  with_dir @@ fun dir ->
  ignore (record_live ~dir ~duration:30.);
  (* count rule executions per rule id, hours after the fact *)
  let query =
    {|
materialize(execs, infinity, infinity, keys(1,2)).
q1 execs@N(R, count<*>) :- ruleExec@N(R, C, E, TC, TO, EV).
|}
  in
  let replayed = Core.Replay.load ~program:query ~dir () in
  let engine = replayed.Core.Replay.engine in
  let rules_seen =
    List.concat_map
      (fun addr ->
        let node = Engine.node engine addr in
        match Store.Catalog.find (Node.catalog node) "execs" with
        | None -> []
        | Some table ->
            List.filter_map
              (fun row ->
                match Tuple.fields row with
                | [ _; Value.VStr rule; Value.VInt n ] when n > 0 -> Some rule
                | _ -> None)
              (Store.Table.tuples table ~now:(Engine.now engine)))
      addrs
  in
  (* the workload's own rules must show up in the historical count *)
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " counted") true (List.mem rule rules_seen))
    [ "g1"; "g2"; "g3" ]

(* --- shard determinism of the on-disk log --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let record_chord ~dir ~shards ~sanitize =
  let engine = Engine.create ~seed:11 ~trace:true () in
  Engine.set_shards engine shards;
  if sanitize then Engine.set_sanitize engine true;
  Engine.set_trace_log engine dir;
  let net = Chord.boot engine 6 in
  Engine.run_until engine 60.;
  Engine.close_trace_logs engine;
  ignore net;
  engine

let log_files dir =
  Core.Replay.node_dirs dir
  |> List.concat_map (fun addr ->
         let node_dir = Filename.concat dir addr in
         Sys.readdir node_dir |> Array.to_list |> List.sort String.compare
         |> List.map (fun f -> (Filename.concat addr f, Filename.concat node_dir f)))

let test_shard_byte_identity () =
  with_dir @@ fun dir1 ->
  with_dir @@ fun dir2 ->
  ignore (record_chord ~dir:dir1 ~shards:1 ~sanitize:false);
  ignore (record_chord ~dir:dir2 ~shards:2 ~sanitize:false);
  let files1 = log_files dir1 and files2 = log_files dir2 in
  Alcotest.(check (list string))
    "same segment inventory" (List.map fst files1) (List.map fst files2);
  Alcotest.(check bool) "some segments recorded" true (files1 <> []);
  List.iter2
    (fun (rel, p1) (_, p2) ->
      Alcotest.(check bool)
        (rel ^ " byte-identical across shard counts")
        true
        (read_file p1 = read_file p2))
    files1 files2

let test_sanitized_spill () =
  with_dir @@ fun dir ->
  (* must complete without Engine.Discipline_violation: segment-log
     writes are node-local and happen at barriers only *)
  let engine = record_chord ~dir ~shards:2 ~sanitize:true in
  Alcotest.(check bool) "recording happened" true
    (Core.Replay.node_dirs dir <> []);
  List.iter
    (fun (s : Seglog.segment) ->
      Alcotest.(check bool) "segments intact" true (Seglog.intact s))
    (List.concat_map
       (fun addr -> Seglog.segments ~dir:(Filename.concat dir addr))
       (Core.Replay.node_dirs dir));
  ignore engine

(* --- spill-mode memory discipline --- *)

let test_spill_config_shrinks_ram () =
  (* with the recorder on, nodes default to the spill tracer config:
     the in-RAM ruleExec window stays bounded by its cap while the
     on-disk log keeps the full history *)
  with_dir @@ fun dir ->
  let engine = Engine.create ~seed:7 ~trace:true () in
  Engine.set_trace_log engine dir;
  List.iter (fun a -> ignore (Engine.add_node engine a)) addrs;
  Engine.install_all engine program;
  Engine.run_for engine 60.;
  Engine.close_trace_logs engine;
  let disk_records =
    List.fold_left
      (fun acc addr ->
        let records = ref 0 in
        Seglog.iter ~dir:(Filename.concat dir addr) (fun _ -> incr records);
        acc + !records)
      0 addrs
  in
  let ram_rows =
    List.fold_left
      (fun acc addr ->
        let tracer = Node.tracer (Engine.node engine addr) in
        acc
        + Store.Table.size
            (Dataflow.Tracer.rule_exec_table tracer)
            ~now:(Engine.now engine))
      0 addrs
  in
  Alcotest.(check bool) "disk log holds more history than RAM" true
    (disk_records > ram_rows);
  Alcotest.(check bool)
    "in-RAM window bounded by the spill cap" true
    (ram_rows
    <= List.length addrs * Dataflow.Tracer.spill_config.Dataflow.Tracer.rule_exec_cap)

let () =
  Alcotest.run "replay"
    [
      ( "oracle",
        [
          Alcotest.test_case "replay equals live" `Quick test_replay_equals_live;
          Alcotest.test_case "windowed replay" `Quick test_windowed_replay;
          Alcotest.test_case "historical query" `Quick test_historical_query;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shard byte identity" `Slow test_shard_byte_identity;
          Alcotest.test_case "sanitized spill run" `Slow test_sanitized_spill;
        ] );
      ( "memory",
        [
          Alcotest.test_case "spill config shrinks RAM" `Quick
            test_spill_config_shrinks_ram;
        ] );
    ]
