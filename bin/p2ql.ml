(* p2ql — command-line front end to the P2 monitoring runtime.

   Subcommands:
     parse   check & pretty-print an OverLog program
     run     execute an OverLog program on a simulated network
     chord   boot a Chord ring with optional monitors and faults

   Examples:
     p2ql parse prog.olg
     p2ql run prog.olg --nodes n1,n2,n3 --duration 30 --watch path
     p2ql chord --nodes 21 --duration 300 --monitors ring,oscillation \
          --crash n4:150 --snapshot-rate 0.1
     p2ql chord --nodes 21 --duration 300 --trace-log /tmp/flight
     p2ql inventory /tmp/flight
     p2ql replay --log /tmp/flight --from 100 --to 200 --olg query.olg
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- parse --- *)

let parse_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Also run the semantic analyzer; exit non-zero on any error")
  in
  let action file check =
    match Overlog.Parser.parse_result (read_file file) with
    | Ok program ->
        Fmt.pr "%a@." Overlog.Ast.pp_program program;
        Fmt.pr "// ok: %d statement(s)@." (List.length program);
        if not check then 0
        else begin
          let diags = Analysis.analyze program in
          List.iter (Fmt.epr "%a@." (Analysis.pp_diagnostic ~file)) diags;
          if Analysis.should_fail ~strict:false diags then 1 else 0
        end
    | Error msg ->
        Fmt.epr "parse error: %s@." msg;
        1
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Check and pretty-print an OverLog program")
    Term.(const action $ file $ check)

(* --- check --- *)

(** The embedded corpus [p2ql check --embedded] verifies: everything the
    repo generates and installs, plus epidemic (which lives outside
    [Core] because it does not ride on Chord). *)
let embedded_corpus () =
  Core.Registry.embedded
  @ [ ("epidemic", [], Epidemic.(program default_params)) ]

let check_cmd =
  let paths =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"OverLog files, or directories expanded to their *.olg files")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat warnings as fatal (hints never are)")
  in
  let json =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array")
  in
  let libs =
    Arg.(
      value & opt_all file []
      & info [ "lib" ] ~docv:"FILE"
          ~doc:
            "A co-installed program (repeatable): its tables and events \
             become external definitions for the checked programs, \
             mirroring the paper's piecemeal installs")
  in
  let embedded =
    Arg.(
      value & flag
      & info [ "embedded" ]
          ~doc:
            "Also check every program this repository embeds (Chord and \
             all monitors), each under its install-time environment")
  in
  let expand path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".olg")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  let action paths strict json libs embedded =
    if paths = [] && not embedded then begin
      Fmt.epr "p2ql check: nothing to check (give PATHs or --embedded)@.";
      2
    end
    else begin
      let env =
        List.fold_left
          (fun env file ->
            Analysis.env_of_program ~init:env
              (Overlog.Parser.parse (read_file file)))
          Analysis.empty_env libs
      in
      let file_results =
        List.concat_map expand paths
        |> List.map (fun file ->
               let _, diags = Analysis.check_source ~env (read_file file) in
               (file, diags))
      in
      let embedded_results =
        if not embedded then []
        else
          List.map
            (fun (name, lib_sources, source) ->
              let env = Core.Registry.env_of_libs lib_sources in
              let _, diags = Analysis.check_source ~env source in
              ("embedded:" ^ name, diags))
            (embedded_corpus ())
      in
      let results = file_results @ embedded_results in
      if json then begin
        let bodies =
          (* each [to_json] is a complete array; splice their elements *)
          List.filter_map
            (fun (file, diags) ->
              if diags = [] then None
              else
                let s = Analysis.to_json ~file diags in
                Some (String.sub s 1 (String.length s - 2)))
            results
        in
        Fmt.pr "[%s]@." (String.concat "," bodies)
      end
      else
        List.iter
          (fun (file, diags) ->
            List.iter (Fmt.pr "%a@." (Analysis.pp_diagnostic ~file)) diags)
          results;
      let failed =
        List.exists (fun (_, d) -> Analysis.should_fail ~strict d) results
      in
      if not json then begin
        let total = List.length results in
        let bad =
          List.length
            (List.filter (fun (_, d) -> Analysis.should_fail ~strict d) results)
        in
        Fmt.pr "// %d program(s) checked, %d failed%s@." total bad
          (if strict then " (strict)" else "")
      end;
      if failed then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Semantically analyze OverLog programs without running them")
    Term.(const action $ paths $ strict $ json $ libs $ embedded)

(* --- explain --- *)

let explain_cmd =
  let paths =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE" ~doc:"OverLog files to explain")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSON object per program (graph + diagnostics)")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the dependency graph as Graphviz dot")
  in
  let libs =
    Arg.(
      value & opt_all file []
      & info [ "lib" ] ~docv:"FILE"
          ~doc:
            "A co-installed program (repeatable): its tables and events \
             become external definitions, so their sizes and kinds inform \
             the cost classes")
  in
  let embedded =
    Arg.(
      value & flag
      & info [ "embedded" ]
          ~doc:
            "Explain every program this repository embeds, each under its \
             install-time environment")
  in
  let action paths json dot libs embedded =
    if paths = [] && not embedded then begin
      Fmt.epr "p2ql explain: nothing to explain (give FILEs or --embedded)@.";
      2
    end
    else begin
      let env =
        List.fold_left
          (fun env file ->
            Analysis.env_of_program ~init:env
              (Overlog.Parser.parse (read_file file)))
          Analysis.empty_env libs
      in
      let programs =
        List.map (fun file -> (file, env, read_file file)) paths
        @
        if not embedded then []
        else
          List.map
            (fun (name, lib_sources, source) ->
              ("embedded:" ^ name, Core.Registry.env_of_libs lib_sources, source))
            (embedded_corpus ())
      in
      let failed = ref false in
      let outputs =
        List.filter_map
          (fun (file, env, source) ->
            match Overlog.Parser.parse_result source with
            | Error msg ->
                Fmt.epr "%s: parse error: %s@." file msg;
                failed := true;
                None
            | Ok program ->
                let graph = Analysis.Cascade.build ~env program in
                let diags = Analysis.analyze ~env program in
                Some (file, graph, diags))
          programs
      in
      if json then
        Fmt.pr "[%s]@."
          (String.concat ","
             (List.map
                (fun (file, graph, diags) ->
                  Fmt.str "{\"file\":\"%s\",\"graph\":%s,\"diagnostics\":%s}"
                    file
                    (Analysis.Cascade.to_json graph)
                    (Analysis.to_json diags))
                outputs))
      else if dot then
        List.iter
          (fun (file, graph, _) ->
            Fmt.pr "// %s@.%s" file (Analysis.Cascade.to_dot graph))
          outputs
      else
        List.iter
          (fun (file, graph, diags) ->
            Fmt.pr "=== %s ===@.%a" file Analysis.Cascade.pp graph;
            if diags <> [] then begin
              Fmt.pr "@.diagnostics:@.";
              List.iter (Fmt.pr "  %a@." (Analysis.pp_diagnostic ~file)) diags
            end;
            Fmt.pr "@.")
          outputs;
      if !failed then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Annotate OverLog programs with their rule-dependency graph, \
          per-rule message/join cost classes, and cascade cycles")
    Term.(const action $ paths $ json $ dot $ libs $ embedded)

(* --- run --- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed")

let duration_arg =
  Arg.(
    value & opt float 30.
    & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc:"Simulated duration")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Enable execution tracing on all nodes")

(* The one evaluation switch: engines run semi-naive with delta
   batching; [--naive] is the ablation — full-body re-enumeration on
   every table delta, batching off. *)
let naive_arg =
  Arg.(
    value & flag
    & info [ "naive" ]
        ~doc:
          "Naive evaluation ablation: re-enumerate full rule bodies on every \
           table delta and ship every re-derivation unbatched")

(* Shard count of the round/barrier event loop: node ids are hashed
   onto N shards, and every N reproduces the same seeded simulation
   bit-for-bit. *)
let shards_arg =
  let count =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error ("shard count must be >= 1, got " ^ s)),
        Fmt.int )
  in
  Arg.(
    value & opt count 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition nodes onto $(docv) shards, each drained on its own \
           domain between deterministic tick barriers")

(* The sanitizer only ever turns on here: engines may already start
   sanitized via P2QL_SANITIZE=1, and the flag's absence must not
   override that. *)
let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Enable the shard effect-discipline sanitizer: direct mutation of \
           barrier-owned engine state during a shard drain raises \
           $(b,Engine.Discipline_violation) instead of silently racing. \
           Also on when $(b,P2QL_SANITIZE=1) is in the environment. Runs \
           are bit-for-bit identical with it on or off")

let apply_sanitize engine b =
  if b then P2_runtime.Engine.set_sanitize engine true

(* Flight recorder: spill every node's trace records to an on-disk
   segment log; inspect afterwards with [p2ql inventory] and
   [p2ql replay]. Applied before nodes exist, so they all pick up the
   shrunk spill-mode tracer window. *)
let trace_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-log" ] ~docv:"DIR"
        ~doc:
          "Record a flight-recorder segment log under $(docv)/ADDR/ for \
           every node (enables tracing, with the shrunk in-RAM spill \
           window). Inspect afterwards with $(b,p2ql inventory) and \
           $(b,p2ql replay)")

let apply_trace_log engine dir =
  Option.iter (fun d -> P2_runtime.Engine.set_trace_log engine d) dir

(* Durable checkpoints: snapshot every node's hard-state tables to
   DIR/ADDR/ on a periodic cadence; [Engine.restart] then recovers a
   crashed node from its newest intact snapshot. Inspect afterwards
   with [p2ql inventory]. *)
let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Write durable checkpoints of every node's hard-state tables \
           under $(docv)/ADDR/; restarts recover from the newest intact \
           snapshot. Inspect afterwards with $(b,p2ql inventory)")

let checkpoint_interval_arg =
  Arg.(
    value & opt float 10.
    & info [ "checkpoint-interval" ] ~docv:"SECONDS"
        ~doc:"Virtual seconds between checkpoint snapshots (default 10)")

let apply_checkpoint engine dir interval =
  Option.iter
    (fun d ->
      P2_runtime.Engine.set_checkpoint engine
        ~config:{ Checkpoint.default_config with interval }
        d)
    dir

(* The fault flags' one grammar, ADDR:TIME[:TIME2]: each given flag's
   times map, in order, onto its action constructors, as one fault
   plan. A malformed spec, or an address outside the ring, is reported
   on stderr and adds nothing. *)
let fault_plan (net : Chord.network) ~duration flags =
  let actions (flag, kinds, spec) =
    match spec with
    | None -> []
    | Some spec -> (
        let bad () =
          Fmt.epr "bad %s spec %S (want ADDR:TIME%s)@." flag spec
            (if List.length kinds > 1 then "[:TIME2]" else "");
          []
        in
        match String.split_on_char ':' spec with
        | addr :: (_ :: _ as times) when List.length times <= List.length kinds -> (
            match List.map float_of_string times with
            | exception Failure _ -> bad ()
            | _ when not (List.mem addr net.addrs) ->
                Fmt.epr "p2ql: %s: unknown node %s@." flag addr;
                []
            | times ->
                List.mapi
                  (fun i time ->
                    { Harness.Fault_plan.time; action = List.nth kinds i addr })
                  times)
        | _ -> bad ())
  in
  Harness.Fault_plan.make ~horizon:duration (List.concat_map actions flags)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let nodes =
    Arg.(
      value
      & opt (list string) [ "n1"; "n2"; "n3" ]
      & info [ "nodes" ] ~docv:"ADDRS" ~doc:"Comma-separated node addresses")
  in
  let watches =
    Arg.(
      value & opt (list string) []
      & info [ "watch" ] ~docv:"NAMES" ~doc:"Tuple names to print when they appear")
  in
  let dump =
    Arg.(
      value & opt (list string) []
      & info [ "dump" ] ~docv:"TABLES" ~doc:"Tables to dump at the end of the run")
  in
  let action file nodes seed duration trace naive shards sanitize
      trace_log checkpoint checkpoint_interval watches dump =
    let engine = P2_runtime.Engine.create ~seed ~trace () in
    if naive then P2_runtime.Engine.set_seminaive engine false;
    P2_runtime.Engine.set_shards engine shards;
    apply_sanitize engine sanitize;
    apply_trace_log engine trace_log;
    apply_checkpoint engine checkpoint checkpoint_interval;
    List.iter (fun a -> ignore (P2_runtime.Engine.add_node engine a)) nodes;
    (match Overlog.Parser.parse_result (read_file file) with
    | Error msg ->
        Fmt.epr "parse error: %s@." msg;
        exit 1
    | Ok program ->
        List.iter (fun a -> P2_runtime.Engine.install_ast engine a program) nodes);
    List.iter
      (fun name ->
        List.iter
          (fun addr ->
            P2_runtime.Engine.watch engine addr name (fun t ->
                Fmt.pr "[%8.3f] %s: %a@." (P2_runtime.Engine.now engine) addr
                  Overlog.Tuple.pp t))
          nodes)
      watches;
    P2_runtime.Engine.run_for engine duration;
    List.iter
      (fun table_name ->
        Fmt.pr "@.=== %s ===@." table_name;
        List.iter
          (fun addr ->
            let node = P2_runtime.Engine.node engine addr in
            match Store.Catalog.find (P2_runtime.Node.catalog node) table_name with
            | Some table ->
                List.iter
                  (fun t -> Fmt.pr "%s: %a@." addr Overlog.Tuple.pp t)
                  (Store.Table.tuples table ~now:(P2_runtime.Engine.now engine))
            | None -> ())
          nodes)
      dump;
    P2_runtime.Engine.close_trace_logs engine;
    P2_runtime.Engine.close_checkpoints engine;
    0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an OverLog program on a simulated network")
    Term.(
      const action $ file $ nodes $ seed_arg $ duration_arg $ trace_arg
      $ naive_arg $ shards_arg $ sanitize_arg $ trace_log_arg
      $ checkpoint_arg $ checkpoint_interval_arg $ watches $ dump)

(* --- chord --- *)

let chord_cmd =
  let n =
    Arg.(value & opt int 8 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Ring size")
  in
  let monitors =
    Arg.(
      value & opt (list string) []
      & info [ "monitors" ] ~docv:"LIST"
          ~doc:"Monitors to install: ring, ordering, oscillation, consistency")
  in
  let crash =
    Arg.(
      value & opt (some string) None
      & info [ "crash" ] ~docv:"ADDR:TIME" ~doc:"Crash a node at a given time")
  in
  let restart =
    Arg.(
      value & opt (some string) None
      & info [ "restart" ] ~docv:"ADDR:TIME"
          ~doc:
            "Restart a crashed node at a given time: recover its hard \
             state from the newest intact checkpoint when $(b,--checkpoint) \
             is set, cold-boot and rejoin through the landmark otherwise \
             (a cold landmark only reboots: the others rejoin through it)")
  in
  let snapshot_rate =
    Arg.(
      value & opt (some float) None
      & info [ "snapshot-rate" ] ~docv:"HZ" ~doc:"Periodic consistent snapshots")
  in
  let buggy =
    Arg.(
      value & flag
      & info [ "buggy" ] ~doc:"Use the incorrect Chord that recycles dead neighbors")
  in
  let lookups =
    Arg.(
      value & opt int 0
      & info [ "lookups" ] ~docv:"N" ~doc:"Random lookups to issue at the end")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the derivation graph of the first answered lookup as \
             Graphviz dot (implies --trace and --lookups >= 1)")
  in
  let action n seed duration trace shards sanitize trace_log checkpoint
      checkpoint_interval monitors crash restart snapshot_rate buggy lookups
      dot =
    let trace = trace || dot <> None in
    let lookups = if dot <> None then max 1 lookups else lookups in
    let engine = P2_runtime.Engine.create ~seed ~trace () in
    P2_runtime.Engine.set_shards engine shards;
    apply_sanitize engine sanitize;
    apply_trace_log engine trace_log;
    apply_checkpoint engine checkpoint checkpoint_interval;
    let params = if buggy then Chord.buggy_params else Chord.default_params in
    let net = Chord.boot ~params engine n in
    let traced : (string * int) option ref = ref None in
    let collectors = ref [] in
    let monitor name =
      match name with
      | "ring" ->
          let c = Core.Ring_check.install ~active:true net in
          collectors :=
            !collectors @ [ ("inconsistentPred", c.pred_alarms);
                            ("inconsistentSucc", c.succ_alarms) ]
      | "ordering" ->
          let closer, problems, ok = Core.Ordering.install net in
          collectors :=
            !collectors
            @ [ ("closerID", closer); ("orderingProblem", problems);
                ("orderingOk", ok) ]
      | "oscillation" ->
          let c = Core.Oscillation.install net in
          collectors :=
            !collectors
            @ [ ("oscill", c.oscill); ("repeatOscill", c.repeat);
                ("chaotic", c.chaotic) ]
      | "consistency" ->
          let c = Core.Consistency.install ~addrs:[ net.landmark ] net in
          collectors := !collectors @ [ ("consAlarm", c.alarms) ]
      | other -> Fmt.epr "unknown monitor %S (ignored)@." other
    in
    List.iter monitor monitors;
    let snap =
      Option.map (fun rate -> Core.Snapshot.install ~t_snap:(1. /. rate) net)
        snapshot_rate
    in
    let plan =
      fault_plan net ~duration
        Harness.Fault_plan.
          [ ("--crash", [ (fun a -> Crash a) ], crash);
            ("--restart", [ (fun a -> Restart a) ], restart) ]
    in
    List.iter
      (function
        | { Harness.Fault_plan.time; action = Crash addr } ->
            P2_runtime.Engine.at engine ~time (fun () ->
                Fmt.pr "[%g] crashing %s@." time addr)
        | _ -> ())
      plan.actions;
    Harness.Fault_plan.schedule engine (ref net) ~start:0. plan
      ~on_restart:(fun addr o ->
        let time = P2_runtime.Engine.now engine in
        match o.P2_runtime.Engine.recovered_from with
        | `Checkpoint (path, stamp) ->
            Fmt.pr "[%g] restarted %s from %s (stamp %g, %d row(s))@." time addr
              (Filename.basename path) stamp o.P2_runtime.Engine.restored_rows
        | `Cold when addr = net.landmark ->
            (* the landmark is where others join; it has no one to rejoin *)
            Fmt.pr "[%g] restarted %s cold@." time addr
        | `Cold -> Fmt.pr "[%g] restarted %s cold; rejoining via landmark@." time addr);
    P2_runtime.Engine.run_for engine duration;
    Fmt.pr "ring: %a@." Fmt.(list ~sep:(any " -> ") string) (Chord.ring_walk net);
    Fmt.pr "ring correct: %b@." (Chord.ring_correct net);
    if lookups > 0 then begin
      let results = ref 0 and correct = ref 0 in
      let rng = Sim.Rng.create (seed + 99) in
      let pending = ref [] in
      List.iter
        (fun addr ->
          P2_runtime.Engine.watch engine addr "lookupResults" (fun t ->
              match Overlog.Tuple.field t 5 with
              | Overlog.Value.VInt r when List.mem_assoc r !pending ->
                  incr results;
                  if !traced = None then traced := Some (addr, Overlog.Tuple.id t);
                  let key = List.assoc r !pending in
                  if
                    Overlog.Value.as_addr (Overlog.Tuple.field t 4)
                    = Chord.true_successor net key
                  then incr correct
              | _ -> ()))
        net.addrs;
      for i = 0 to lookups - 1 do
        let key = Sim.Rng.int rng Overlog.Value.Ring.space in
        let addr = List.nth net.addrs (Sim.Rng.int rng n) in
        pending := (1_000_000 + i, key) :: !pending;
        Chord.lookup net ~addr ~key ~req_id:(1_000_000 + i) ()
      done;
      P2_runtime.Engine.run_for engine 10.;
      Fmt.pr "lookups: %d issued, %d answered, %d correct@." lookups !results
        !correct
    end;
    (match snap with
    | Some s ->
        Fmt.pr "latest snapshots:@.";
        List.iter
          (fun id ->
            Fmt.pr "  snapshot %d: all done = %b@." id (Core.Snapshot.all_done s ~id))
          [ 1; 2; 3 ]
    | None -> ());
    List.iter
      (fun (name, c) ->
        Fmt.pr "%-18s %d alarm(s)@." name (Core.Alarms.count c);
        List.iteri
          (fun i a -> if i < 5 then Fmt.pr "    %a@." Core.Alarms.pp_alarm a)
          (Core.Alarms.alarms c))
      !collectors;
    (match (dot, !traced) with
    | Some file, Some (addr, tuple_id) ->
        let graph = Core.Forensics.walk engine ~addr ~tuple_id in
        let oc = open_out file in
        output_string oc (Core.Forensics.to_dot graph);
        close_out oc;
        Fmt.pr "%a -> %s@." Core.Forensics.pp_summary graph file
    | Some _, None -> Fmt.epr "--dot: no lookup was answered, nothing to trace@."
    | None, _ -> ());
    P2_runtime.Engine.close_trace_logs engine;
    P2_runtime.Engine.close_checkpoints engine;
    0
  in
  Cmd.v
    (Cmd.info "chord" ~doc:"Boot a monitored Chord ring on the simulator")
    Term.(
      const action $ n $ seed_arg $ duration_arg $ trace_arg $ shards_arg
      $ sanitize_arg $ trace_log_arg $ checkpoint_arg $ checkpoint_interval_arg
      $ monitors $ crash $ restart $ snapshot_rate $ buggy $ lookups $ dot)

(* --- stats --- *)

let stats_cmd =
  let n =
    Arg.(value & opt int 8 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Ring size")
  in
  let period =
    Arg.(
      value & opt float 5.
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Metric-reflection period")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Dump the final stats as one JSON document")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Print a per-node vital-signs line at every reflection tick \
             while the simulation runs")
  in
  let watchdog =
    Arg.(
      value & flag
      & info [ "watchdog" ]
          ~doc:
            "Also install the pure-OverLog watchdog rules and report \
             $(b,p2Alarm) tuples")
  in
  let olg =
    Arg.(
      value & opt (some file) None
      & info [ "olg" ] ~docv:"FILE"
          ~doc:"Extra OverLog program to install on every node")
  in
  let action n seed duration trace period json watch watchdog olg =
    let engine = P2_runtime.Engine.create ~seed ~trace () in
    let net = Chord.boot engine n in
    (match olg with
    | Some file -> P2_runtime.Engine.install_all engine (read_file file)
    | None -> ());
    let alarms =
      if watchdog then Some (Core.Watchdog.install ~period engine)
      else begin
        P2_runtime.P2stats.attach ~period engine;
        None
      end
    in
    if watch then begin
      let rec tick () =
        List.iter
          (fun addr ->
            let node = P2_runtime.Engine.node engine addr in
            let reg = P2_runtime.Node.registry node in
            let v name = Option.value (Metrics.value reg name) ~default:0. in
            Fmt.pr
              "[%8.1f] %-6s agenda_max=%-5.0f executed=%-8.0f tx=%-7.0f \
               rx=%-7.0f sendq=%.0f@."
              (P2_runtime.Engine.now engine)
              addr
              (v "machine.agenda.depth_max")
              (v "machine.agenda.executed")
              (v "net.msgs_tx") (v "net.msgs_rx") (v "net.sendq.depth"))
          (P2_runtime.Engine.addrs engine);
        P2_runtime.Engine.at engine
          ~time:(P2_runtime.Engine.now engine +. period)
          tick
      in
      P2_runtime.Engine.at engine ~time:(P2_runtime.Engine.now engine +. period)
        tick
    end;
    P2_runtime.Engine.run_for engine duration;
    if json then Fmt.pr "%s@." (P2_runtime.P2stats.to_json engine)
    else
      List.iter
        (fun addr ->
          Fmt.pr "%a@." P2_runtime.P2stats.pp_node
            (P2_runtime.Engine.node engine addr))
        (P2_runtime.Engine.addrs engine);
    (match alarms with
    | Some c ->
        Fmt.pr "p2Alarm: %d alarm(s)@." (Core.Alarms.count c);
        List.iter (fun a -> Fmt.pr "  %a@." Core.Alarms.pp_alarm a)
          (Core.Alarms.alarms c)
    | None -> ());
    ignore net;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Boot a Chord ring with metric reflection and dump the runtime's \
          own vital signs (p2Stats)")
    Term.(
      const action $ n $ seed_arg $ duration_arg $ trace_arg $ period $ json
      $ watch $ watchdog $ olg)

(* --- campaign --- *)

let campaign_cmd =
  let seeds =
    Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep")
  in
  let seed_base =
    Arg.(value & opt int 1 & info [ "seed-base" ] ~docv:"N" ~doc:"First seed of the sweep")
  in
  let intensities =
    Arg.(
      value & opt (list int) [ 1 ]
      & info [ "intensity" ] ~docv:"LEVELS"
          ~doc:"Comma-separated fault-intensity levels (0 = fault-free baseline)")
  in
  let n =
    Arg.(value & opt int 8 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Ring size")
  in
  let plant =
    Arg.(
      value & flag
      & info [ "plant-corruption" ]
          ~doc:
            "Append the planted successor-corruption bug to every plan; the \
             campaign then $(i,expects) each run to fail and its shrunk plan \
             to have at most 3 actions (harness self-test)")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip shrinking failing plans")
  in
  let replay =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one fault plan from a file instead of sweeping")
  in
  let buggy =
    Arg.(
      value & flag
      & info [ "buggy" ] ~doc:"Use the incorrect Chord that recycles dead neighbors")
  in
  let stats_json =
    Arg.(
      value & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write each run's final runtime stats (p2Stats registries, \
             table and peer counters) as a JSON array to FILE. Dumps are \
             taken after each verdict is sealed, so they never perturb \
             campaign determinism")
  in
  let loss =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"RATE"
          ~doc:
            "Uniform message-loss rate for the whole run, boot included — \
             the eventual-delivery sweep exercising the reliable transport")
  in
  let unreliable =
    Arg.(
      value & flag
      & info [ "unreliable" ]
          ~doc:
            "Ablate the reliable transport (fire-and-forget sends) — the \
             control arm of a loss sweep; expected to fail under --loss")
  in
  let extended =
    Arg.(
      value & flag
      & info [ "extended-faults" ]
          ~doc:
            "Widen generated fault plans with partition/heal-partition and \
             crash/restart pairs (restarts recover from checkpoints when \
             $(b,--checkpoint) is set). Off keeps the classic fault \
             alphabet and its exact seeded draw sequence")
  in
  let action seeds seed_base intensities n duration plant no_shrink replay buggy
      stats_json loss unreliable extended checkpoint checkpoint_interval naive
      shards sanitize trace_log =
    (* Accumulate one JSON object per run; flushed at exit. *)
    let dumps = ref [] in
    let on_done =
      Option.map
        (fun _ engine -> dumps := P2_runtime.P2stats.to_json engine :: !dumps)
        stats_json
    in
    let flush_dumps () =
      Option.iter
        (fun file ->
          let oc = open_out file in
          output_string oc ("[" ^ String.concat "," (List.rev !dumps) ^ "]\n");
          close_out oc;
          Fmt.pr "stats: %d dump(s) -> %s@." (List.length !dumps) file)
        stats_json
    in
    let cfg =
      {
        Harness.Campaign.default_config with
        nodes = n;
        horizon = duration;
        loss_rate = loss;
        reliable = not unreliable;
        seminaive = not naive;
        shards;
        sanitize;
        trace_log;
        extended_faults = extended;
        checkpoint;
        checkpoint_interval;
        params = (if buggy then Chord.buggy_params else Chord.default_params);
      }
    in
    let shrink_and_print r =
      let plan, attempts =
        Harness.Campaign.shrink cfg ~seed:r.Harness.Campaign.seed r.plan
      in
      Fmt.pr "@.shrunk seed=%d to %d action(s) in %d re-run(s); replayable plan:@."
        r.seed
        (Harness.Fault_plan.length plan)
        attempts;
      Fmt.pr "%s" (Harness.Fault_plan.to_string plan);
      plan
    in
    let code =
    match replay with
    | Some file -> (
        match Harness.Fault_plan.of_string (read_file file) with
        | exception Invalid_argument msg ->
            Fmt.epr "p2ql: %s: %s@." file msg;
            2
        | plan ->
            let run = Harness.Campaign.run_plan cfg ~seed:seed_base ?on_done plan in
            Fmt.pr "%a@." Harness.Campaign.pp_report [ run ];
            if Harness.Campaign.failed run then 1 else 0)
    | None ->
        let seed_list = List.init seeds (fun i -> seed_base + i) in
        let runs =
          if not plant then
            Harness.Campaign.sweep cfg ~seeds:seed_list ~intensities ?on_done ()
          else
            (* harness self-test: every plan carries the planted bug *)
            List.concat_map
              (fun seed ->
                List.map
                  (fun intensity ->
                    let plan =
                      Harness.Campaign.plan_of_seed cfg ~seed ~intensity
                      |> Harness.Fault_plan.plant_corruption
                           ~rng:(Sim.Rng.create (seed + 7919))
                           ~addrs:(List.init n (Fmt.str "n%d"))
                           ~time:(duration /. 2.)
                    in
                    Harness.Campaign.run_plan cfg ~seed ~intensity ?on_done plan)
                  intensities)
              seed_list
        in
        Fmt.pr "%a" Harness.Campaign.pp_report runs;
        let failing = List.filter Harness.Campaign.failed runs in
        let shrunk =
          if no_shrink then [] else List.map shrink_and_print failing
        in
        if plant then
          (* success = the planted bug was caught everywhere, and the
             shrinker reduced it to (at most) the corruption itself + 2 *)
          if
            List.length failing = List.length runs
            && (no_shrink
               || List.for_all (fun p -> Harness.Fault_plan.length p <= 3) shrunk)
          then begin
            Fmt.pr "@.planted corruption caught in all %d run(s)@." (List.length runs);
            0
          end
          else begin
            Fmt.epr "@.planted corruption NOT caught (or shrink too large)@.";
            1
          end
        else if failing = [] then 0
        else 1
    in
    flush_dumps ();
    code
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a deterministic fault-injection campaign against Chord")
    Term.(
      const action $ seeds $ seed_base $ intensities $ n $ duration_arg $ plant
      $ no_shrink $ replay $ buggy $ stats_json $ loss $ unreliable $ extended
      $ checkpoint_arg $ checkpoint_interval_arg $ naive_arg $ shards_arg
      $ sanitize_arg $ trace_log_arg)

(* --- replay --- *)

let replay_cmd =
  let log =
    Arg.(
      required
      & opt (some string) None
      & info [ "log" ] ~docv:"DIR"
          ~doc:"Flight-recorder root directory (as written by --trace-log)")
  in
  let from_ =
    Arg.(
      value
      & opt (some float) None
      & info [ "from" ] ~docv:"T1"
          ~doc:
            "Restore only records stamped at or after $(docv) (recorded \
             node-local time)")
  in
  let to_ =
    Arg.(
      value
      & opt (some float) None
      & info [ "to" ] ~docv:"T2"
          ~doc:"Restore only records stamped at or before $(docv)")
  in
  let olg =
    Arg.(
      value
      & opt (some file) None
      & info [ "olg" ] ~docv:"FILE"
          ~doc:
            "Historical OverLog query, installed on every replay node \
             before restoration so its rules fire for each recorded \
             $(b,ruleExec) / $(b,tupleTable) row in log order")
  in
  let watches =
    Arg.(
      value & opt (list string) []
      & info [ "watch" ] ~docv:"NAMES"
          ~doc:"Tuple names to print as the query derives them")
  in
  let dump =
    Arg.(
      value & opt (list string) []
      & info [ "dump" ] ~docv:"TABLES"
          ~doc:"Tables to dump from every replay node once the replay settles")
  in
  let action log from_ to_ olg watches dump =
    let program =
      match olg with
      | None -> None
      | Some file -> (
          let src = read_file file in
          (* Surface parse errors before spending time restoring. *)
          match Overlog.Parser.parse_result src with
          | Ok _ -> Some src
          | Error msg ->
              Fmt.epr "parse error: %s@." msg;
              exit 1)
    in
    let on_node _engine node =
      List.iter
        (fun name ->
          P2_runtime.Node.watch node name (fun t ->
              Fmt.pr "[replay] %s: %a@." (P2_runtime.Node.addr node)
                Overlog.Tuple.pp t))
        watches
    in
    match Core.Replay.load ?from_ ?to_ ?program ~on_node ~dir:log () with
    | exception Invalid_argument msg ->
        Fmt.epr "p2ql replay: %s@." msg;
        1
    | t ->
        Fmt.pr "%a" Core.Replay.pp_report t;
        let engine = t.Core.Replay.engine in
        let addrs = P2_runtime.Engine.addrs engine in
        List.iter
          (fun table_name ->
            Fmt.pr "@.=== %s ===@." table_name;
            List.iter
              (fun addr ->
                let node = P2_runtime.Engine.node engine addr in
                match
                  Store.Catalog.find (P2_runtime.Node.catalog node) table_name
                with
                | Some table ->
                    List.iter
                      (fun tu -> Fmt.pr "%s: %a@." addr Overlog.Tuple.pp tu)
                      (Store.Table.tuples table
                         ~now:(P2_runtime.Engine.now engine))
                | None -> ())
              addrs)
          dump;
        0
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Time-travel replay: stream a recorded flight-recorder log back \
          through a fresh dataflow instance, optionally running a \
          historical OverLog query over the recorded window")
    Term.(const action $ log $ from_ $ to_ $ olg $ watches $ dump)

(* --- inventory --- *)

(* One status word per file: what an intact file is, or why it is
   damaged. *)
let segment_status (s : Seglog.segment) =
  if Seglog.intact s then if s.sealed then "sealed" else "open"
  else
    "DAMAGED: "
    ^ String.concat ", "
        ((if not s.header_ok then [ "bad-header" ] else [])
        @ (if s.torn then [ "torn-tail" ] else [])
        @ (if s.bad_records > 0 then [ Fmt.str "%d bad record(s)" s.bad_records ]
           else [])
        @
        match s.declared with
        | Some d when d <> s.records -> [ Fmt.str "declared %d, found %d" d s.records ]
        | _ -> [])

let snapshot_status (i : Checkpoint.info) =
  if i.i_ok then "ok" else "DAMAGED: " ^ Option.value i.i_error ~default:"unreadable"

let inventory_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Root directory as written by --trace-log or --checkpoint")
  in
  let action dir =
    let fail fmt = Fmt.kstr (fun m -> Fmt.epr "p2ql inventory: %s@." m; 1) fmt in
    let addrs = Core.Replay.node_dirs dir in
    if not (Sys.file_exists dir) then fail "%s: no such directory" dir
    else if addrs = [] then fail "no node directories under %s" dir
    else begin
      let files = ref 0 and bad = ref 0 and bytes = ref 0 in
      List.iter
        (fun addr ->
          let node_dir = Filename.concat dir addr in
          let segs = Seglog.segments ~dir:node_dir in
          let snaps = Checkpoint.inventory ~dir:node_dir in
          (* the restart path's pick, from the same verification pass *)
          let recovery =
            if snaps = [] then ""
            else
              match List.find_opt (fun (i : Checkpoint.info) -> i.i_ok) (List.rev snaps) with
              | Some i -> ", latest intact: " ^ Filename.basename i.i_path
              | None -> ", NO intact snapshot (restart cold-boots)"
          in
          Fmt.pr "%s: %d segment(s), %d snapshot(s)%s@." addr (List.length segs)
            (List.length snaps) recovery;
          (* each file by its path under DIR, so a damaged one is named
             unambiguously *)
          let report ~ok ~size path line =
            incr files;
            if not ok then incr bad;
            bytes := !bytes + size;
            Fmt.pr "  %-22s %s@." (Filename.concat addr (Filename.basename path)) line
          in
          List.iter
            (fun (s : Seglog.segment) ->
              report ~ok:(Seglog.intact s) ~size:s.bytes s.path
                (Fmt.str "%9d bytes %7d records  seq %d+  [%g, %g]  %s" s.bytes
                   s.records s.base_seq s.base_stamp s.last_stamp (segment_status s)))
            segs;
          List.iter
            (fun (i : Checkpoint.info) ->
              report ~ok:i.i_ok ~size:i.i_bytes i.i_path
                (Fmt.str "%9d bytes %4d table(s) %5d row(s)  stamp %-8g %s" i.i_bytes
                   i.i_tables i.i_rows i.i_stamp (snapshot_status i)))
            snaps)
        addrs;
      if !files = 0 then fail "no segments or snapshots under %s" dir
      else begin
        Fmt.pr "@.%d node(s), %d file(s), %d bytes%s@." (List.length addrs) !files
          !bytes
          (if !bad = 0 then ", all files intact"
           else Fmt.str ", %d DAMAGED file(s)" !bad);
        if !bad = 0 then 0 else 1
      end
    end
  in
  Cmd.v
    (Cmd.info "inventory"
       ~doc:
         "Inventory a flight-recorder log or checkpoint directory: every \
          segment (records, seq, stamp range) and snapshot (tables, rows, \
          stamp) per node, each with its integrity, and the snapshot each \
          node would restart from (exit 1 if any file is damaged or none \
          exist)")
    Term.(const action $ dir)

(* --- peers --- *)

let peers_cmd =
  let n =
    Arg.(value & opt int 8 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Ring size")
  in
  let loss =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"RATE" ~doc:"Uniform message-loss rate")
  in
  let crash =
    Arg.(
      value & opt (some string) None
      & info [ "crash" ] ~docv:"ADDR:TIME"
          ~doc:
            "Crash a node at a given time and watch its peers' failure \
             detectors turn; append :TIME2 to recover it again")
  in
  let action n seed duration loss crash =
    let engine = P2_runtime.Engine.create ~seed ~loss_rate:loss () in
    let net = Chord.boot engine n in
    Harness.Fault_plan.schedule engine (ref net) ~start:0.
      (fault_plan net ~duration
         Harness.Fault_plan.
           [ ("--crash", [ (fun a -> Crash a); (fun a -> Recover a) ], crash) ]);
    P2_runtime.Engine.run_for engine duration;
    List.iter
      (fun addr ->
        let tr = P2_runtime.Engine.transport engine addr in
        Fmt.pr "%s  (retransmits=%d duplicates=%d)@." addr
          (P2_runtime.Transport.retransmit_count tr)
          (P2_runtime.Transport.duplicate_count tr);
        List.iter
          (fun p ->
            Fmt.pr "  %-8s %-8s misses=%-3d silent=%7.2fs sendq=%d@."
              p.P2_runtime.Transport.peer
              (P2_runtime.Transport.status_name p.P2_runtime.Transport.status)
              p.P2_runtime.Transport.misses p.P2_runtime.Transport.silent_for
              p.P2_runtime.Transport.sendq)
          (P2_runtime.Transport.peers tr))
      (P2_runtime.Engine.addrs engine);
    0
  in
  Cmd.v
    (Cmd.info "peers"
       ~doc:
         "Boot a Chord ring and print every node's transport channels and \
          failure-detector verdicts (the host-side view of p2PeerStatus)")
    Term.(const action $ n $ seed_arg $ duration_arg $ loss $ crash)

let () =
  let doc = "P2 declarative monitoring & forensics runtime" in
  let info = Cmd.info "p2ql" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            parse_cmd; check_cmd; explain_cmd; run_cmd; chord_cmd; stats_cmd;
            campaign_cmd; peers_cmd; replay_cmd; inventory_cmd;
          ]))
