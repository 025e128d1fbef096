(* Smoke test (dune runtest): every workload at the smoke scale, both
   modes, checked against BENCHMARK.json (its path is the argument).

   - every metric BENCHMARK.json names is emitted, finite, with the
     unit BENCHMARK.json gives it, and its workloads are the listed
     ones;
   - no operation fails and every output check passes;
   - spans nest and no self time is negative;
   - layers a workload bypasses read zero, layers it exercises do not. *)

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (name, unit) pairs of the metrics listed before and after the
   "per_layer" key, and the workload names. *)
let benchmark_json path =
  let text = read_file path in
  let all re =
    let rec go pos acc =
      match Str.search_forward re text pos with
      | exception Not_found -> List.rev acc
      | p -> go (Str.match_end ()) ((p, Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
    in
    go 0 []
  in
  let metrics = all (Str.regexp {|"name": "\([^"]*\)", "unit": "\([^"]*\)"|}) in
  let split = Str.search_forward (Str.regexp_string {|"per_layer"|}) text 0 in
  let names = all (Str.regexp {|"name": "\([^"]*\)", "why": "\(\)|}) in
  ( List.filter_map (fun (p, n, u) -> if p < split then Some (n, u) else None) metrics,
    List.filter_map (fun (p, n, u) -> if p > split then Some (n, u) else None) metrics,
    List.map (fun (_, n, _) -> n) names )

let () =
  let e2e, layers, workloads = benchmark_json Sys.argv.(1) in
  check (e2e = Runner.end_to_end) "BENCHMARK.json end_to_end differs from the benchmark's";
  check (layers = Runner.per_layer) "BENCHMARK.json per_layer differs from the benchmark's";
  check
    (workloads = List.map (fun (s : Workload.spec) -> s.name) Workload.specs)
    "BENCHMARK.json workloads differ from the benchmark's";
  (* the workloads run by name only are smoke-tested too *)
  List.iter
    (fun (spec : Workload.spec) ->
      List.iter
        (fun trace ->
          let tmp = "smoke-tmp-" ^ spec.name in
          let r =
            Fun.protect
              ~finally:(fun () -> Workload.rm_rf tmp)
              (fun () -> Runner.run ~smoke:true ~spec ~seed:1 ~seconds:0. ~trace ~tmp ())
          in
          let w = spec.name in
          List.iter
            (fun (name, unit) ->
              match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
              | Some (_, v, u) ->
                  check (Float.is_finite v) "%s: %s = %g is not finite" w name v;
                  check (u = unit) "%s: %s has unit %s, BENCHMARK.json says %s" w name u unit
              | None -> check false "%s: %s not emitted" w name)
            (if trace then layers else e2e);
          check (r.failed = 0 && r.attempted > 0) "%s: %d of %d ops failed" w r.failed r.attempted;
          List.iter (fun p -> check false "%s: %s" w p) r.problems;
          if trace then begin
            let v name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.metrics in
            let v name = Option.value ~default:nan (v name) in
            check (Spans.well_nested r.spans) "%s: spans do not nest" w;
            List.iter
              (fun ((s : Spans.span), self) ->
                check (self >= 0) "%s: span %s has self time %d ns" w s.name self)
              (Spans.self_times r.spans);
            let zero name = check (v name = 0.) "%s: bypassed %s reads %g" w name (v name) in
            let nonzero name = check (v name > 0.) "%s: exercised %s reads %g" w name (v name) in
            List.iter nonzero [ "engine.events"; "machine.agenda.executed"; "store.inserts"; "net.msgs_tx" ];
            (match spec.tracing with
            | Workload.Untraced -> List.iter zero [ "tracer.taps"; "trace.log.records"; "ckpt.snapshots" ]
            | In_ram -> List.iter nonzero [ "tracer.taps"; "walk.edges" ]
            | Flight_recorder ->
                List.iter nonzero [ "trace.log.records"; "ckpt.snapshots"; "replay.query_s" ]);
            if spec.shards = 0 then zero "engine.barrier_wait_ns"
            else nonzero "engine.barrier_wait_ns"
          end;
          Printf.printf "%-16s trace=%b ok: %d episode(s), %d ops\n%!" w trace
            (List.length r.episodes) r.attempted)
        [ false; true ])
    Workload.all;
  if !failures > 0 then exit 1
