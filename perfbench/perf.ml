(* The repository benchmark: one workload per process.

     perf.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
              [--json OUT] [--spans FILE] [--scale full|smoke]
              [--commit C] [--tmp DIR]

   Repeats seeded episodes of workload W for N wall seconds (at least
   one) and prints every metric by name and unit; the last line of
   stdout is one JSON object {correct, attempted, failed, metrics}.
   --trace 0 reports the end-to-end metrics, --trace 1 records spans
   and reports the per-layer metrics. Exits 1 when an output check
   fails, 2 on bad arguments. See README.md in this directory. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let json = ref "" and spans = ref "" and scale = ref "full" and commit = ref "" in
  let tmp = ref (Filename.concat ".bench_build" (Printf.sprintf "tmp-%d" (Unix.getpid ()))) in
  let names = String.concat ", " (List.map (fun (s : Workload.spec) -> s.name) Workload.all) in
  let usage = "perf.exe --workload W [--seed S] [--seconds N] [--trace 0|1] [--json OUT] ..." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ names);
      ("--seed", Arg.Set_int seed, "S  seeds the client's lookups (default 1)");
      ("--seconds", Arg.Set_float seconds, "N  wall seconds to repeat episodes for (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  1: record spans, report per-layer metrics");
      ("--json", Arg.Set_string json, "OUT  write the full result, with meta, to OUT");
      ("--spans", Arg.Set_string spans, "FILE  write the spans to FILE (implies --trace 1)");
      ("--scale", Arg.Set_string scale, "full|smoke  smoke: 8 nodes, short windows");
      ("--commit", Arg.Set_string commit, "C  record commit C in the result's meta");
      ("--tmp", Arg.Set_string tmp, "DIR  scratch directory for logs and checkpoints");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match Workload.find !workload with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S (expected one of %s)\n" !workload names;
        exit 2
  in
  if !scale <> "full" && !scale <> "smoke" then begin
    Printf.eprintf "unknown scale %S (expected full or smoke)\n" !scale;
    exit 2
  end;
  let trace = !trace = 1 || !spans <> "" in
  let r =
    Fun.protect
      ~finally:(fun () -> Workload.rm_rf !tmp)
      (fun () ->
        Runner.run ~smoke:(!scale = "smoke") ~spec ~seed:!seed ~seconds:!seconds ~trace
          ~tmp:!tmp ())
  in
  List.iter (fun (k, v) -> Printf.printf "meta %s = %s\n" k (Json.to_string v)) r.meta;
  if trace then begin
    Printf.printf "%-16s %6s %12s %12s\n" "span" "count" "total_ms" "self_ms";
    List.iter
      (fun (name, (n, total, self)) ->
        Printf.printf "%-16s %6d %12.3f %12.3f\n" name n (total *. 1e3) (self *. 1e3))
      (Spans.summary r.spans)
  end;
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %16.6g %s\n" name v unit) r.metrics;
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) r.problems;
  Printf.printf "ops: %d attempted, %d failed; correct: %b\n" r.attempted r.failed r.correct;
  if !json <> "" then
    Json.write_file !json
      (Runner.result_json ?commit:(if !commit = "" then None else Some !commit) r);
  if !spans <> "" then Json.write_file !spans (Spans.to_json r.spans);
  print_endline (Runner.summary_line r);
  if not r.correct then exit 1
