(* Runs one workload for a wall-clock budget and turns its episodes
   into the benchmark's metrics. *)

module W = Workload

(* name, unit. BENCHMARK.json lists the same names and units, adding
   each metric's direction and bound; the smoke test holds the two in
   step. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("job_s", "s");
    ("node_s_per_s", "node-s/s");
    ("tick_p50_ms", "ms");
    ("tick_p90_ms", "ms");
    ("lookup_p50_ms", "ms");
    ("lookup_p90_ms", "ms");
    ("heap_live_mb", "MB");
    ("msgs_per_node_s", "msgs/node-s");
  ]

let per_layer =
  [
    ("install.parse_us", "us");
    ("install.analyze_us", "us");
    ("install.install_us", "us");
    ("install.rules", "count");
    ("engine.events", "count");
    ("engine.ns_per_event", "ns");
    ("gc.minor_words_per_event", "words");
    ("gc.major_collections", "count");
    ("machine.triggers", "count");
    ("machine.agenda.executed", "count");
    ("machine.drains", "count");
    ("machine.items_per_drain", "items");
    ("store.inserts", "count");
    ("store.probes", "count");
    ("store.insert_ns", "ns");
    ("store.probe_ns", "ns");
    ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns");
    ("net.bytes_per_frame", "bytes");
    ("net.msgs_tx", "count");
    ("net.msgs_per_frame", "msgs");
    ("transport.tx.frames", "count");
    ("transport.tx.batches", "count");
    ("transport.tx.batched_tuples", "count");
    ("transport.tx.acks", "count");
    ("transport.retransmits", "count");
    ("engine.barrier_wait_ns", "ns");
    ("engine.shard_busy_pct", "%");
    ("proc.cpu_per_wall", "s/s");
    ("tracer.taps", "count");
    ("tracer.rule_exec_rows", "count");
    ("tracer.tuples_registered", "count");
    ("tracer.table_rows", "count");
    ("tracer.ns_per_tap", "ns");
    ("walk.p50_ms", "ms");
    ("walk.p90_ms", "ms");
    ("walk.vertices", "count");
    ("walk.edges", "count");
    ("trace.log.records", "count");
    ("trace.log.bytes", "bytes");
    ("trace.log.flush_ns", "ns");
    ("seglog.iter_ns_per_record", "ns");
    ("ckpt.snapshots", "count");
    ("ckpt.bytes", "bytes");
    ("ckpt.write_ns", "ns");
    ("replay.restore_s", "s");
    ("replay.query_s", "s");
    ("replay.records_per_s", "rec/s");
    ("metrics.snapshot_us", "us");
    ("spans.overhead_pct", "%");
  ]

type result = {
  spec : W.spec;
  seed : int;
  trace : bool;
  episodes : W.episode list;
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float * string) list;  (* name, value, unit *)
  spans : Spans.t;
  meta : (string * Json.t) list;
}

let ms xs = List.map (fun s -> s *. 1e3) xs
let rate (spec : W.spec) (ep : W.episode) = float_of_int spec.nodes *. spec.window /. ep.window_s

(* Every episode of a run repeats the same seeded work, so tick [i]
   (and lookup [i]) is the same work in each. Its time is the least of
   its repeats: the repeat other tenants of the host disturbed least.
   Unanswered lookups are nan and drop out unless never answered. *)
let best = function
  | [] -> [||]
  | first :: rest ->
      List.fold_left
        (Array.map2 (fun a b -> if Float.is_nan a then b else if Float.is_nan b then a else Float.min a b))
        first rest

let run ?(smoke = false) ~spec ~seed ~seconds ~trace ~tmp () =
  let spec = if smoke then W.smoke spec else spec in
  let sp =
    Spans.create ~on:trace
      ~run_id:(Printf.sprintf "%s-seed%d-pid%d" spec.name seed (Unix.getpid ()))
  in
  W.mkdir_p tmp;
  let start = Spans.now_ns () in
  (* Repeat while another episode, as long as the last, still ends
     within the budget; a slow host gets fewer episodes, not a longer
     run. *)
  let episodes =
    Spans.run sp "workload" (fun () ->
        let rec loop acc last =
          let elapsed = Spans.seconds_between start (Spans.now_ns ()) in
          if acc <> [] && elapsed +. last > seconds then List.rev acc
          else
            let ep, took =
              Spans.time sp "episode" (fun () -> W.episode ~spec ~seed ~tmp ~layers:trace sp)
            in
            loop (ep :: acc) took
        in
        loop [] 0.)
  in
  let each f = List.map f episodes in
  let sum f = List.fold_left (fun a ep -> a + f ep) 0 episodes in
  (* traced runs add two untimed comparison episodes: spans off (the
     spans' own cost) and, where the tracer runs, tracing off (its
     cost per tap) *)
  let spans_off =
    if trace then Some (W.episode ~spans_off:true ~spec ~seed ~tmp ~layers:false sp) else None
  in
  let layer name =
    W.median (List.filter_map (fun (ep : W.episode) -> List.assoc_opt name ep.layer) episodes)
  in
  let twin =
    if trace && layer "tracer.taps" > 0. then
      Some (W.episode ~spans_off:true ~tracing_override:W.Untraced ~spec ~seed ~tmp ~layers:false sp)
    else None
  in
  let first = List.hd episodes in
  let deterministic =
    List.for_all
      (fun (ep : W.episode) ->
        ep.events = first.events && ep.msgs = first.msgs && ep.answered = first.answered)
      (episodes @ Option.to_list spans_off)
  in
  let problems =
    List.concat_map (fun (ep : W.episode) -> ep.problems) episodes
    @ if deterministic then [] else [ "deterministic counts differ between episodes" ]
  in
  let failed = sum (fun ep -> ep.failed) in
  let ticks = best (each (fun ep -> ep.ticks)) in
  let lookups = List.filter Float.is_finite (Array.to_list (best (each (fun ep -> ep.lookup_ms)))) in
  let window_s = Array.fold_left ( +. ) 0. ticks in
  let e2e =
    [
      ("setup_s", W.median (each (fun ep -> ep.setup_s)));
      ("job_s", window_s +. List.fold_left Float.min infinity (each (fun ep -> ep.query_s)));
      ("node_s_per_s", float_of_int spec.nodes *. spec.window /. window_s);
      ("tick_p50_ms", W.percentile 0.5 (ms (Array.to_list ticks)));
      ("tick_p90_ms", W.percentile 0.9 (ms (Array.to_list ticks)));
      ("lookup_p50_ms", W.percentile 0.5 lookups);
      ("lookup_p90_ms", W.percentile 0.9 lookups);
      ("heap_live_mb", W.median (each (fun ep -> ep.heap_live_mb)));
      ( "msgs_per_node_s",
        float_of_int (first.window_msgs) /. (float_of_int spec.nodes *. spec.window) );
    ]
  in
  let walks = List.concat_map (fun (ep : W.episode) -> ep.walk_ms) episodes in
  let derived =
    [
      ("walk.p50_ms", W.percentile 0.5 walks);
      ("walk.p90_ms", W.percentile 0.9 walks);
      ( "tracer.ns_per_tap",
        match twin with
        | Some tw ->
            (W.median (each (fun ep -> ep.window_s)) -. tw.window_s)
            *. 1e9 /. layer "tracer.taps"
        | None -> 0. );
      ( "spans.overhead_pct",
        match spans_off with
        | Some off -> 100. *. (1. -. (W.median (each (rate spec)) /. rate spec off))
        | None -> 0. );
    ]
  in
  let values =
    if trace then
      List.map
        (fun (name, unit) ->
          (name, (match List.assoc_opt name derived with Some v -> v | None -> layer name), unit))
        per_layer
    else List.map (fun (name, unit) -> (name, List.assoc name e2e, unit)) end_to_end
  in
  let counts =
    Json.Obj
      [
        ("engine_events", Json.Int first.events);
        ("net_msgs_tx", Json.Int first.msgs);
        ("lookups_answered", Json.Int first.answered);
      ]
  in
  let meta =
    [
      ("workload", Json.Str spec.name);
      ("seed", Json.Int seed);
      ("scale", Json.Str (if smoke then "smoke" else "full"));
      ("seconds", Json.Num seconds);
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("os_type", Json.Str Sys.os_type);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("pool_workers", Json.Int (P2_runtime.Pool.size ()));
      ( "params",
        Json.Obj
          [
            ("nodes", Json.Int spec.nodes);
            ("shards", Json.Int spec.shards);
            ( "tracing",
              Json.Str
                (match spec.tracing with
                | W.Untraced -> "off"
                | In_ram -> "in-ram"
                | Flight_recorder -> "flight-recorder") );
            ("monitors", Json.Bool spec.monitors);
            ("settle_s", Json.Num spec.settle);
            ("warm_s", Json.Num spec.warm);
            ("window_s", Json.Num spec.window);
            ("tick_s", Json.Num spec.tick);
            ("lookups_per_s", Json.Num spec.lookup_rate);
            ("replay_tail_s", Json.Num spec.replay_tail);
          ] );
      ("episodes", Json.Int (List.length episodes));
      ("tick_samples", Json.Int (Array.length ticks));
      ("lookup_samples", Json.Int (List.length lookups));
      ("walk_samples", Json.Int (List.length walks));
      ("deterministic_counts", counts);
    ]
  in
  {
    spec;
    seed;
    trace;
    episodes;
    correct = failed = 0 && problems = [];
    attempted = sum (fun ep -> ep.attempted);
    failed;
    problems;
    metrics = values;
    spans = sp;
    meta;
  }

let metrics_json r =
  Json.Obj
    (List.map
       (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       r.metrics)

(* The result line, printed last on stdout for tools that run the
   benchmark. *)
let summary_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", metrics_json r);
       ])

let result_json ?commit r =
  Json.Obj
    [
      ("workload", Json.Str r.spec.name);
      ("seed", Json.Int r.seed);
      ("trace", Json.Bool r.trace);
      ( "meta",
        Json.Obj (r.meta @ match commit with Some c -> [ ("commit", Json.Str c) ] | None -> []) );
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) r.problems));
      ("metrics", metrics_json r);
      ( "episodes",
        Json.Arr
          (List.map
             (fun (ep : W.episode) ->
               Json.Obj
                 [
                   ("setup_s", Json.Num ep.setup_s);
                   ("window_s", Json.Num ep.window_s);
                   ("query_s", Json.Num ep.query_s);
                   ("heap_live_mb", Json.Num ep.heap_live_mb);
                   ("ticks_ms", Json.Arr (List.map (fun t -> Json.Num (t *. 1e3)) (Array.to_list ep.ticks)));
                   ("engine_events", Json.Int ep.events);
                   ("net_msgs_tx", Json.Int ep.msgs);
                   ("lookups_answered", Json.Int ep.answered);
                 ])
             r.episodes) );
    ]
