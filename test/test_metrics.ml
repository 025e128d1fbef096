(* Unit tests for the metrics library: counter/gauge/histogram
   semantics, registry registration rules, snapshot determinism and
   the JSON rendering. *)

let feq = Alcotest.(check (float 1e-9))

(* --- counters and gauges --- *)

let test_counter () =
  let c = Metrics.Counter.create () in
  Alcotest.(check int) "starts at 0" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.incr c;
  Metrics.Counter.add c 40;
  Alcotest.(check int) "incr + add" 42 (Metrics.Counter.value c)

let test_gauge () =
  let g = Metrics.Gauge.create () in
  feq "starts at 0" 0. (Metrics.Gauge.value g);
  Metrics.Gauge.set g 3.5;
  Metrics.Gauge.add g 1.5;
  feq "set + add" 5. (Metrics.Gauge.value g);
  Metrics.Gauge.max_of g 2.;
  feq "max_of below keeps" 5. (Metrics.Gauge.value g);
  Metrics.Gauge.max_of g 9.;
  feq "max_of above raises" 9. (Metrics.Gauge.value g)

(* --- histograms --- *)

let test_histogram_basic () =
  let h = Metrics.Histogram.create ~bounds:[| 1.; 10.; 100. |] () in
  Alcotest.(check int) "empty count" 0 (Metrics.Histogram.count h);
  feq "empty quantile" 0. (Metrics.Histogram.quantile h 0.5);
  List.iter (Metrics.Histogram.observe h) [ 0.5; 5.; 5.; 50. ];
  Alcotest.(check int) "count" 4 (Metrics.Histogram.count h);
  feq "sum" 60.5 (Metrics.Histogram.sum h);
  feq "max" 50. (Metrics.Histogram.max_value h);
  feq "mean" 15.125 (Metrics.Histogram.mean h);
  (* ranks: 1 obs <=1, 2 obs in (1,10], 1 in (10,100] *)
  feq "p25 -> first bucket bound" 1. (Metrics.Histogram.quantile h 0.25);
  feq "p50 -> second bucket bound" 10. (Metrics.Histogram.quantile h 0.5);
  feq "p100 -> third bucket bound" 100. (Metrics.Histogram.quantile h 1.0)

let test_histogram_overflow_and_buckets () =
  let h = Metrics.Histogram.create ~bounds:[| 1.; 2. |] () in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.5; 77. ];
  (* the overflow observation reports the exact maximum *)
  feq "overflow quantile is exact max" 77. (Metrics.Histogram.quantile h 1.0);
  match Metrics.Histogram.buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3) ] ->
      feq "bound 1" 1. b1;
      feq "bound 2" 2. b2;
      Alcotest.(check bool) "overflow bound is inf" true (b3 = infinity);
      Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ] [ c1; c2; c3 ]
  | bs -> Alcotest.failf "expected 3 buckets, got %d" (List.length bs)

let test_histogram_validation () =
  let bad bounds =
    match Metrics.Histogram.create ~bounds () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "bad bounds accepted"
  in
  bad [||];
  bad [| 1.; 1. |];
  bad [| 2.; 1. |]

(* --- registry --- *)

let test_registry_names_sorted_and_unique () =
  let r = Metrics.create () in
  Metrics.gauge r "zeta" (fun () -> 1.);
  let c = Metrics.counter r "alpha" in
  Metrics.Counter.incr c;
  Metrics.register r "mid" Metrics.KGauge (fun () -> 2.);
  Alcotest.(check (list string))
    "sorted names" [ "alpha"; "mid"; "zeta" ] (Metrics.names r);
  match Metrics.gauge r "alpha" (fun () -> 0.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate name accepted"

let test_registry_histogram_scalars () =
  let r = Metrics.create () in
  let h = Metrics.Histogram.create () in
  Metrics.attach_histogram r "lat" h;
  Metrics.Histogram.observe h 3.;
  Metrics.Histogram.observe h 5.;
  Alcotest.(check (list string))
    "five derived scalars"
    [ "lat.count"; "lat.max"; "lat.p50"; "lat.p99"; "lat.sum" ]
    (Metrics.names r);
  feq "count scalar" 2. (Option.get (Metrics.value r "lat.count"));
  feq "sum scalar" 8. (Option.get (Metrics.value r "lat.sum"));
  feq "max scalar" 5. (Option.get (Metrics.value r "lat.max"))

let test_snapshot_deterministic () =
  let mk () =
    let r = Metrics.create () in
    let c = Metrics.counter r "events" in
    Metrics.Counter.add c 7;
    Metrics.gauge r "depth" (fun () -> 3.) ;
    r
  in
  let s1 = Metrics.snapshot (mk ()) and s2 = Metrics.snapshot (mk ()) in
  Alcotest.(check bool) "identical registries snapshot identically" true (s1 = s2);
  Alcotest.(check (list string))
    "snapshot order is sorted-name order" [ "depth"; "events" ]
    (List.map (fun (s : Metrics.sample) -> s.name) s1)

(* substring helper without extra deps *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_json_format () =
  let r = Metrics.create () in
  let c = Metrics.counter r "n.count" in
  Metrics.Counter.add c 42;
  Metrics.gauge r "x.level" (fun () -> 1.5);
  let json = Metrics.json_of_samples (Metrics.snapshot r) in
  Alcotest.(check bool) "integral without fraction" true (contains json "\"n.count\": 42");
  Alcotest.(check bool) "float with fraction" true (contains json "\"x.level\": 1.5");
  Alcotest.(check bool) "object braces" true
    (String.length json >= 2 && json.[0] = '{' && json.[String.length json - 1] = '}')

let test_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Metrics.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-6)) "stddev" 0.816497 (Metrics.stddev [ 1.; 2.; 3. ]);
  Alcotest.(check (float 0.)) "empty" 0. (Metrics.mean [])

let () =
  Alcotest.run "metrics"
    [
      ( "scalars",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "overflow+buckets" `Quick
            test_histogram_overflow_and_buckets;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names sorted, duplicates rejected" `Quick
            test_registry_names_sorted_and_unique;
          Alcotest.test_case "histogram scalars" `Quick
            test_registry_histogram_scalars;
          Alcotest.test_case "snapshot determinism" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "json format" `Quick test_json_format;
        ] );
      ("summary", [ Alcotest.test_case "stats" `Quick test_stddev ]);
    ]
