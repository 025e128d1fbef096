(* Benchmark harness for the paper's evaluation (§4): the in-text
   execution-logging overhead (E0), Figures 4–7, the Chord and tracing
   ablations, the proxy rows of the transport and flight-recorder
   sections, and the four regression gates CI runs. Wall-clock
   measurement of the real code path, layer by layer, is perfbench's
   job (perfbench/README.md); this harness keeps the paper-comparison
   proxies and the gates.

   Each paper experiment runs the same workload as the paper on the
   simulated substrate: a 21-node P2 Chord (fix fingers every 10 s,
   stabilize every 5 s, ping every 5 s), the measured node being the
   last to join, three seeded runs per data point (mean, stddev).
   CPU%% and memory are the calibrated proxies described in DESIGN.md
   §3 (JSON keys [cpu_proxy_pct_*] and [mem_proxy_mb_*]); messages and
   live tuples are counted directly.

   Usage:
     main.exe [--only e0,fig4,fig5,fig6,fig7,chord,tracing,transport,
                      forensics,seminaive,scaling,recovery,join]
              [--json PATH] [--check-speedup N] [--check-seminaive N]
              [--check-scaling R] [--check-recovery]

   --json writes every measurement to PATH as machine-readable JSON,
   with a [gates] object holding each checked gate's floor, measured
   value and verdict. Every selected section runs before any gate is
   judged, so one failing gate hides no other result; the run then
   exits 1 if any gate failed. The gates fail unless: the join
   section's indexed probe is
   at least N x faster than the full scan (--check-speedup); naive
   evaluation ships at least N x the tuples semi-naive does on the
   transitive closure (--check-seminaive); 4 shards simulate at least
   R x the node-seconds per second of 1 shard on the scaling ring
   (--check-scaling, meaningful on a multicore host only); a
   checkpointed restart converges in strictly fewer probe ticks than a
   cold rejoin (--check-recovery). *)

let nodes = 21
let settle = 150.  (* virtual seconds before measuring *)
let window = 60.   (* measurement window *)
let seeds = [ 1; 2; 3 ]

(* --- machine-readable results (hand-rolled JSON, no deps) --- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string

let buf_json buf j =
  let add = Buffer.add_string buf in
  let str s =
    add "\"";
    String.iter
      (fun c ->
        match c with
        | '"' -> add "\\\""
        | '\\' -> add "\\\\"
        | '\n' -> add "\\n"
        | c when Char.code c < 0x20 -> add (Fmt.str "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    add "\""
  in
  let rec go j =
    match j with
    | Obj kvs ->
        add "{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then add ", ";
            str k;
            add ": ";
            go v)
          kvs;
        add "}"
    | Arr js ->
        add "[";
        List.iteri
          (fun i v ->
            if i > 0 then add ", ";
            go v)
          js;
        add "]"
    | Num f ->
        if Float.is_finite f then add (Fmt.str "%.17g" f)
        else add "null"  (* stddev of a degenerate sample, etc. *)
    | Int i -> add (string_of_int i)
    | Bool b -> add (string_of_bool b)
    | Str s -> str s
  in
  go j

(* Section results accumulate here as each benchmark runs; the writer
   dumps them in run order at exit. Newest-first with a reverse at the
   dump — appending with [@] re-copies the whole list per section. *)
let results : (string * json) list ref = ref []
let record section j = results := (section, j) :: !results

(* Gate verdicts, newest first. Sections record their checks here and
   carry on; the driver judges them together after the last section. *)
type gate = {
  gate : string;
  rule : string;  (* how [measured] must compare with [floor] *)
  floor : float;
  measured : float;
  pass : bool;
}

let gates : gate list ref = ref []

let check_gate ~gate ~rule ~floor ~measured pass =
  gates := { gate; rule; floor; measured; pass } :: !gates;
  if pass then Fmt.pr "  gate %s: %g %s %g — ok@." gate measured rule floor
  else Fmt.epr "FAIL: gate %s: %g not %s %g@." gate measured rule floor

let gates_json () =
  Obj
    (List.rev_map
       (fun g ->
         ( g.gate,
           Obj
             [
               ("rule", Str g.rule);
               ("floor", Num g.floor);
               ("measured", Num g.measured);
               ("pass", Bool g.pass);
             ] ))
       !gates)

let write_json path =
  let buf = Buffer.create 4096 in
  buf_json buf
    (Obj
       [
         ( "meta",
           Obj
             [
               ("nodes", Int nodes);
               ("settle_s", Num settle);
               ("window_s", Num window);
               ("seeds", Arr (List.map (fun s -> Int s) seeds));
               (* the host the numbers came from *)
               ("ocaml_version", Str Sys.ocaml_version);
               ("word_size", Int Sys.word_size);
               (* online CPUs, as the runtime counts them *)
               ("host_cores", Int (Domain.recommended_domain_count ()));
               ("pool_workers", Int (P2_runtime.Pool.size ()));
             ] );
         ("sections", Obj (List.rev !results));
         ("gates", gates_json ());
       ]);
  Buffer.add_char buf '\n';
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "@.Wrote %s@." path

(* --- paper-experiment machinery --- *)

let measured_addr (net : Chord.network) = List.nth net.addrs (nodes - 1)

type point = { cpu : float; mem : float; msgs : float; live : float }

let measure engine addr =
  let before = P2_runtime.Engine.snapshot_node engine addr in
  P2_runtime.Engine.run_for engine window;
  let after = P2_runtime.Engine.snapshot_node engine addr in
  {
    cpu = P2_runtime.Engine.cpu_percent ~before ~after;
    mem = P2_runtime.Engine.memory_mb after;
    msgs = float_of_int (after.messages_tx - before.messages_tx);
    live = float_of_int after.live_tuples;
  }

(* Run one configuration under each seed; [setup] installs the
   workload after the ring has settled. *)
let replicate ?(trace = false) setup =
  let points =
    List.map
      (fun seed ->
        let engine = P2_runtime.Engine.create ~seed ~trace () in
        let net = Chord.boot engine nodes in
        P2_runtime.Engine.run_for engine settle;
        let addr = measured_addr net in
        setup engine net addr;
        (* let the workload reach steady state before the window *)
        P2_runtime.Engine.run_for engine 30.;
        measure engine addr)
      seeds
  in
  let stat f =
    let xs = List.map f points in
    (Metrics.mean xs, Metrics.stddev xs)
  in
  ( stat (fun p -> p.cpu),
    stat (fun p -> p.mem),
    stat (fun p -> p.msgs),
    stat (fun p -> p.live) )

let pp_ms ppf (m, s) = Fmt.pf ppf "%8.3f ±%6.3f" m s

(* Rows collect per section, newest first; [rows_json] reverses and
   drains them into [record]. *)
let pending_rows : (string * json) list ref = ref []

let row label
    ((cpu, mem, msgs, live) :
      (float * float) * (float * float) * (float * float) * (float * float)) =
  Fmt.pr "  %-12s cpu%%: %a   mem MB: %a   msgs: %a   live: %a@." label pp_ms cpu
    pp_ms mem pp_ms msgs pp_ms live;
  let stat name (m, s) =
    [ (name ^ "_mean", Num m); (name ^ "_stddev", Num s) ]
  in
  pending_rows :=
    ( label,
      Obj
        (stat "cpu_proxy_pct" cpu @ stat "mem_proxy_mb" mem @ stat "msgs" msgs
       @ stat "live_tuples" live) )
    :: !pending_rows

let rows_json section =
  record section (Obj (List.rev !pending_rows));
  pending_rows := []

let header title expectation =
  Fmt.pr "@.=== %s ===@." title;
  Fmt.pr "  paper: %s@." expectation

(* --- E0: execution logging overhead (§4, in text) --- *)

let bench_e0 () =
  header "E0: execution-logging overhead"
    "CPU +40% (0.98 -> 1.38), memory +66% (8 MB -> 13 MB)";
  let base = replicate ~trace:false (fun _ _ _ -> ()) in
  let traced = replicate ~trace:true (fun _ _ _ -> ()) in
  row "tracing off" base;
  row "tracing on" traced;
  let cpu ((c, _), _, _, _) = c and mem (_, (m, _), _, _) = m in
  Fmt.pr "  measured: CPU x%.2f, memory x%.2f@."
    (cpu traced /. Float.max 1e-9 (cpu base))
    (mem traced /. Float.max 1e-9 (mem base));
  rows_json "e0"

(* --- Figure 4: periodic monitoring rules --- *)

let periodic_rules k =
  String.concat "\n"
    (List.init k (fun i ->
         Fmt.str "benchp%d result@NAddr() :- periodic@NAddr(E, 1)." i))

let bench_fig4 () =
  header "Figure 4: N periodic rules (period 1 s) on the measured node"
    "CPU grows ~linearly to ~4.5% at 250 rules; memory plateaus above baseline";
  List.iter
    (fun k ->
      let r =
        replicate (fun engine _net addr ->
            if k > 0 then P2_runtime.Engine.install engine addr (periodic_rules k))
      in
      row (Fmt.str "%d rules" k) r)
    [ 0; 50; 100; 150; 200; 250 ];
  rows_json "fig4"

(* --- Figure 5: piggy-backed rules with a state lookup --- *)

let piggyback_rules k =
  "benchdrv event@NAddr() :- periodic@NAddr(E, 1).\n"
  ^ String.concat "\n"
      (List.init k (fun i ->
           Fmt.str
             "benchb%d result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr)."
             i))

let bench_fig5 () =
  header "Figure 5: N piggybacked rules on one 1 s event, each with a state lookup"
    "CPU grows ~linearly to ~6% at 250 rules (state lookups cost more than timers)";
  List.iter
    (fun k ->
      let r =
        replicate (fun engine _net addr ->
            P2_runtime.Engine.install engine addr (piggyback_rules k))
      in
      row (Fmt.str "%d rules" k) r)
    [ 0; 50; 100; 150; 200; 250 ];
  rows_json "fig5"

(* --- Figure 6: proactive consistency probes --- *)

let bench_fig6 () =
  header "Figure 6: consistency probes at increasing rate (probes/s)"
    "memory & messages grow linearly with rate, CPU superlinearly";
  row "none" (replicate (fun _ _ _ -> ()));
  List.iter
    (fun rate ->
      let r =
        replicate (fun _engine net addr ->
            ignore
              (Core.Consistency.install ~addrs:[ addr ] ~t_probe:(1. /. rate)
                 ~t_tally:10. ~window:10. net))
      in
      row (Fmt.str "%g/s" rate) r)
    [ 1. /. 32.; 0.25; 0.5; 0.75; 1. ];
  rows_json "fig6"

(* --- Figure 7: consistent snapshots --- *)

let bench_fig7 () =
  header "Figure 7: consistent snapshots at increasing rate (snapshots/s)"
    "same metrics as Fig. 6 but much cheaper than probes at equal rates";
  row "none" (replicate (fun _ _ _ -> ()));
  List.iter
    (fun rate ->
      let r =
        replicate (fun _engine net addr ->
            ignore
              (Core.Snapshot.install ~initiator:addr ~t_snap:(1. /. rate)
                 ~lookups:false net))
      in
      row (Fmt.str "%g/s" rate) r)
    [ 1. /. 32.; 0.25; 0.5; 0.75; 1. ];
  rows_json "fig7"

(* --- Ablation: correct vs buggy Chord (DESIGN.md) --- *)

let bench_ablation_buggy_chord () =
  header "Ablation: correct vs buggy Chord under a flapping node"
    "(the buggy variant recycles dead neighbors, §3.1.3)";
  let flapping params label =
    let points =
      List.map
        (fun seed ->
          let engine = P2_runtime.Engine.create ~seed () in
          let net = Chord.boot ~params engine nodes in
          P2_runtime.Engine.run_for engine settle;
          let det = Core.Oscillation.install ~period:20. ~threshold:2 net in
          let victim = List.nth net.addrs (nodes / 2) in
          let flaps =
            List.init 6 (fun i ->
                let t = float_of_int i *. 35. in
                Harness.Fault_plan.
                  [ { time = t; action = Crash victim };
                    { time = t +. 20.; action = Recover victim } ])
          in
          Harness.Fault_plan.schedule engine (ref net)
            ~start:(P2_runtime.Engine.now engine)
            (Harness.Fault_plan.make ~horizon:220. (List.concat flaps));
          P2_runtime.Engine.run_for engine 220.;
          ( float_of_int (Core.Alarms.count det.oscill),
            float_of_int (Core.Alarms.count det.repeat) ))
        seeds
    in
    let osc = Metrics.mean (List.map fst points) in
    let rep = Metrics.mean (List.map snd points) in
    Fmt.pr "  %-22s oscillations: %7.1f   repeat-oscillators: %7.1f@." label osc rep;
    pending_rows :=
      (label, Obj [ ("oscillations", Num osc); ("repeat_oscillators", Num rep) ])
      :: !pending_rows
  in
  flapping Chord.default_params "remember-deceased";
  flapping Chord.buggy_params "buggy (recycles dead)";
  rows_json "chord_ablation"

(* --- Ablation: tracing granularity --- *)

let bench_ablation_tracing () =
  header "Ablation: tracing on one node vs all nodes"
    "(per-node cost of the introspection machinery)";
  let one_node =
    replicate ~trace:false (fun engine _net addr ->
        Dataflow.Tracer.enable (P2_runtime.Node.tracer (P2_runtime.Engine.node engine addr)))
  in
  let all_nodes = replicate ~trace:true (fun _ _ _ -> ()) in
  row "traced: self" one_node;
  row "traced: all" all_nodes;
  rows_json "tracing_ablation"

(* --- Reliable transport under loss --- *)

(* The reliability ablation: an 8-node ring booted under uniform loss,
   transport on vs off, same seed and horizon. Retransmissions and
   suppressed duplicates are summed over every node's endpoint. *)
let bench_transport () =
  header "Reliable transport under loss"
    "(8-node ring, 240 s settle; ring converges at 20 % loss only with \
     ack/retransmit on)";
  let arm ~reliable ~loss =
    let engine = P2_runtime.Engine.create ~seed:1 ~loss_rate:loss ~reliable () in
    let net = Chord.boot engine 8 in
    P2_runtime.Engine.run_for engine 240.;
    let retx, dups =
      List.fold_left
        (fun (r, d) addr ->
          let tr = P2_runtime.Engine.transport engine addr in
          ( r + P2_runtime.Transport.retransmit_count tr,
            d + P2_runtime.Transport.duplicate_count tr ))
        (0, 0) net.Chord.addrs
    in
    let ok = Chord.ring_correct net in
    Fmt.pr
      "  %-9s loss=%3.0f%%  retransmits=%-6d duplicates=%-5d ring_correct=%b@."
      (if reliable then "reliable" else "ablated")
      (100. *. loss) retx dups ok;
    Obj
      [
        ("reliable", Int (if reliable then 1 else 0));
        ("loss", Num loss);
        ("retransmits", Int retx);
        ("duplicates", Int dups);
        ("ring_correct", Int (if ok then 1 else 0));
      ]
  in
  (* bind in display order: list elements would evaluate right-to-left *)
  let r0 = arm ~reliable:true ~loss:0. in
  let r20 = arm ~reliable:true ~loss:0.2 in
  let a0 = arm ~reliable:false ~loss:0. in
  let a20 = arm ~reliable:false ~loss:0.2 in
  record "transport" (Arr [ r0; r20; a0; a20 ])

(* --- Semi-naive vs naive evaluation on transitive closure --- *)

(* The evaluation ablation: a distributed transitive closure over a
   fixed digraph (Hamiltonian cycle plus skip-3 chords), edges injected
   staggered so every arrival is an incremental delta. Two arms, same
   seed and schedule: the shipping pipeline (semi-naive with delta
   batching) and the naive control (full-body re-enumeration, one
   frame per tuple). Messages are logical tuple shipments (counted at
   emit, so framing cannot hide them); frames are transport.tx.frames
   summed over all endpoints. The [--check-seminaive N] gate fails
   unless naive ships at least N x the tuples semi-naive does. A live
   8-node Chord ring prices the same pipeline on the real protocol's
   maintenance traffic. *)

let tc_nodes = 10

let tc_program =
  {|materialize(link, infinity, 1024, keys(1, 2)).
materialize(path, infinity, 65536, keys(1, 2)).
p1 path@T(S) :- link@S(T).
p2 path@T(S) :- link@M(T), path@M(S).|}

let tc_edges =
  List.init tc_nodes (fun i -> (i, (i + 1) mod tc_nodes))
  @ List.init tc_nodes (fun i -> (i, (i + 3) mod tc_nodes))

(* Logical shipments and transport frame/batch counts, summed over the
   engine's nodes. *)
let traffic engine =
  let addrs = P2_runtime.Engine.addrs engine in
  let metric name =
    List.fold_left
      (fun acc a ->
        let reg = P2_runtime.Node.registry (P2_runtime.Engine.node engine a) in
        acc + int_of_float (Option.value ~default:0. (Metrics.value reg name)))
      0 addrs
  in
  (metric "net.msgs_tx", metric "transport.tx.frames", metric "transport.tx.batches")

let traffic_row label (msgs, frames, batches) extra =
  ( label,
    Obj
      ([ ("msgs", Int msgs); ("frames", Int frames); ("batches", Int batches) ]
      @ extra) )

let bench_seminaive check =
  header "Semi-naive delta evaluation vs naive re-enumeration"
    (Fmt.str
       "(%d-node transitive closure, %d edges; semi-naive must ship strictly \
        fewer tuples)"
       tc_nodes (List.length tc_edges));
  let arm ~label ~naive =
    let engine = P2_runtime.Engine.create ~seed:1 () in
    if naive then P2_runtime.Engine.set_seminaive engine false;
    for i = 0 to tc_nodes - 1 do
      ignore (P2_runtime.Engine.add_node engine (Fmt.str "n%d" i))
    done;
    P2_runtime.Engine.install_all engine tc_program;
    List.iteri
      (fun i (src, dst) ->
        P2_runtime.Engine.at engine
          ~time:(1.0 +. (0.5 *. float_of_int i))
          (fun () ->
            ignore
            @@ P2_runtime.Engine.inject engine (Fmt.str "n%d" src) "link"
                 [ Overlog.Value.VAddr (Fmt.str "n%d" dst) ]))
      tc_edges;
    P2_runtime.Engine.run_until engine
      (60. +. (0.5 *. float_of_int (List.length tc_edges)));
    let ((msgs, frames, batches) as t) = traffic engine in
    Fmt.pr "  %-12s msgs=%-5d frames=%-5d batches=%d@." label msgs frames batches;
    (msgs, traffic_row label t [])
  in
  let naive_msgs, naive_row = arm ~label:"naive" ~naive:true in
  let semi_msgs, semi_row = arm ~label:"semi" ~naive:false in
  let reduction = float_of_int naive_msgs /. float_of_int (max 1 semi_msgs) in
  Fmt.pr "  message reduction: x%.2f@." reduction;
  let chord_row =
    let engine = P2_runtime.Engine.create ~seed:1 () in
    let net = Chord.boot engine 8 in
    P2_runtime.Engine.run_for engine 240.;
    let ((msgs, frames, batches) as t) = traffic engine in
    let ok = Chord.ring_correct net in
    Fmt.pr "  chord (8 nodes, 240 s) msgs=%-6d frames=%-6d batches=%-5d \
            ring_correct=%b@."
      msgs frames batches ok;
    traffic_row "chord" t [ ("ring_correct", Int (if ok then 1 else 0)) ]
  in
  record "seminaive"
    (Obj
       [
         ("nodes", Int tc_nodes);
         ("edges", Int (List.length tc_edges));
         naive_row;
         semi_row;
         ("msg_reduction", Num reduction);
         chord_row;
       ]);
  Option.iter
    (fun floor ->
      check_gate ~gate:"seminaive" ~rule:">=" ~floor ~measured:reduction
        (reduction >= floor))
    check

(* --- Scaling: the multicore sharded engine --- *)

(* A 256-node Chord ring booted and run for 60 virtual seconds at 1, 2
   and 4 shards, same seed. Rate is node-virtual-seconds simulated per
   wall second (N x horizon / wall). Every shard count is bit-for-bit
   deterministic, so the message totals must agree exactly. The
   [--check-scaling R] gate fails unless 4 shards reach at least R x
   the 1-shard rate — meaningful only on a multicore host (a
   single-core pool runs every shard job on the caller, so the gate
   would price pure barrier overhead). *)

let scaling_nodes = 256
let scaling_horizon = 60.

(* Coarser than the 10 ms default: fewer, fatter rounds amortize the
   barrier without giving up cross-shard-count determinism. *)
let scaling_quantum = 0.05

let bench_scaling check =
  header "Scaling: sharded engine on a 256-node Chord ring"
    (Fmt.str
       "(%.0f virtual s, quantum %.0f ms; rate = node-virtual-seconds per \
        wall second)"
       scaling_horizon (1000. *. scaling_quantum));
  let arm shards =
    let t0 = Unix.gettimeofday () in
    let engine = P2_runtime.Engine.create ~seed:1 () in
    P2_runtime.Engine.set_shards ~quantum:scaling_quantum engine shards;
    let net = Chord.boot engine scaling_nodes in
    P2_runtime.Engine.run_for engine scaling_horizon;
    let wall = Unix.gettimeofday () -. t0 in
    let events = P2_runtime.Engine.events_handled engine in
    let msgs, _, _ = traffic engine in
    let rate = float_of_int scaling_nodes *. scaling_horizon /. wall in
    let ok = Chord.ring_correct net in
    Fmt.pr
      "  shards=%d  %8.0f node-s/s  wall=%6.2fs  events=%-8d msgs=%-7d \
       ring_correct=%b@."
      shards rate wall events msgs ok;
    pending_rows :=
      ( Fmt.str "shards=%d" shards,
        Obj
          [
            ("rate_node_s_per_s", Num rate);
            ("wall_s", Num wall);
            ("events", Int events);
            ("msgs", Int msgs);
            ("ring_correct", Int (if ok then 1 else 0));
          ] )
      :: !pending_rows;
    (rate, msgs)
  in
  let rate1, msgs1 = arm 1 in
  let _, msgs2 = arm 2 in
  let rate4, msgs4 = arm 4 in
  if msgs1 <> msgs2 || msgs1 <> msgs4 then begin
    Fmt.epr
      "FAIL: sharded runs disagree on messages (1:%d 2:%d 4:%d) — determinism \
       broken@."
      msgs1 msgs2 msgs4;
    exit 1
  end;
  let speedup = rate4 /. Float.max 1e-9 rate1 in
  Fmt.pr "  pool workers: %d   shards=4 vs shards=1 speedup: x%.2f@."
    (P2_runtime.Pool.size ()) speedup;
  pending_rows := ("summary", Obj [ ("speedup_4v1", Num speedup) ]) :: !pending_rows;
  rows_json "scaling";
  Option.iter
    (fun floor ->
      check_gate ~gate:"scaling" ~rule:">=" ~floor ~measured:speedup
        (speedup >= floor))
    check

(* --- Join micro-benchmark: indexed probes vs full scans --- *)

(* A single node holds a 1000-row materialized table; each injected
   event joins against it with both non-location key positions bound,
   matching exactly one row.  The indexed run uses the secondary-index
   probe path; the ablation flips [Machine.set_use_probe] off, forcing
   the pre-index full-scan path through the *same* machine code — so
   any difference is attributable to the index.  Local derivation is
   synchronous, so wall-timing the inject loop captures the full join.
   Host CPU seconds ([Sys.time]), because the simulator's work-unit
   cost model charges per firing and cannot see the speedup. *)

let join_rows = 1000
let join_reps = 3

let bench_join check_speedup =
  header "Join micro-benchmark: indexed probe vs full scan"
    (Fmt.str "(%d-row table, bound-key probes; ablation via use_probe)" join_rows);
  let setup () =
    let engine = P2_runtime.Engine.create ~seed:11 () in
    let node = P2_runtime.Engine.add_node engine "a" in
    P2_runtime.Engine.install engine "a"
      "materialize(big, infinity, 2048, keys(1,2)).\n\
       materialize(out, infinity, 2048, keys(1,2,3)).\n\
       rj out@N(X, Y) :- ev@N(X), big@N(X, Y).";
    for i = 0 to join_rows - 1 do
      ignore @@ P2_runtime.Engine.inject engine "a" "big"
        [ Overlog.Value.VInt i; Overlog.Value.VInt (i * 7) ]
    done;
    (engine, node)
  in
  let time_run ~use_probe ~events =
    let engine, node = setup () in
    Dataflow.Machine.set_use_probe (P2_runtime.Node.machine node) use_probe;
    (* warm the path (index creation / first allocation) untimed *)
    ignore @@ P2_runtime.Engine.inject engine "a" "ev" [ Overlog.Value.VInt 0 ];
    let t0 = Sys.time () in
    for i = 1 to events do
      ignore @@ P2_runtime.Engine.inject engine "a" "ev"
        [ Overlog.Value.VInt (i mod join_rows) ]
    done;
    (Sys.time () -. t0) /. float_of_int events
  in
  (* more indexed events so the measured interval is well above the
     [Sys.time] granularity *)
  let indexed_events = 100_000 and scan_events = 2_000 in
  let reps f = List.init join_reps (fun _ -> f ()) in
  let indexed = reps (fun () -> time_run ~use_probe:true ~events:indexed_events) in
  let scanned = reps (fun () -> time_run ~use_probe:false ~events:scan_events) in
  let mean = Metrics.mean and stddev = Metrics.stddev in
  let speedup = mean scanned /. Float.max 1e-12 (mean indexed) in
  Fmt.pr "  indexed probe: %10.0f ns/event ±%8.0f  (%d events x%d)@."
    (mean indexed *. 1e9) (stddev indexed *. 1e9) indexed_events join_reps;
  Fmt.pr "  full scan:     %10.0f ns/event ±%8.0f  (%d events x%d)@."
    (mean scanned *. 1e9) (stddev scanned *. 1e9) scan_events join_reps;
  Fmt.pr "  speedup: x%.1f@." speedup;
  let run name xs events =
    ( name,
      Obj
        [
          ("ns_per_event_mean", Num (mean xs *. 1e9));
          ("ns_per_event_stddev", Num (stddev xs *. 1e9));
          ("events", Int events);
          ("reps", Int join_reps);
        ] )
  in
  record "join_microbench"
    (Obj
       [
         ("table_rows", Int join_rows);
         run "indexed" indexed indexed_events;
         run "scan" scanned scan_events;
         ("speedup", Num speedup);
       ]);
  Option.iter
    (fun floor ->
      check_gate ~gate:"join" ~rule:">=" ~floor ~measured:speedup
        (speedup >= floor))
    check_speedup

(* --- forensics: the flight recorder (docs/FORENSICS.md) --- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "p2bench_flight_%d_%d" (Unix.getpid ()) !n)

(* One traced Chord run per seed per arm; the spill arm writes the
   flight-recorder log and keeps only the shrunk in-RAM window. *)
let forensics_arm ~spill ~log_root seed =
  let engine = P2_runtime.Engine.create ~seed ~trace:true () in
  if spill then
    P2_runtime.Engine.set_trace_log engine
      (Filename.concat log_root (Fmt.str "seed%d" seed));
  let net = Chord.boot engine nodes in
  P2_runtime.Engine.run_for engine settle;
  let addr = measured_addr net in
  let p = measure engine addr in
  P2_runtime.Engine.close_trace_logs engine;
  (p, addr)

let bench_forensics () =
  header "forensics: flight recorder"
    "disk spill trades the tracer's in-RAM window for an on-disk log \
     replayable long after the fact (paper §3.4)";
  let log_root = fresh_dir () in
  Fun.protect ~finally:(fun () -> Framed.rm_rf log_root) @@ fun () ->
  let stat f points = Metrics.(mean (List.map f points), stddev (List.map f points)) in
  let in_ram =
    List.map (fun s -> fst (forensics_arm ~spill:false ~log_root s)) seeds
  in
  let spill =
    List.map (fun s -> fst (forensics_arm ~spill:true ~log_root s)) seeds
  in
  let arm label points =
    row label (stat (fun p -> p.cpu) points, stat (fun p -> p.mem) points,
               stat (fun p -> p.msgs) points, stat (fun p -> p.live) points)
  in
  arm "in-RAM window" in_ram;
  arm "disk spill" spill;
  let mem points = Metrics.mean (List.map (fun p -> p.mem) points) in
  let drop_pct = 100. *. (1. -. (mem spill /. Float.max 1e-9 (mem in_ram))) in
  (* on-disk footprint of what the spill arm's runs recorded *)
  let log_records, log_bytes =
    List.fold_left
      (fun (recs, bytes) seed_dir ->
        List.fold_left
          (fun (r, b) addr ->
            List.fold_left
              (fun (r, b) (s : Seglog.segment) -> (r + s.records, b + s.bytes))
              (r, b)
              (Seglog.segments ~dir:(Filename.concat seed_dir addr)))
          (recs, bytes) (Core.Replay.node_dirs seed_dir))
      (0, 0)
      (List.map (fun s -> Filename.concat log_root (Fmt.str "seed%d" s)) seeds)
  in
  Fmt.pr
    "  resident memory proxy: %.2f -> %.2f MB (%.0f%% drop); log: %d records, \
     %.1f MB@."
    (mem in_ram) (mem spill) drop_pct log_records
    (float_of_int log_bytes /. 1048576.);
  rows_json "forensics_resident";
  record "forensics"
    (Obj
       [
         ("mem_proxy_in_ram_mb", Num (mem in_ram));
         ("mem_proxy_spill_mb", Num (mem spill));
         ("mem_proxy_drop_pct", Num drop_pct);
         ("log_records", Int log_records);
         ("log_bytes", Int log_bytes);
       ])

(* --- recovery: durable checkpoints + crash-restart --- *)

(* Both arms of the recovery-time differential (lib/harness/recovery):
   the same seeded 21-node crash + partition scenario, once with
   durable checkpoints armed and once cold. The snapshot stream is the
   cost side of the trade; the tick gap is the payoff. *)
let bench_recovery check =
  header "recovery: durable checkpoints + crash-restart"
    "restoring hard state from the newest snapshot must beat a cold \
     rejoin through the landmark to ring convergence (docs/OPERATIONS.md)";
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> Framed.rm_rf dir) @@ fun () ->
  let run arm = Harness.Recovery.measure ~dir arm in
  let ck = run Harness.Recovery.Checkpointed in
  let cold = run Harness.Recovery.Cold in
  let ticks r = Option.value r.Harness.Recovery.ticks_to_converge ~default:(-1) in
  Fmt.pr "  checkpoint writes: %d snapshots, %.2f MB@."
    ck.Harness.Recovery.ckpt_snapshots
    (float_of_int ck.Harness.Recovery.ckpt_bytes /. 1048576.);
  Fmt.pr
    "  restart-to-convergence: checkpointed %d tick(s) vs cold rejoin %d \
     tick(s) (probe %gs, %d restored row(s))@."
    (ticks ck) (ticks cold) ck.Harness.Recovery.probe_period
    ck.Harness.Recovery.restored_rows;
  record "recovery"
    (Obj
       [
         ("ckpt_snapshots", Int ck.Harness.Recovery.ckpt_snapshots);
         ("ckpt_bytes", Int ck.Harness.Recovery.ckpt_bytes);
         ("restored_rows", Int ck.Harness.Recovery.restored_rows);
         ("ticks_checkpointed", Int (ticks ck));
         ("ticks_cold", Int (ticks cold));
         ("probe_period_s", Num ck.Harness.Recovery.probe_period);
       ]);
  (* The floor is the cold rejoin's tick count, which a restart from
     a checkpoint must beat strictly. *)
  if check then
    check_gate ~gate:"recovery" ~rule:"<"
      ~floor:(float_of_int (ticks cold))
      ~measured:(float_of_int (ticks ck))
      (ck.Harness.Recovery.recovered_from_checkpoint
      &&
      match
        ( ck.Harness.Recovery.ticks_to_converge,
          cold.Harness.Recovery.ticks_to_converge )
      with
      | Some fast, Some slow -> fast < slow
      | _ -> false)

(* --- driver --- *)

let check_speedup = ref 0.
let check_seminaive = ref 0.
let check_scaling = ref 0.
let check_recovery = ref false
let gate r = if !r > 0. then Some !r else None

(* In run order, which is also the JSON's section order. *)
let all_sections =
  [
    ("e0", bench_e0);
    ("fig4", bench_fig4);
    ("fig5", bench_fig5);
    ("fig6", bench_fig6);
    ("fig7", bench_fig7);
    ("chord", bench_ablation_buggy_chord);
    ("tracing", bench_ablation_tracing);
    ("transport", bench_transport);
    ("forensics", bench_forensics);
    ("seminaive", fun () -> bench_seminaive (gate check_seminaive));
    ("scaling", fun () -> bench_scaling (gate check_scaling));
    ("recovery", fun () -> bench_recovery !check_recovery);
    ("join", fun () -> bench_join (gate check_speedup));
  ]

let () =
  let json_path = ref "" in
  let only = ref "" in
  let usage =
    "main.exe [--only SECTIONS] [--json PATH] [--check-speedup N] \
     [--check-seminaive N] [--check-scaling R] [--check-recovery]"
  in
  Arg.parse
    [
      ( "--only",
        Arg.Set_string only,
        "SECTIONS  comma-separated subset of: "
        ^ String.concat "," (List.map fst all_sections) );
      ("--json", Arg.Set_string json_path, "PATH  write results as JSON");
      ( "--check-speedup",
        Arg.Set_float check_speedup,
        "N  fail unless the join micro-benchmark speedup is >= N" );
      ( "--check-seminaive",
        Arg.Set_float check_seminaive,
        "N  fail unless semi-naive's message reduction over naive is >= N" );
      ( "--check-scaling",
        Arg.Set_float check_scaling,
        "R  fail unless 4 shards reach R x the 1-shard simulation rate" );
      ( "--check-recovery",
        Arg.Set check_recovery,
        "  fail unless the checkpointed restart converges in strictly fewer \
         ticks than the cold rejoin" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wanted = if !only = "" then [] else String.split_on_char ',' !only in
  List.iter
    (fun name ->
      if not (List.mem_assoc name all_sections) then (
        Fmt.epr "unknown section %s@." name;
        exit 2))
    wanted;
  Fmt.pr "P2 monitoring & forensics — paper evaluation reproduction@.";
  Fmt.pr "(%d-node Chord, settle %.0fs, window %.0fs, seeds %a; see EXPERIMENTS.md)@."
    nodes settle window
    Fmt.(list ~sep:(any ",") int)
    seeds;
  List.iter
    (fun (name, f) -> if wanted = [] || List.mem name wanted then f ())
    all_sections;
  if !json_path <> "" then write_json !json_path;
  match List.filter (fun g -> not g.pass) (List.rev !gates) with
  | [] -> ()
  | failed ->
      Fmt.epr "%d gate(s) failed: %a@." (List.length failed)
        Fmt.(list ~sep:(any ", ") string)
        (List.map (fun g -> g.gate) failed);
      exit 1
