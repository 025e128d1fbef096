(* The benchmark workloads and the episode that runs one of them.

   An episode is one complete, seeded job: set up a Chord ring
   (create, boot, settle, install, warm), drive it through a measured
   window in fixed virtual ticks while an open-loop client issues
   lookups at a fixed virtual rate, then run the workload's
   after-window queries and check every output against an oracle.
   Every episode of a run repeats the same seed, so its deterministic
   counts must repeat exactly (Runner repeats episodes for a wall-clock
   budget and turns them into metrics). *)

module E = P2_runtime.Engine
module N = P2_runtime.Node
open Overlog

type tracing =
  | Untraced
  | In_ram  (* execution tracing into the tracer's in-RAM tables *)
  | Flight_recorder  (* tracing spilled to a segment log, plus checkpoints *)

type spec = {
  name : string;
  nodes : int;
  shards : int;  (* 0: the default sequential event loop *)
  tracing : tracing;
  monitors : bool;  (* the monitor_mix installs *)
  settle : float;  (* virtual s from boot to the installs *)
  warm : float;  (* virtual s from the installs to the window *)
  window : float;  (* virtual s measured *)
  tick : float;  (* virtual s per wall-timed host step *)
  lookup_rate : float;  (* client lookups per virtual s *)
  walk_every : int;  (* in-RAM tracing: walk every n-th answered lookup *)
  replay_tail : float;  (* flight recorder: virtual s replayed after the window *)
}

(* Windows are 100 to 120 ticks, enough for a p90 with ten samples
   beyond it, and short, so that a run repeats its episode many times.
   The rings converge within 40 virtual s of boot. *)

(* The core hot path (dataflow, store, wire, transport, sim) on the
   default sequential engine, with tracer, seglog and checkpoints idle.
   15 lookups/s give each percentile enough samples that the choice of
   lookups adds little to the spread between runs. *)
let ring_steady =
  {
    name = "ring_steady";
    nodes = 64;
    shards = 0;
    tracing = Untraced;
    monitors = false;
    settle = 50.;
    warm = 0.;
    window = 60.;
    tick = 0.5;
    lookup_rate = 15.;
    walk_every = 0;
    replay_tail = 0.;
  }

(* The workloads BENCHMARK.json lists. *)
let specs =
  [
    ring_steady;
    (* tracing switched on after the ring settles and run past the 30 s
       ruleExec lifetime, so refcounted expiry is in steady state; then
       a forensic walk back from every eighth lookup answer *)
    {
      ring_steady with
      name = "ring_traced";
      nodes = 21;
      tracing = In_ram;
      settle = 45.;
      warm = 30.;
      window = 10.;
      tick = 0.1;
      lookup_rate = 25.;
      walk_every = 8;
    };
    (* consistency probes on every node, snapshots, the 500 Fig. 4/5
       rules and the watchdog, installed on-line *)
    {
      ring_steady with
      name = "monitor_mix";
      nodes = 21;
      monitors = true;
      settle = 45.;
      warm = 20.;
    };
    (* the trace spilled to disk with 5 s checkpoints, then the log
       inventory and a replay of the last 10 s with a count aggregate *)
    {
      ring_steady with
      name = "flight_recorder";
      nodes = 21;
      tracing = Flight_recorder;
      settle = 45.;
      window = 30.;
      tick = 0.25;
      lookup_rate = 12.;
      replay_tail = 10.;
    };
  ]

(* The same ring on 2 shards: the only workload where the domain pool
   and the barrier replay do the work. It runs by name but is not in
   BENCHMARK.json: two domains on a shared 2-vCPU host swing its times
   about three times as far between runs as ring_steady's, past any
   bound the benchmark can hold (see README.md). *)
let ring_sharded = { ring_steady with name = "ring_sharded"; shards = 2 }

let all = specs @ [ ring_sharded ]
let find name = List.find_opt (fun s -> s.name = name) all

(* The smoke scale keeps every mechanism of a workload but shrinks it
   to 8 nodes and a few virtual seconds, for the test suite. *)
let smoke s =
  {
    s with
    nodes = 8;
    settle = 30.;
    warm = Float.min s.warm 5.;
    window = Float.max 5. (20. *. s.tick);
    replay_tail = Float.min s.replay_tail 5.;
  }

(* A lookup counts as failed when no answer arrives within this many
   virtual seconds; the client stops issuing this long before the
   window ends so every lookup gets its full allowance inside it. *)
let lookup_timeout = 2.

(* The seed varies the client's lookups, not the simulated network:
   with one engine seed every run does the same ring maintenance, so
   runs of different seeds differ in their inputs and in host noise,
   not in how much background work the network happens to generate. *)
let engine_seed = 1

(* Client request ids start far above the ring identifier space, which
   bounds the ids of Chord's own maintenance lookups, so client answers
   are told apart by id alone. *)
let req_base = 1 lsl 40

(* --- monitor_mix installs (the paper's Figs. 4-7 workloads) --- *)

let periodic_rules k =
  String.concat "\n"
    (List.init k (fun i -> Printf.sprintf "benchp%d result@NAddr() :- periodic@NAddr(E, 1)." i))

let piggyback_rules k =
  "benchdrv event@NAddr() :- periodic@NAddr(E, 1).\n"
  ^ String.concat "\n"
      (List.init k (fun i ->
           Printf.sprintf
             "benchb%d result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr)." i))

type monitors = { cons : Core.Consistency.collectors; watchdog : Core.Alarms.collector }

let install_monitors e (net : Chord.network) =
  let measured = List.nth net.addrs (List.length net.addrs - 1) in
  let cons = Core.Consistency.install ~t_probe:1. ~t_tally:10. ~window:10. net in
  ignore (Core.Snapshot.install ~initiator:measured ~t_snap:4. ~lookups:false net);
  E.install e measured (periodic_rules 250);
  E.install e measured (piggyback_rules 250);
  let watchdog = Core.Watchdog.install ~period:5. e in
  { cons; watchdog }

(* --- registry counters --- *)

(* Every node's registry, summed by metric name. *)
let counters e =
  let acc = Hashtbl.create 128 in
  List.iter
    (fun addr ->
      List.iter
        (fun (s : Metrics.sample) ->
          Hashtbl.replace acc s.name
            (s.value +. Option.value ~default:0. (Hashtbl.find_opt acc s.name)))
        (Metrics.snapshot (N.registry (E.node e addr))))
    (E.addrs e);
  acc

let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* --- the client --- *)

type lookup = {
  origin : string;
  key : int;
  mutable issued_wall : int64;
  mutable answer : (Tuple.t * float * int64) option;
      (* first answer: the tuple, its virtual and its wall arrival *)
}

(* Open loop: lookup [i] is due at [w0 + i / rate] whatever the host
   speed. Answers are recorded by a watch on the requester, which a
   sharded run executes on that node's shard: each slot has exactly
   one writer, and the host reads the slots only after the window. *)
let start_client e (net : Chord.network) spec ~seed ~w0 =
  let st = Random.State.make [| seed; 0x10c |] in
  let addrs = Array.of_list net.addrs in
  let n = int_of_float (spec.lookup_rate *. (spec.window -. lookup_timeout)) in
  let lookups =
    Array.init n (fun _ ->
        let origin = addrs.(Random.State.int st (Array.length addrs)) in
        { origin; key = Random.State.full_int st Value.Ring.space; issued_wall = 0L; answer = None })
  in
  Array.iter
    (fun addr ->
      E.watch e addr "lookupResults" (fun t ->
          match Tuple.field t 5 with
          | Value.VInt rid when rid >= req_base && rid - req_base < n ->
              let l = lookups.(rid - req_base) in
              if l.answer = None then l.answer <- Some (t, E.now e, Spans.now_ns ())
          | _ -> ()))
    addrs;
  Array.iteri
    (fun i l ->
      E.at e
        ~time:(w0 +. (float_of_int i /. spec.lookup_rate))
        (fun () ->
          l.issued_wall <- Spans.now_ns ();
          Chord.lookup net ~addr:l.origin ~key:l.key ~req_id:(req_base + i) ()))
    lookups;
  lookups

(* --- one episode --- *)

type episode = {
  setup_s : float;
  window_s : float;  (* sum of tick walls *)
  query_s : float;  (* after-window queries the job includes *)
  ticks : float array;  (* wall s per tick *)
  lookup_ms : float array;  (* wall latency per lookup, nan when unanswered *)
  walk_ms : float list;
  heap_live_mb : float;  (* live heap at window end *)
  window_msgs : int;  (* messages sent during the window *)
  attempted : int;
  failed : int;
  problems : string list;  (* failed checks, for the log *)
  events : int;  (* deterministic counts, compared across episodes *)
  msgs : int;
  answered : int;
  layer : (string * float) list;
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let tracer_tables e =
  List.fold_left
    (fun acc addr ->
      let tr = N.tracer (E.node e addr) in
      let now = E.local_time e addr in
      acc
      + Store.Table.size (Dataflow.Tracer.rule_exec_table tr) ~now
      + Store.Table.size (Dataflow.Tracer.tuple_table tr) ~now)
    0 (E.addrs e)

(* Layer replays: the end-of-window catalog rows of every node,
   re-inserted into fresh tables with the same keys and lifetime,
   probed by their keys, and pushed through the wire codec. *)
let store_wire_replay sp e =
  let rows = ref 0 and ins = ref 0. and probe = ref 0. and enc = ref 0. and dec = ref 0. in
  List.iter
    (fun addr ->
      let now = E.now e in
      Store.Catalog.iter
        (N.catalog (E.node e addr))
        (fun table ->
          let tuples = Store.Table.tuples table ~now in
          let fresh =
            Store.Table.create ~lifetime:(Store.Table.lifetime table)
              ~keys:(Store.Table.keys table) (Store.Table.name table)
          in
          let (), t = Spans.time sp "store.insert" (fun () ->
              List.iter (fun tu -> ignore (Store.Table.insert fresh ~now tu)) tuples) in
          ins := !ins +. t;
          let (), t = Spans.time sp "store.probe" (fun () ->
              List.iter
                (fun tu ->
                  let positions =
                    match Store.Table.keys table with
                    | [] -> List.init (Tuple.arity tu) (fun i -> i + 1)
                    | ks -> ks
                  in
                  ignore
                    (Store.Table.probe fresh ~now ~positions ~values:(Tuple.key_of tu positions)))
                tuples) in
          probe := !probe +. t;
          let frames, t = Spans.time sp "wire.encode" (fun () ->
              List.map (fun tu -> Wire.encode tu) tuples) in
          enc := !enc +. t;
          let (), t = Spans.time sp "wire.decode" (fun () ->
              List.iter (fun f -> ignore (Wire.decode f)) frames) in
          dec := !dec +. t;
          rows := !rows + List.length tuples))
    (E.addrs e);
  let per x = x *. 1e9 /. float_of_int (max 1 !rows) in
  [
    ("store.insert_ns", per !ins);
    ("store.probe_ns", per !probe);
    ("wire.encode_ns", per !enc);
    ("wire.decode_ns", per !dec);
  ]

(* The install path replayed: every node's installed rules, parsed and
   analyzed again under that node's analyzer environment. *)
let install_replay sp e =
  let parse = ref 0. and analyze = ref 0. in
  List.iter
    (fun addr ->
      let node = E.node e addr in
      let src = String.concat "\n" (List.map snd (N.rules node)) in
      let ast, t = Spans.time sp "parse" (fun () -> Parser.parse src) in
      parse := !parse +. t;
      let _, t = Spans.time sp "analyze" (fun () ->
          Analysis.analyze ~env:(N.analysis_env node) ast) in
      analyze := !analyze +. t)
    (E.addrs e);
  [ ("install.parse_us", !parse *. 1e6); ("install.analyze_us", !analyze *. 1e6) ]

let percentile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

(* Count ruleExec rows per rule the way the replayed table holds
   them: one per distinct key (rule, cause, effect, isEvent). *)
let rule_exec_counts records =
  let seen = Hashtbl.create 1024 and counts = Hashtbl.create 32 in
  List.iter
    (fun (r : Seglog.record) ->
      let t = r.tuple in
      if Tuple.name t = "ruleExec" && not r.delete then begin
        let key = Tuple.key_of t [ 2; 3; 4; 7 ] in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          let rule = Value.as_string (Tuple.field t 2) in
          Hashtbl.replace counts rule (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule))
        end
      end)
    records;
  counts

let count_query = "rq cnt@N(R, count<*>) :- ruleExec@N(R,C,E,T1,T2,IsE)."

(* The flight recorder's after-window job: seal the logs, take the
   inventory an operator would (segment integrity, newest intact
   checkpoint per node), read the tail of every log and replay that
   tail with a historical count query. Returns the checks' inputs,
   the job's wall seconds and the layer figures. *)
let flight_post sp e ~dir ~from_ ~layers =
  let log = Filename.concat dir "log" and ckpt = Filename.concat dir "ckpt" in
  let addrs = E.addrs e in
  let (), close_s =
    Spans.time sp "close" (fun () ->
        E.close_trace_logs e;
        E.close_checkpoints e)
  in
  let inventory, inventory_s =
    Spans.time sp "inventory" (fun () ->
        List.map
          (fun addr ->
            ( addr,
              List.for_all Seglog.intact (Seglog.segments ~dir:(Filename.concat log addr)),
              Checkpoint.latest ~dir:(Filename.concat ckpt addr) <> None ))
          addrs)
  in
  let tails, iter_s =
    Spans.time sp "seglog.iter" (fun () ->
        List.map
          (fun addr ->
            let acc = ref [] in
            Seglog.iter ~from_ ~dir:(Filename.concat log addr) (fun r -> acc := r :: !acc);
            (addr, !acc))
          addrs)
  in
  let replayed = Hashtbl.create 256 in
  let on_node eng node =
    let addr = N.addr node in
    E.watch eng addr "cnt" (fun t ->
        let k = (addr, Value.as_string (Tuple.field t 2)) and c = Value.as_int (Tuple.field t 3) in
        if c > Option.value ~default:0 (Hashtbl.find_opt replayed k) then Hashtbl.replace replayed k c)
  in
  let r, replay_s =
    Spans.time sp "replay" (fun () ->
        Core.Replay.load ~from_ ~program:count_query ~on_node ~dir:log ())
  in
  let restored = List.fold_left (fun a (n : Core.Replay.node_report) -> a + n.restored) 0 r.reports in
  let records = List.fold_left (fun a (_, rs) -> a + List.length rs) 0 tails in
  let restore_s =
    if layers then snd (Spans.time sp "replay.restore" (fun () -> Core.Replay.load ~from_ ~dir:log ()))
    else 0.
  in
  let layer =
    [
      ("seglog.iter_ns_per_record", iter_s *. 1e9 /. float_of_int (max 1 records));
      ("replay.records_per_s", float_of_int restored /. replay_s);
      ("replay.restore_s", restore_s);
      ("replay.query_s", if layers then replay_s -. restore_s else 0.);
    ]
  in
  let counts = List.map (fun (addr, rs) -> (addr, rule_exec_counts rs)) tails in
  (inventory, counts, replayed, close_s +. inventory_s +. iter_s +. replay_s, layer)

let episode ?(spans_off = false) ?(tracing_override : tracing option) ~spec ~seed ~tmp
    ~layers sp =
  let sp = if spans_off then Spans.create ~on:false ~run_id:"" else sp in
  let tracing = Option.value tracing_override ~default:spec.tracing in
  let dir = Filename.concat tmp "episode" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  mkdir_p dir;
  let (e, net, mon, install_s), setup_s =
    Spans.time sp "setup" (fun () ->
        let e = Spans.run sp "create" (fun () -> E.create ~seed:engine_seed ()) in
        if spec.shards > 0 then E.set_shards ~quantum:0.05 e spec.shards;
        if tracing = Flight_recorder then begin
          E.set_trace_log e (Filename.concat dir "log");
          E.set_checkpoint
            ~config:{ Checkpoint.interval = 5.; retain = Some 3 }
            e (Filename.concat dir "ckpt")
        end;
        (* booting is adding nodes and installing Chord on each *)
        let net, boot_s = Spans.time sp "boot" (fun () -> Chord.boot e spec.nodes) in
        Spans.run sp "settle" (fun () -> E.run_for e spec.settle);
        let mon, install_s =
          Spans.time sp "install" (fun () ->
              if tracing = In_ram then
                List.iter (fun a -> Dataflow.Tracer.enable (N.tracer (E.node e a))) net.addrs;
              if spec.monitors then Some (install_monitors e net) else None)
        in
        Spans.run sp "warm" (fun () -> E.run_for e spec.warm);
        (e, net, mon, boot_s +. install_s))
  in
  (* the window *)
  let w0 = E.now e in
  let lookups = start_client e net spec ~seed ~w0 in
  let before, snapshot_s = Spans.time sp "counters" (fun () -> counters e) in
  let ev0 = E.events_handled e in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Unix.times () in
  let nticks = int_of_float (Float.round (spec.window /. spec.tick)) in
  let ticks = Array.make nticks 0. in
  Spans.run sp "window" (fun () ->
      for i = 0 to nticks - 1 do
        let ev = E.events_handled e and mw = Gc.minor_words () in
        let (), w =
          Spans.time sp "tick" (fun () ->
              E.run_until e (w0 +. (float_of_int (i + 1) *. spec.tick)))
        in
        ticks.(i) <- w;
        Spans.annotate sp "tick"
          [
            ("events", float_of_int (E.events_handled e - ev));
            ("minor_words", Gc.minor_words () -. mw);
          ]
      done);
  let window_s = Array.fold_left ( +. ) 0. ticks in
  let w1 = E.now e in
  let cpu1 = Unix.times () in
  let gc1 = Gc.quick_stat () in
  let events = E.events_handled e - ev0 in
  let after = Spans.run sp "counters" (fun () -> counters e) in
  let d name = get after name -. get before name in
  (* what the running system holds: everything reachable once the
     earlier episodes' garbage is gone *)
  let heap_live_mb =
    Spans.run sp "heap" (fun () ->
        Gc.full_major ();
        float_of_int ((Gc.quick_stat ()).live_words * (Sys.word_size / 8)) /. 1048576.)
  in
  let table_rows = tracer_tables e in
  let ring_ok = Chord.ring_correct net in
  (* after-window queries *)
  let walks = ref [] and flight = ref None in
  let query_s =
    Spans.run sp "post" (fun () ->
        match tracing with
        | In_ram ->
            Array.iteri
              (fun i l ->
                match l.answer with
                | Some (t, _, _) when i mod spec.walk_every = 0 ->
                    let g, s =
                      Spans.time sp "walk" (fun () ->
                          Core.Forensics.walk e ~addr:l.origin ~tuple_id:(Tuple.id t))
                    in
                    walks := (g, s) :: !walks
                | _ -> ())
              lookups;
            List.fold_left (fun a (_, s) -> a +. s) 0. !walks
        | Flight_recorder ->
            let ((_, _, _, q, _) as r) =
              flight_post sp e ~dir ~from_:(w1 -. spec.replay_tail) ~layers
            in
            flight := Some r;
            q
        | Untraced -> 0.)
  in
  (* oracle checks, outside the job's time *)
  let problems = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let op ok what =
    incr attempted;
    if not ok then begin
      incr failed;
      problems := what :: !problems
    end
  in
  Spans.run sp "check" (fun () ->
      if not ring_ok then problems := "ring not correct at window end" :: !problems;
      Array.iteri
        (fun i l ->
          match l.answer with
          | Some (t, at, _) ->
              let succ = Value.as_addr (Tuple.field t 4) in
              op
                (at -. (w0 +. (float_of_int i /. spec.lookup_rate)) <= lookup_timeout
                && succ = Chord.true_successor net l.key)
                (Printf.sprintf "lookup %d answered %s late or wrong" i succ)
          | None -> op false (Printf.sprintf "lookup %d unanswered" i))
        lookups;
      List.iter
        (fun ((g : Core.Forensics.graph), _) ->
          op (g.edges <> []) (Printf.sprintf "walk from %s found no cause" g.root.node))
        !walks;
      (match mon with
      | Some m ->
          List.iter
            (fun (r : Core.Consistency.probe_result) ->
              if r.time >= w0 && r.time <= w1 then
                op (r.value >= 1.0)
                  (Printf.sprintf "consistency %g at %s t=%g" r.value r.node r.time))
            (Core.Consistency.results m.cons);
          List.iter
            (fun (a : Core.Alarms.alarm) ->
              if a.time >= w0 && a.time <= w1 then
                op false (Printf.sprintf "alarm %s at %s" (Tuple.to_string a.tuple) a.node))
            (Core.Alarms.alarms m.cons.alarms @ Core.Alarms.alarms m.watchdog)
      | None -> ());
      match !flight with
      | Some (inventory, scans, replayed, _, _) ->
          List.iter
            (fun (addr, intact, ckpt) ->
              op intact (addr ^ ": damaged log segment");
              op ckpt (addr ^ ": no intact checkpoint"))
            inventory;
          List.iter
            (fun (addr, counts) ->
              Hashtbl.iter
                (fun rule n ->
                  let got = Option.value ~default:0 (Hashtbl.find_opt replayed (addr, rule)) in
                  op (got = n) (Printf.sprintf "%s/%s: replay counted %d, log holds %d" addr rule got n))
                counts)
            scans
      | None -> ());
  let lookup_ms =
    Array.map
      (fun l ->
        match l.answer with
        | Some (_, _, wall) -> Spans.seconds_between l.issued_wall wall *. 1e3
        | None -> nan)
      lookups
  in
  let walk_ms = List.map (fun (_, s) -> s *. 1e3) !walks in
  let frames = d "transport.tx.frames" in
  let nodes = float_of_int spec.nodes in
  let layer =
    [
      ("install.install_us", install_s *. 1e6);
      ("install.rules", get before "node.rules_installed");
      ("engine.events", float_of_int events);
      ("engine.ns_per_event", window_s *. 1e9 /. float_of_int (max 1 events));
      ("gc.minor_words_per_event", (gc1.minor_words -. gc0.minor_words) /. float_of_int (max 1 events));
      ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
      ("machine.triggers", d "machine.triggers");
      ("machine.agenda.executed", d "machine.agenda.executed");
      ("machine.drains", d "machine.drains");
      ("machine.items_per_drain", d "machine.agenda.executed" /. Float.max 1. (d "machine.drains"));
      ("store.inserts", d "store.inserts");
      ("store.probes", d "store.probes");
      ("net.msgs_tx", d "net.msgs_tx");
      ("net.bytes_per_frame", d "net.bytes_tx" /. Float.max 1. frames);
      ("net.msgs_per_frame", d "net.msgs_tx" /. Float.max 1. frames);
      ("transport.tx.frames", frames);
      ("transport.tx.batches", d "transport.tx.batches");
      ("transport.tx.batched_tuples", d "transport.tx.batched_tuples");
      ("transport.tx.acks", d "transport.tx.acks");
      ("transport.retransmits", d "transport.retransmits");
      ("engine.barrier_wait_ns", d "engine.barrier_wait_ns" /. nodes);
      ("engine.shard_busy_pct", get after "engine.shard_busy_pct" /. nodes);
      ( "proc.cpu_per_wall",
        (cpu1.Unix.tms_utime +. cpu1.tms_stime -. cpu0.Unix.tms_utime -. cpu0.tms_stime)
        /. window_s );
      ("tracer.taps", d "tracer.taps");
      ("tracer.rule_exec_rows", d "tracer.rule_exec_rows");
      ("tracer.tuples_registered", d "tracer.tuples_registered");
      ("tracer.table_rows", float_of_int table_rows);
      ( "walk.vertices",
        float_of_int (List.fold_left (fun a ((g : Core.Forensics.graph), _) -> a + List.length g.vertices) 0 !walks) );
      ( "walk.edges",
        float_of_int (List.fold_left (fun a ((g : Core.Forensics.graph), _) -> a + List.length g.edges) 0 !walks) );
      ("trace.log.records", d "trace.log.records");
      ("trace.log.bytes", d "trace.log.bytes");
      ("trace.log.flush_ns", d "trace.log.flush_ns");
      ("ckpt.snapshots", d "ckpt.snapshots");
      ("ckpt.bytes", d "ckpt.bytes");
      ("ckpt.write_ns", d "ckpt.write_ns");
      ("metrics.snapshot_us", snapshot_s *. 1e6);
    ]
    @ (match !flight with Some (_, _, _, _, l) -> l | None -> [])
    @
    if layers then Spans.run sp "layers" (fun () -> store_wire_replay sp e @ install_replay sp e)
    else []
  in
  {
    setup_s;
    window_s;
    query_s;
    ticks;
    lookup_ms;
    walk_ms;
    heap_live_mb;
    window_msgs = int_of_float (d "net.msgs_tx");
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    events = E.events_handled e;
    msgs = int_of_float (get after "net.msgs_tx");
    answered = Array.fold_left (fun n l -> if l.answer = None then n else n + 1) 0 lookups;
    layer;
  }
