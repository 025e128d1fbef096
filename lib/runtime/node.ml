(** One P2 node: tables, compiled strands, tracer, metrics, and the
    planner that installs OverLog programs — including on-line, while
    the node runs (the paper's "deploy piecemeal at any point in the
    life cycle").

    The node is transport-agnostic: the engine injects [send] and
    [now] closures and drives delivery. *)

open Overlog

type timer_request = { strand : Dataflow.Strand.t; period : float }

type peer_stats = {
  mutable tx_msgs : int;
  mutable tx_bytes : int;
  mutable rx_msgs : int;
  mutable rx_bytes : int;
}

(* Everything the per-tuple path needs to know about one predicate,
   found with one lookup (DESIGN.md §8). A node's routes are the only
   record of its event strands and watches, and the three mutations
   that change routing (a new table, strand or watch) update the
   route in place, so no route is ever stale. *)
type route = {
  mutable rows : rows;
  mutable strands : Dataflow.Strand.t list;  (* event strands, install order *)
  mutable watchers : (Tuple.t -> unit) list;  (* newest first *)
  traced : bool;  (* the tracer registers tuples of this name *)
}

(* Where a predicate's tuples live. *)
and rows =
  | Catalog_table of Store.Table.t  (* materialized: tuples are stored *)
  | Tracer_table of Store.Table.t
      (* [ruleExec]/[tupleTable]: the tracer's introspection tables,
         queryable like any other (paper §2.1) *)
  | Stream  (* an event: tuples go to event strands *)

type t = {
  addr : string;
  catalog : Store.Catalog.t;
  registry : Metrics.t;
  work : Metrics.Gauge.t;
      (* accumulated work units (notional µs): the CPU proxy, and the
         offset of node-local time from the simulation clock *)
  tuples_created : Metrics.Counter.t;
  msgs_tx : Metrics.Counter.t;
  msgs_rx : Metrics.Counter.t;
  bytes_tx : Metrics.Counter.t;
  bytes_rx : Metrics.Counter.t;
  peers : peer_stats Strtbl.t;
  rng : Sim.Rng.t;
  tracer : Dataflow.Tracer.t;
  mutable machine : Dataflow.Machine.t;
  routes : route Strtbl.t;
  mutable next_tuple_id : int;
  clock : (unit -> float) ref;
  mutable now : unit -> float;
  mutable send : dst:string -> delete:bool -> src_tuple:Tuple.t -> unit;
  mutable on_timer_request : timer_request -> unit;
  mutable rules_installed : int;
  mutable rule_texts : (string * string) list;  (* (rule id, source), newest first *)
  mutable anon_rule_counter : int;
  mutable dead_events : int;
  mutable delivering : int;  (* re-entrancy depth, to defer drains *)
  mutable strict_install : bool;
      (* reject programs with analysis errors instead of logging them *)
  mutable last_diagnostics : Analysis.diagnostic list;
      (* what the analyzer said about the most recent install *)
  mutable trace_log : Seglog.writer option;
      (* flight-recorder spill target; the tracer sink feeds it *)
}

let system_tables = [ "ruleExec"; "tupleTable" ]

(* Tables populated by the runtime's own metric reflection. They are
   exempt from tracer registration: reflecting hundreds of p2Stats
   rows per tick into the tupleTable would make the measurement
   instrument dominate what it measures. *)
let reflected_tables =
  [ "p2Stats"; "p2TableStats"; "p2NetStats"; "p2PeerStatus"; "p2Rule" ]

let log_src = Logs.Src.create "p2.analysis" ~doc:"OverLog install-time analysis"

module Log = (val Logs.src_log log_src)

let fresh_tuple_id t =
  let id = t.next_tuple_id in
  t.next_tuple_id <- id + 1;
  id

let addr t = t.addr
let catalog t = t.catalog
let registry t = t.registry
let tracer t = t.tracer

let peer t addr =
  match Strtbl.find_opt t.peers addr with
  | Some p -> p
  | None ->
      let p = { tx_msgs = 0; tx_bytes = 0; rx_msgs = 0; rx_bytes = 0 } in
      Strtbl.replace t.peers addr p;
      p

let peers t =
  Strtbl.fold (fun a p acc -> (a, p) :: acc) t.peers []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
let dead_events t = t.dead_events
let rules_installed t = t.rules_installed

let eval_context t =
  {
    Eval.now = (fun () -> t.now ());
    rand = (fun () -> Sim.Rng.float t.rng);
    rand_id = (fun () -> Sim.Rng.int t.rng Value.Ring.space);
    local_addr = t.addr;
  }

let route t name =
  match Strtbl.find_opt t.routes name with
  | Some r -> r
  | None ->
      let rows =
        match (Store.Catalog.find t.catalog name, name) with
        | Some table, _ -> Catalog_table table
        | None, "ruleExec" -> Tracer_table (Dataflow.Tracer.rule_exec_table t.tracer)
        | None, "tupleTable" -> Tracer_table (Dataflow.Tracer.tuple_table t.tracer)
        | None, _ -> Stream
      in
      let r =
        {
          rows;
          strands = [];
          watchers = [];
          traced =
            not (List.mem name system_tables || List.mem name reflected_tables);
        }
      in
      Strtbl.replace t.routes name r;
      r

let scan t name =
  match (route t name).rows with
  | Catalog_table table | Tracer_table table ->
      Store.Table.tuples table ~now:(t.now ())
  | Stream -> []

(* Indexed access path for join stages with bound argument positions,
   over catalog and tracer tables alike; an unknown predicate has no
   rows either way. *)
let probe t name ~positions ~values =
  match (route t name).rows with
  | Catalog_table table | Tracer_table table ->
      Store.Table.probe table ~now:(t.now ()) ~positions ~values
  | Stream -> []

let is_table t name =
  Store.Catalog.is_table t.catalog name || List.mem name system_tables

(* Register a freshly minted local tuple with the tracer. *)
let create_tuple t ~dst name fields =
  let id = fresh_tuple_id t in
  let tuple = Tuple.make ~id name fields in
  Metrics.Counter.incr t.tuples_created;
  if (route t name).traced then
    Dataflow.Tracer.register_tuple t.tracer tuple ~src:t.addr ~src_id:id ~dst;
  tuple

(* Run [f] as one delivery: the agenda drains when the outermost
   delivery returns. *)
let delivering t f =
  t.delivering <- t.delivering + 1;
  Fun.protect
    ~finally:(fun () ->
      t.delivering <- t.delivering - 1;
      if t.delivering = 0 then Dataflow.Machine.drain t.machine)
    f

(* Deliver a tuple that has materialized locally: notify watches, then
   either insert it (materialized predicate — delta strands fire via
   the table subscription) or hand it to event strands. *)
let rec deliver t tuple = deliver_via t (route t (Tuple.name tuple)) tuple

(* A watch may install a table, strand or watch on this very name:
   the route is read again after the watches ran. *)
and deliver_via t r tuple =
  delivering t (fun () ->
      List.iter (fun f -> f tuple) r.watchers;
      match r.rows with
      | Catalog_table table ->
          Metrics.Gauge.add t.work Dataflow.Cost.table_insert;
          ignore (Store.Table.insert table ~now:(t.now ()) tuple)
      | Tracer_table _ | Stream -> (
          match (r.strands, r.watchers) with
          | [], [] -> t.dead_events <- t.dead_events + 1
          | strands, _ ->
              List.iter
                (fun s -> ignore (Dataflow.Machine.trigger t.machine s tuple))
                strands))

and emit t ~delete tuple =
  let dst = Tuple.location tuple in
  if String.equal dst t.addr then
    if delete then apply_delete t tuple else deliver t tuple
  else begin
    let bytes = Wire.size ~delete tuple in
    Metrics.Counter.incr t.msgs_tx;
    Metrics.Counter.add t.bytes_tx bytes;
    Metrics.Gauge.add t.work Dataflow.Cost.marshal;
    let p = peer t dst in
    p.tx_msgs <- p.tx_msgs + 1;
    p.tx_bytes <- p.tx_bytes + bytes;
    t.send ~dst ~delete ~src_tuple:tuple
  end

(* Delete-head semantics: fields bound in the pattern must match; VNull
   fields are wildcards (cs10 binds only some head variables). *)
and apply_delete t pattern =
  match (route t (Tuple.name pattern)).rows with
  | Tracer_table _ | Stream -> ()
  | Catalog_table table ->
      let matches candidate =
        Tuple.arity candidate = Tuple.arity pattern
        && List.for_all2
             (fun p c -> p = Value.VNull || Value.equal p c)
             (Tuple.fields pattern) (Tuple.fields candidate)
      in
      let _ = Store.Table.delete_where table ~now:(t.now ()) matches in
      ()

(* A tuple arrived from the network: mint a local id, record the
   cross-node link in the tupleTable (paper §2.1.3), and deliver.
   [bytes] is the wire-frame size when the transport knows it. *)
let receive t ?(bytes = 0) ~src ~src_tuple_id ~delete ~name ~fields () =
  Metrics.Counter.incr t.msgs_rx;
  Metrics.Counter.add t.bytes_rx bytes;
  Metrics.Gauge.add t.work Dataflow.Cost.marshal;
  let p = peer t src in
  p.rx_msgs <- p.rx_msgs + 1;
  p.rx_bytes <- p.rx_bytes + bytes;
  let id = fresh_tuple_id t in
  let tuple = Tuple.make ~id name fields in
  Metrics.Counter.incr t.tuples_created;
  let r = route t name in
  if r.traced then
    Dataflow.Tracer.register_tuple t.tracer tuple ~src ~src_id:src_tuple_id ~dst:t.addr;
  if delete then apply_delete t tuple else deliver_via t r tuple

(* Reflect [name(addr, fields...)] (P2stats). A row already stored with
   these contents is refreshed in place, as [deliver] would refresh it
   — the same insert charge, lifetime touch and [Refresh] delta — but
   no tuple is minted and the agenda drains only if the expiry sweep
   queued work. A new or changed row, or a watched name, takes the
   mint-and-deliver path. *)
let reflect t name fields =
  let fields = Value.VAddr t.addr :: fields in
  let r = route t name in
  match (r.rows, r.watchers) with
  | Catalog_table table, [] ->
      Metrics.Gauge.add t.work Dataflow.Cost.table_insert;
      let now = t.now () in
      if Store.Table.refresh table ~now (Tuple.make name fields) then begin
        if t.delivering = 0 && Dataflow.Machine.agenda_depth t.machine > 0 then
          Dataflow.Machine.drain t.machine
      end
      else
        let tuple = create_tuple t ~dst:t.addr name fields in
        delivering t (fun () -> ignore (Store.Table.insert table ~now tuple))
  | _ -> deliver_via t r (create_tuple t ~dst:t.addr name fields)

let dummy_machine addr =
  Dataflow.Machine.create
    {
      Dataflow.Machine.addr;
      now = (fun () -> 0.);
      eval_ctx = Eval.null_context;
      scan = (fun _ -> []);
      probe = (fun _ ~positions:_ ~values:_ -> []);
      create_tuple = (fun ~dst:_ name fields -> Tuple.make name fields);
      emit = (fun ~delete:_ _ -> ());
      charge = (fun _ -> ());
      tracer = None;
    }

(* Publish every runtime counter under a stable dotted name. Gauges
   close over [t] so they always read the node's current machine and
   tracer; the store gauges use the side-effect-free [Table] counter
   accessors so sampling never triggers expiry sweeps. The full name
   catalog is documented in docs/OPERATIONS.md, and a test pins the
   two in sync. *)
let register_metrics t =
  let reg = t.registry in
  let counter name f = Metrics.register reg name Metrics.KCounter f in
  let gauge name f = Metrics.register reg name Metrics.KGauge f in
  (* machine: agenda and strand execution *)
  let ms () = Dataflow.Machine.stats t.machine in
  counter "machine.triggers" (fun () ->
      float_of_int (Metrics.Counter.value (ms ()).triggers));
  counter "machine.naive_refires" (fun () ->
      float_of_int (Metrics.Counter.value (ms ()).naive_refires));
  counter "machine.agenda.executed" (fun () ->
      float_of_int (Metrics.Counter.value (ms ()).executed));
  counter "machine.agenda.enqueued" (fun () ->
      float_of_int (Metrics.Counter.value (ms ()).enqueued));
  gauge "machine.agenda.depth" (fun () ->
      float_of_int (Dataflow.Machine.agenda_depth t.machine));
  gauge "machine.agenda.depth_max" (fun () ->
      float_of_int (Dataflow.Machine.agenda_depth_max t.machine));
  counter "machine.drains" (fun () ->
      float_of_int (Metrics.Counter.value (ms ()).drains));
  Metrics.attach_histogram reg "machine.drain_items"
    (Dataflow.Machine.stats t.machine).drain_items;
  Metrics.attach_histogram reg "machine.drain_work_us"
    (Dataflow.Machine.stats t.machine).drain_work_us;
  (* node: planner and lifecycle counters *)
  counter "node.rules_installed" (fun () -> float_of_int t.rules_installed);
  counter "node.dead_events" (fun () -> float_of_int t.dead_events);
  Metrics.attach_counter reg "node.tuples_created" t.tuples_created;
  counter "node.rule_executions" (fun () ->
      float_of_int (Metrics.Counter.value (ms ()).rule_executions));
  (* A running total, so a counter, but float-valued: it lives in a
     gauge, whose all-float record updates without boxing. *)
  counter "node.work_units" (fun () -> Metrics.Gauge.value t.work);
  (* net: node-wide traffic (per-peer detail goes to p2NetStats) *)
  Metrics.attach_counter reg "net.msgs_tx" t.msgs_tx;
  Metrics.attach_counter reg "net.msgs_rx" t.msgs_rx;
  Metrics.attach_counter reg "net.bytes_tx" t.bytes_tx;
  Metrics.attach_counter reg "net.bytes_rx" t.bytes_rx;
  (* store: catalog-wide census; live counts go through the normal
     expiry-aware reads only inside [live_tuples] (the engine's Sweep),
     so these gauges stay cheap and side-effect-free *)
  gauge "store.tables" (fun () ->
      float_of_int (List.length (Store.Catalog.names t.catalog)));
  let sum_over_tables count =
    (* Reflection tables are excluded so the instrument does not count
       its own inserts and inflate what it reports. *)
    List.fold_left
      (fun acc n ->
        if List.mem n reflected_tables then acc
        else acc + count (Store.Catalog.find_exn t.catalog n))
      0
      (Store.Catalog.names t.catalog)
  in
  counter "store.inserts" (fun () ->
      float_of_int (sum_over_tables Store.Table.insert_count));
  counter "store.probes" (fun () ->
      float_of_int (sum_over_tables Store.Table.probe_count));
  (* tracer: execution-logging overhead *)
  let ts = Dataflow.Tracer.stats t.tracer in
  gauge "tracer.enabled" (fun () ->
      if Dataflow.Tracer.enabled t.tracer then 1. else 0.);
  Metrics.attach_counter reg "tracer.taps" ts.taps;
  Metrics.attach_counter reg "tracer.rule_exec_rows" ts.rule_exec_rows;
  Metrics.attach_counter reg "tracer.tuples_registered" ts.tuples_registered;
  (* trace.log: flight-recorder spill. Registered unconditionally (the
     documentation contract covers every node) and reading 0 until a
     segment-log writer is attached. *)
  let wstat f () =
    match t.trace_log with
    | Some w -> float_of_int (f (Seglog.stats w))
    | None -> 0.
  in
  counter "trace.log.segments" (wstat (fun s -> s.Seglog.segments_sealed));
  counter "trace.log.records" (wstat (fun s -> s.Seglog.records_written));
  counter "trace.log.bytes" (wstat (fun s -> s.Seglog.bytes_written));
  counter "trace.log.flush_ns" (wstat (fun s -> s.Seglog.flush_ns));
  counter "trace.log.retention_drops" (wstat (fun s -> s.Seglog.retention_drops))

let create ~addr ~rng ?(trace = false) ?tracer_config () =
  let work = Metrics.Gauge.create () in
  (* The clock closure is redirected by the engine via [set_now]; the
     tracer reads it through the node record so it always sees the
     current clock. *)
  let clock = ref (fun () -> 0.) in
  (* Node-local time = simulation clock + accumulated work (work units
     are notional microseconds). This gives rule executions a nonzero,
     deterministic duration, so the §3.2 profiler sees realistic
     in-rule vs. network time splits. *)
  let local_now () = !clock () +. (Metrics.Gauge.value work *. 1e-6) in
  let tracer =
    Dataflow.Tracer.create ?config:tracer_config ~addr ~now:local_now
      ~charge:(Metrics.Gauge.add work) ()
  in
  let t =
    {
      addr;
      catalog = Store.Catalog.create ();
      registry = Metrics.create ();
      work;
      tuples_created = Metrics.Counter.create ();
      msgs_tx = Metrics.Counter.create ();
      msgs_rx = Metrics.Counter.create ();
      bytes_tx = Metrics.Counter.create ();
      bytes_rx = Metrics.Counter.create ();
      peers = Strtbl.create 8;
      rng;
      tracer;
      machine = dummy_machine addr;
      routes = Strtbl.create 32;
      next_tuple_id = 1;
      clock;
      now = local_now;
      send = (fun ~dst:_ ~delete:_ ~src_tuple:_ -> ());
      on_timer_request = (fun _ -> ());
      rules_installed = 0;
      rule_texts = [];
      anon_rule_counter = 0;
      dead_events = 0;
      delivering = 0;
      strict_install = false;
      last_diagnostics = [];
      trace_log = None;
    }
  in
  let ctx =
    {
      Dataflow.Machine.addr;
      now = (fun () -> t.now ());
      eval_ctx = eval_context t;
      scan = (fun name -> scan t name);
      probe = (fun name ~positions ~values -> probe t name ~positions ~values);
      create_tuple = (fun ~dst name fields -> create_tuple t ~dst name fields);
      emit = (fun ~delete tuple -> emit t ~delete tuple);
      charge = Metrics.Gauge.add work;
      tracer = Some t.tracer;
    }
  in
  t.machine <- Dataflow.Machine.create ctx;
  if trace then Dataflow.Tracer.enable t.tracer;
  register_metrics t;
  t

(* The tracer captured the clock ref at construction, so updating it
   here keeps node and tracer time in sync. *)
let set_now t now = t.clock := now

(** Attach (or detach) the flight-recorder writer: the tracer sink
    streams every trace record into it. The sink only buffers; disk
    writes happen in [flush_trace_log], which the engine calls at
    tick barriers. *)
let set_trace_log t w =
  t.trace_log <- w;
  Dataflow.Tracer.set_sink t.tracer
    (Option.map
       (fun writer ~stamp ~delete tuple ->
         Seglog.append writer ~stamp ~delete tuple)
       w)

let trace_log t = t.trace_log

let flush_trace_log t =
  match t.trace_log with Some w -> Seglog.flush w | None -> ()
let set_send t send = t.send <- send
let set_timer_handler t f = t.on_timer_request <- f
let machine t = t.machine

let watch t name f =
  let r = route t name in
  r.watchers <- f :: r.watchers

let fresh_rule_id t () =
  t.anon_rule_counter <- t.anon_rule_counter + 1;
  Fmt.str "%s_r%d" t.addr t.anon_rule_counter

(* Install a strand: index it by trigger, subscribe to table deltas,
   request timers. *)
let install_strand t (s : Dataflow.Strand.t) =
  match s.trigger with
  | Dataflow.Strand.Event atom ->
      let r = route t atom.pred in
      r.strands <- r.strands @ [ s ]
  | Dataflow.Strand.Periodic { period; _ } -> t.on_timer_request { strand = s; period }
  | Dataflow.Strand.Table_delta atom -> (
      match (route t atom.pred).rows with
      | Stream ->
          raise
            (Dataflow.Strand.Compile_error
               (Fmt.str "delta strand over unknown table %s" atom.pred))
      | Catalog_table table | Tracer_table table ->
          let is_agg = s.aggregate <> None in
          Store.Table.subscribe table (function
            | Store.Table.Insert tuple ->
                ignore (Dataflow.Machine.trigger t.machine s tuple)
            | Store.Table.Delete tuple when is_agg ->
                (* Aggregates must recompute when rows expire or are
                   deleted so counts go back down. *)
                ignore (Dataflow.Machine.trigger t.machine s tuple)
            | Store.Table.Delete _ | Store.Table.Refresh _ -> ()))

(* The analyzer's view of this node: tables already in the catalog
   (earlier piecemeal installs, paper §3) plus the tracer's
   introspection tables; events any installed strand consumes. *)
let analysis_env t =
  {
    Analysis.ext_tables =
      List.map (fun n -> (n, None)) (Store.Catalog.names t.catalog @ system_tables);
    ext_events =
      Strtbl.fold
        (fun name r acc -> match r.strands with [] -> acc | _ -> (name, None) :: acc)
        t.routes [];
  }

(** Install a parsed program. The semantic analyzer runs first: under
    [set_strict_install] any error-level diagnostic rejects the whole
    program ({!Analysis.Rejected}); otherwise errors are logged and
    installation proceeds (the strand compiler still enforces its own
    invariants). Materializations are processed before rules so rules
    later in the same batch see their tables. Facts are routed like any
    derived tuple (remote facts are shipped). *)
let install t (program : Ast.program) =
  let diags = Analysis.analyze ~env:(analysis_env t) program in
  t.last_diagnostics <- diags;
  (match Analysis.errors diags with
  | [] -> ()
  | errs ->
      if t.strict_install then raise (Analysis.Rejected diags)
      else
        List.iter
          (fun d ->
            Log.warn (fun m -> m "%s: %a" t.addr (fun ppf -> Analysis.pp_diagnostic ppf) d))
          errs);
  let materializes, rest =
    List.partition (function Ast.Materialize _ -> true | _ -> false) program
  in
  List.iter
    (function
      | Ast.Materialize m ->
          if not (Store.Catalog.is_table t.catalog m.mname) then begin
            let table = Store.Table.of_materialize m in
            Store.Catalog.add t.catalog table;
            (route t m.mname).rows <- Catalog_table table
          end
      | _ -> ())
    materializes;
  List.iter
    (function
      | Ast.Materialize _ -> ()
      | Ast.Watch _ -> ()  (* watches are host-side: use [watch] *)
      | Ast.Pragma _ -> ()  (* analyzer directive, no runtime effect *)
      | Ast.Fact (name, values, _) ->
          let dst =
            match values with
            | loc :: _ -> ( try Value.as_addr loc with Invalid_argument _ -> t.addr)
            | [] -> t.addr
          in
          let values =
            match values with
            | Value.VStr a :: rest -> Value.VAddr a :: rest
            | vs -> vs
          in
          let tuple = create_tuple t ~dst name values in
          emit t ~delete:false tuple
      | Ast.Rule rule ->
          let strands =
            Dataflow.Strand.compile ~is_table:(is_table t) ~fresh_rule_id:(fresh_rule_id t)
              rule
          in
          List.iter (install_strand t) strands;
          (match strands with
          | s :: _ ->
              t.rule_texts <-
                (s.Dataflow.Strand.rule_id, Fmt.str "%a" Ast.pp_rule rule)
                :: t.rule_texts
          | [] -> ());
          t.rules_installed <- t.rules_installed + 1)
    rest

let install_text t source = install t (Parser.parse source)
let set_strict_install t b = t.strict_install <- b
let strict_install t = t.strict_install
let last_diagnostics t = t.last_diagnostics

(* Fire a periodic strand: construct the built-in periodic(addr, nonce,
   period) event and trigger just that strand. *)
let fire_periodic t (req : timer_request) =
  Metrics.Gauge.add t.work Dataflow.Cost.timer;
  let nonce = Value.VInt (Sim.Rng.int t.rng 1_000_000_000) in
  let atom = Dataflow.Strand.trigger_atom req.strand in
  (* Arity must match the atom: periodic@N(E, T) or periodic@N(E, T, C). *)
  let extra = max 0 (List.length atom.args - 3) in
  let fields =
    Value.VAddr t.addr :: nonce :: Value.VFloat req.period
    :: List.init extra (fun _ -> Value.VNull)
  in
  let tuple = create_tuple t ~dst:t.addr "periodic" fields in
  ignore (Dataflow.Machine.trigger t.machine req.strand tuple);
  Dataflow.Machine.drain t.machine

(* Total soft state on this node, for the memory proxy. *)
let live_tuples t =
  let now = t.now () in
  Store.Catalog.total_live t.catalog ~now + Dataflow.Tracer.live_tuples t.tracer ~now

let live_bytes t =
  let now = t.now () in
  Store.Catalog.total_bytes t.catalog ~now + Dataflow.Tracer.live_bytes t.tracer ~now


(** The node-local clock (simulation time + work offset); timestamps
    recorded by this node's tracer are on this clock. *)
let local_time t = t.now ()

(** Installed rules as (rule id, pretty-printed source), oldest first —
    the data behind the [p2Rule] reflection table. *)
let rules t = List.rev t.rule_texts
