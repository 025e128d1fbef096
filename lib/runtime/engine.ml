(** The distributed engine: hosts N P2 nodes on a simulated network
    (DESIGN.md §3 substitution for the paper's 21-process testbed).

    Responsibilities: the virtual clock, message delivery with FIFO
    channels, periodic-rule timers, fault injection, periodic metric
    sampling, and on-line program installation. *)

open Overlog

(* Everything the engine keeps for one address, from [add_node] to
   [remove_node]. [restart] swaps in a fresh node and transport and
   keeps the rest: the recorded programs and watchpoints stand in for
   the configuration a real process re-reads from disk, and the
   checkpoint writer is its disk. *)
type host = {
  addr : string;
  mutable node : Node.t;
  mutable transport : Transport.t;
      (* the node's reliable-transport endpoint, between its emit path
         and the raw network *)
  mutable programs : installed list;  (* every install, newest first *)
  mutable watches : (string * (Tuple.t -> unit)) list;
      (* host-registered watchpoints, newest first *)
  mutable ckpt : Checkpoint.writer option;  (* created on first snapshot *)
  mutable live : bool;  (* false once removed *)
}

and installed = Src_text of string | Src_ast of Ast.program

type event =
  | Deliver of { link : Sim.Network.link; epoch : int; packet : string }
      (* packet: the Wire-encoded message, decoded at delivery — every
         cross-node tuple really round-trips through the codec. [link]
         is the (src, dst) channel it travels on; its in-flight count
         drops when the delivery is popped. [epoch] is the link's epoch
         at send time: a restart of [dst], or a removal of either end,
         bumps it, so the packet dies instead of reaching a node it was
         not sent to *)
  | Timer of { host : host; node : Node.t; req : Node.timer_request }
  | Sweep of { host : host; node : Node.t }
      (* the per-node soft-state sweep, every [sweep_interval]. Timers
         and sweeps belong to the node they were minted for and die
         once [host] is removed or holds a restarted node *)
  | Callback of (unit -> unit)
      (* host-scheduled ([Engine.at]): may touch any node or the
         network tables, so it runs alone, on the calling domain,
         between rounds *)
  | Owned_callback of { owner : string; f : unit -> unit }
      (* transport-scheduled (retransmit, delayed ack, heartbeat):
         confined to one node's state, so it runs inside [owner]'s
         shard *)

(* Every event handled during a round defers its cross-cutting effects
   — network sends and event scheduling — into its shard's log instead
   of applying them. Each effect is tagged with its causing event's
   position in the round's pop order, so every log is already sorted
   and the barrier merges them: a total order that depends only on the
   event queue contents, never on the shard count or on worker timing,
   which is what makes seeded runs reproduce bit-for-bit at every shard
   count (DESIGN.md §13). A send carries its channel's network handle,
   which the barrier resolves to the shared link on first use: links
   are created only where no shard is draining. *)
type effect_ =
  | Eff_send of { handle : Sim.Network.handle; at : float; packet : string }
  | Eff_schedule of { at : float; ev : event }

(* Slot fillers for the round buffers: a used slot is overwritten with
   these so the buffers keep no event or packet alive. *)
let no_event = Callback ignore
let no_effect = Eff_schedule { at = 0.; ev = no_event }

(* A shard's round buffers are growable arrays, reused every round:
   its slice of the round's events, in pop order, and the effects they
   deferred, each tagged with its causing event's pop position. *)
type shard = {
  mutable ev_time : float array;
  mutable ev_seq : int array;  (* queue seqs, for the sanitizer *)
  mutable ev_pos : int array;  (* positions in the round's pop order *)
  mutable evs : event array;
  mutable n_evs : int;
  mutable cur : int;  (* index of the event being handled *)
  mutable time : float;  (* its virtual time *)
  mutable eff_pos : int array;
  mutable effs : effect_ array;
  mutable n_effs : int;
  mutable replayed : int;  (* replay's cursor into the effects *)
  mutable dirty : Transport.t list;
      (* transports whose coalescing buffers the event being handled
         filled, newest first: flushed when it finishes *)
  mutable handled : int;   (* events handled by this shard *)
  mutable round_ns : float; (* wall time spent executing this round's events *)
  mutable busy_ns : float;  (* ... and over all rounds *)
  mutable wait_ns : float;
      (* wall time spent waiting at barriers for the round's slowest shard *)
}

(** Raised (with the sanitizer on) when code running inside a shard
    drain mutates barrier-owned state directly — scheduling, a raw
    network send, in-flight accounting, an engine-RNG draw, membership
    change — instead of deferring the effect. [seq] is the queue seq of
    the event being drained (-1 when it could not be identified). *)
exception Discipline_violation of { site : string; seq : int }

let () =
  Printexc.register_printer (function
    | Discipline_violation { site; seq } ->
        Some
          (Fmt.str
             "Engine.Discipline_violation: %s called directly while draining \
              event seq %d; cross-shard effects must be deferred to the barrier"
             site seq)
    | _ -> None)

let fresh_shard () =
  let cap = 16 in
  { ev_time = Array.make cap 0.; ev_seq = Array.make cap (-1); ev_pos = Array.make cap 0;
    evs = Array.make cap no_event; n_evs = 0; cur = 0; time = 0.;
    eff_pos = Array.make cap 0; effs = Array.make cap no_effect; n_effs = 0;
    replayed = 0; dirty = []; handled = 0; round_ns = 0.; busy_ns = 0.; wait_ns = 0. }

(* [a] with room for at least one element past its first [n]. *)
let grown a n fill =
  let b = Array.make (max 16 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

let push_event sh ~time ~seq ~pos ev =
  let n = sh.n_evs in
  if n = Array.length sh.evs then begin
    sh.ev_time <- grown sh.ev_time n 0.;
    sh.ev_seq <- grown sh.ev_seq n (-1);
    sh.ev_pos <- grown sh.ev_pos n 0;
    sh.evs <- grown sh.evs n no_event
  end;
  sh.ev_time.(n) <- time;
  sh.ev_seq.(n) <- seq;
  sh.ev_pos.(n) <- pos;
  sh.evs.(n) <- ev;
  sh.n_evs <- n + 1

let push_effect sh eff =
  let n = sh.n_effs in
  if n = Array.length sh.effs then begin
    sh.eff_pos <- grown sh.eff_pos n 0;
    sh.effs <- grown sh.effs n no_effect
  end;
  sh.eff_pos.(n) <- sh.ev_pos.(sh.cur);
  sh.effs.(n) <- eff;
  sh.n_effs <- n + 1

(* The shard the current domain drains inside a round. Domain-local so
   concurrent shards don't race; code running for a node always runs
   in that node's shard. *)
let draining = Domain.DLS.new_key (fun () -> ref (fresh_shard ()))

type sharding = {
  n : int;
  quantum : float;
      (* width of the tick window: owned events within [t0, t0+quantum]
         form one round *)
  shards : shard array;
  mutable in_round : bool;
  mutable slowest_ns : float;  (* sum over rounds of the slowest shard's time *)
}

type t = {
  rng : Sim.Rng.t;
  network : Sim.Network.t;
  queue : event Sim.Event_queue.t;
  hosts : host Strtbl.t;
  mutable addrs_cache : string list option;
      (* sorted; invalidated on membership change instead of
         re-sorting on every [addrs] call *)
  mutable clock : float;
  mutable trace_default : bool;
  mutable strict_install : bool;
      (* applied to every node, present and future: install-time
         analysis errors reject the program instead of logging *)
  mutable reliable : bool;
      (* default for new transports; set_reliable flips everyone *)
  mutable seminaive : bool;
      (* the evaluation pipeline for every node, present and future:
         semi-naive with delta batching, or naive without *)
  mutable sharding : sharding;
      (* the tick-window round/barrier loop, with node-owned events
         fanned out over [Pool] domains *)
  mutable sanitize : bool;
      (* effect-discipline sanitizer: raise [Discipline_violation] on
         direct mutation of barrier-owned state during a shard drain *)
  mutable trace_log : (string * Seglog.config) option;
      (* flight-recorder root directory + writer config; every node,
         present and future, spills to [dir]/[addr]/ *)
  mutable checkpoint : (string * Checkpoint.config) option;
      (* durable-checkpoint root directory + cadence; every node,
         present and future, snapshots its hard state to [dir]/[addr]/ *)
  mutable ckpt_armed : bool;  (* the periodic snapshot callback is live *)
  mutable seq_handled : int;
      (* events handled outside the current shards: host callbacks
         between rounds, plus everything the shards replaced by the
         last [set_shards] had handled *)
}

(* Virtual seconds between one node's soft-state sweeps ([Sweep]). *)
let sweep_interval = 1.0

let sharding ~quantum n =
  { n; quantum; shards = Array.init n (fun _ -> fresh_shard ()); in_round = false;
    slowest_ns = 0. }

let create ?(seed = 1) ?(base_latency = 0.01) ?(jitter = 0.005) ?(loss_rate = 0.)
    ?(trace = false) ?(strict_install = false)
    ?(reliable = true) () =
  let rng = Sim.Rng.create seed in
  {
    rng;
    network = Sim.Network.create ~base_latency ~jitter ~loss_rate (Sim.Rng.split rng);
    queue = Sim.Event_queue.create ();
    hosts = Strtbl.create 32;
    addrs_cache = None;
    clock = 0.;
    trace_default = trace;
    strict_install;
    reliable;
    seminaive = true;
    sharding = sharding ~quantum:0.01 1;
    sanitize =
      (match Sys.getenv_opt "P2QL_SANITIZE" with
      | Some ("1" | "true" | "yes") -> true
      | _ -> false);
    trace_log = None;
    checkpoint = None;
    ckpt_armed = false;
    seq_handled = 0;
  }

(* Inside a round the engine clock still reads the last barrier: code
   running for a node sees the time of the event it is handling. *)
let now t =
  if t.sharding.in_round then !(Domain.DLS.get draining).time else t.clock

let network t = t.network

(* The unified unknown-address check: every entry point raises the
   same [Invalid_argument] shape, naming both the entry point [fn] and
   the address. *)
let host t fn addr =
  match Strtbl.find_opt t.hosts addr with
  | Some h -> h
  | None -> invalid_arg (Fmt.str "Engine.%s: unknown node %s" fn addr)

(* Whether an event minted for [node] still belongs to [h]'s node. *)
let current h node = h.live && h.node == node

let node t addr = (host t "node" addr).node
let node_opt t addr = Option.map (fun h -> h.node) (Strtbl.find_opt t.hosts addr)

let addrs t =
  match t.addrs_cache with
  | Some l -> l
  | None ->
      let l =
        Strtbl.fold (fun a _ acc -> a :: acc) t.hosts [] |> List.sort compare
      in
      t.addrs_cache <- Some l;
      l

(* The sanitizer chokepoint. Every legitimate path defers its effects
   before reaching the guarded sites, so a raise here always means a
   bypass: state that belongs to the barrier was touched mid-drain. *)
let guard t site =
  if t.sanitize && t.sharding.in_round then
    let sh = !(Domain.DLS.get draining) in
    raise (Discipline_violation { site; seq = sh.ev_seq.(sh.cur) })

(** Flip the effect-discipline sanitizer (also on via [P2QL_SANITIZE=1]
    in the environment). Purely a checking layer: runs are bit-for-bit
    identical with it on or off. *)
let set_sanitize t b = t.sanitize <- b

let sanitize t = t.sanitize

let schedule t ~at event =
  guard t "Engine.schedule";
  Sim.Event_queue.schedule t.queue ~time:at event

(** Schedule a host callback at an absolute simulation time. *)
let at t ~time f = schedule t ~at:time (Callback f)

(* --- Sharding plumbing --- *)

(* One shard needs no hash: a node reads its shard's clock on every
   table access. *)
let shard_ix s addr = if s.n = 1 then 0 else Hashtbl.hash addr mod s.n

(* [now] for [addr]'s own code, without the domain-local lookup. *)
let now_for t addr =
  let s = t.sharding in
  if s.in_round then s.shards.(shard_ix s addr).time else t.clock

(* Schedule from node code: inside a round, deferred to the draining
   shard's log (only that shard's domain writes it); immediate
   otherwise. *)
let sched_owned t ~at ev =
  if t.sharding.in_round then
    push_effect !(Domain.DLS.get draining) (Eff_schedule { at; ev })
  else schedule t ~at ev

(** Messages from [src] to [dst] accepted by the network but not yet
    delivered — the simulator's per-destination send-queue depth. *)
let inflight t ~src ~dst = Sim.Network.inflight t.network ~src ~dst

(** Total undelivered messages originated by [src], over all
    destinations: the node's [net.sendq.depth] gauge. *)
let inflight_from t src = Sim.Network.inflight_from t.network src

(* A handle's link, resolved on its first send. Resolution writes the
   network's pair table, so it happens only at the barrier or in host
   context; the guard catches a resolution from inside a drain. *)
let link_of t h =
  match Sim.Network.resolved h with
  | Some l -> l
  | None ->
      guard t "Engine.link_of";
      Sim.Network.resolve t.network h

(* Below the transport: decide the packet's fate and queue delivery.
   Drops are final here — retransmission lives in [Transport]. [now] is
   the virtual time of the send (the causing event's time when replayed
   at the barrier: the network RNG and the per-channel FIFO floor are
   shared state). *)
let raw_send_now t ~now h packet =
  guard t "Engine.raw_send_now";
  let link = link_of t h in
  if Sim.Network.transmit t.network ~now link then
    schedule t ~at:link.floor (Deliver { link; epoch = link.epoch; packet })

(* A transport's send. Node code runs in its own shard, so the draining
   shard's clock is the sender's. *)
let raw_send t h packet =
  if t.sharding.in_round then begin
    let sh = !(Domain.DLS.get draining) in
    push_effect sh (Eff_send { handle = h; at = sh.time; packet })
  end
  else raw_send_now t ~now:t.clock h packet

let transport t addr = (host t "transport" addr).transport
let transport_opt t addr = Option.map (fun h -> h.transport) (Strtbl.find_opt t.hosts addr)

(* Host entry points ship what the transports coalesced while they ran
   when they finish: frames leave at the instant, and the effect
   position, of the work that produced them (DESIGN.md §12). Inside a
   round the shard flushes the transports its event dirtied instead.
   This is the flush after host code that may have touched any node. *)
let flush_transports t =
  List.iter (fun a -> Transport.flush (Strtbl.find t.hosts a).transport) (addrs t)

(** Flip reliable transport on every node, present and future. Off
    reproduces the pre-transport fire-and-forget path (the loss-sweep
    control arm). *)
let set_reliable t b =
  t.reliable <- b;
  Strtbl.iter (fun _ h -> Transport.set_reliable h.transport b) t.hosts

let reliable t = t.reliable

(** Select the evaluation pipeline on every node, present and future.
    [true] (every engine's default) runs delta strands semi-naively —
    the newest tuple joins against full relations — and coalesces one
    event's shipments to a peer into delta-batch frames. [false] is
    the ablation control: classical naive re-enumeration of the whole
    rule body on every table delta, with batching off — every
    re-derivation is re-shipped in its own frame. *)
let set_seminaive t b =
  t.seminaive <- b;
  Strtbl.iter
    (fun _ h ->
      Dataflow.Machine.set_eval_mode (Node.machine h.node)
        (if b then Dataflow.Machine.Seminaive else Dataflow.Machine.Naive);
      Transport.set_batching h.transport b)
    t.hosts

let seminaive t = t.seminaive

(* --- Flight recorder (trace segment log) --- *)

let attach_trace_log node addr (dir, config) =
  if Node.trace_log node = None then begin
    let w = Seglog.create ~config ~dir:(Filename.concat dir addr) () in
    Node.set_trace_log node (Some w);
    Dataflow.Tracer.enable (Node.tracer node)
  end

(** Start spilling trace records to an on-disk segment log rooted at
    [dir]: every node, present and future, records to [dir]/[addr]/
    and has its tracer enabled. Nodes added afterwards default to the
    shrunk {!Dataflow.Tracer.spill_config} in-RAM window (history
    lives on disk); nodes that already exist keep the window they
    were created with, so call this before adding nodes to get the
    resident-memory win. Buffered records reach the disk only at tick
    barriers / run end ({!flush_trace_logs}) — single-threaded, which
    is what keeps sharded runs deterministic (DESIGN.md §15). *)
let set_trace_log ?(config = Seglog.default_config) t dir =
  guard t "Engine.set_trace_log";
  t.trace_log <- Some (dir, config);
  Strtbl.iter (fun addr h -> attach_trace_log h.node addr (dir, config)) t.hosts

(** The flight-recorder root directory, when recording. *)
let trace_log t = Option.map fst t.trace_log

(** Write every node's buffered trace records to disk. Called by the
    run loops at barriers; cheap when nothing is buffered. *)
let flush_trace_logs t =
  if t.trace_log <> None then
    Strtbl.iter (fun _ h -> Node.flush_trace_log h.node) t.hosts

(* Flush and seal a node's segment log, and detach the writer. *)
let seal_trace_log node =
  match Node.trace_log node with
  | Some w ->
      Seglog.close w;
      Node.set_trace_log node None
  | None -> ()

(** Stop recording: flush and seal every node's segment log and
    detach the writers. Future nodes no longer record. *)
let close_trace_logs t =
  Strtbl.iter (fun _ h -> seal_trace_log h.node) t.hosts;
  t.trace_log <- None

(* Create and wire a node + transport for [addr]: into a new host
   record for [add_node], into [existing] for [restart], so a reborn
   node goes through exactly the fresh-boot path: new RNG splits, new
   transport (sequence state starts over), new metric registry. *)
let wire_node ?tracer_config ?trace t addr existing =
  let trace = Option.value trace ~default:t.trace_default in
  (* A recording engine defaults new nodes to the shrunk spill window:
     the segment log holds the history their RAM no longer does. *)
  let tracer_config =
    match (tracer_config, t.trace_log) with
    | None, Some _ -> Some Dataflow.Tracer.spill_config
    | c, _ -> c
  in
  let node = Node.create ~addr ~rng:(Sim.Rng.split t.rng) ~trace ?tracer_config () in
  Option.iter (attach_trace_log node addr) t.trace_log;
  Node.set_strict_install node t.strict_install;
  Node.set_now node (fun () -> now_for t addr);
  let tr =
    Transport.create ~addr ~rng:(Sim.Rng.split t.rng)
      ~now:(fun () -> now_for t addr)
      ~schedule:(fun delay f ->
        (* Transport timers only touch this node's state, so they may
           run inside its shard. *)
        sched_owned t ~at:(now_for t addr +. delay)
          (Owned_callback { owner = addr; f }))
      ~raw_send:(raw_send t)
      ~on_dirty:(fun tr ->
        if t.sharding.in_round then begin
          let sh = !(Domain.DLS.get draining) in
          sh.dirty <- tr :: sh.dirty
        end)
      ~active:(fun () -> not (Sim.Network.is_crashed t.network addr))
      ()
  in
  let h =
    match existing with
    | Some h ->
        h.node <- node;
        h.transport <- tr;
        h
    | None ->
        let h =
          { addr; node; transport = tr; programs = []; watches = []; ckpt = None;
            live = true }
        in
        Strtbl.replace t.hosts addr h;
        t.addrs_cache <- None;
        h
  in
  Transport.set_reliable tr t.reliable;
  Transport.set_batching tr t.seminaive;
  Dataflow.Machine.set_eval_mode (Node.machine node)
    (if t.seminaive then Dataflow.Machine.Seminaive else Dataflow.Machine.Naive);
  Transport.set_deliver tr (fun ~src ~bytes m ->
      Node.receive node ~bytes ~src ~src_tuple_id:m.Wire.src_tuple_id
        ~delete:m.Wire.delete ~name:m.Wire.name ~fields:m.Wire.fields ());
  Node.set_send node (fun ~dst ~delete ~src_tuple ->
      Transport.send tr ~dst ~delete src_tuple);
  Node.set_timer_handler node (fun req ->
      (* Stagger first firings deterministically to avoid a thundering
         herd of simultaneous timers. Installs are host-driven (direct
         calls or [Engine.at] callbacks, both between rounds), so drawing
         from the engine RNG here is deterministic even when sharded. *)
      guard t "Engine.rng (timer stagger)";
      let offset = Sim.Rng.float t.rng *. req.period in
      sched_owned t ~at:(t.clock +. offset) (Timer { host = h; node; req }));
  (* The send queue lives in the engine, so its depth gauge is wired
     here rather than in [Node.create] with the rest of the registry. *)
  Metrics.register (Node.registry node) "net.sendq.depth" Metrics.KGauge (fun () ->
      float_of_int (inflight_from t addr));
  (* Shard-occupancy gauges: reflected into p2Stats like every other
     registry metric, so the watchdog can alarm on shard imbalance.
     One shard is its own slowest, so it reads exactly 100% busy and 0
     wait. *)
  let own () = t.sharding.shards.(shard_ix t.sharding addr) in
  Metrics.register (Node.registry node) "engine.shards" Metrics.KGauge (fun () ->
      float_of_int t.sharding.n);
  Metrics.register (Node.registry node) "engine.shard_busy_pct" Metrics.KGauge
    (fun () ->
      let s = t.sharding in
      if s.slowest_ns > 0. then 100. *. (own ()).busy_ns /. s.slowest_ns else 100.);
  Metrics.register (Node.registry node) "engine.barrier_wait_ns" Metrics.KGauge
    (fun () -> (own ()).wait_ns);
  Transport.register_metrics tr (Node.registry node);
  (* ckpt.*: durable-checkpoint counters. Like trace.log.* they are
     registered unconditionally (the metric-documentation contract
     covers every node) and read 0 until checkpointing is enabled.
     The writer lives in the host record — it models the node's disk —
     so these survive a crash-restart where the node object does not. *)
  let cstat f () =
    match h.ckpt with Some w -> f (Checkpoint.stats w) | None -> 0.
  in
  let ckpt name f =
    Metrics.register (Node.registry node) name Metrics.KCounter (cstat f)
  in
  ckpt "ckpt.snapshots" (fun s -> float_of_int s.Checkpoint.snapshots);
  ckpt "ckpt.rows" (fun s -> float_of_int s.Checkpoint.rows);
  ckpt "ckpt.bytes" (fun s -> float_of_int s.Checkpoint.bytes);
  ckpt "ckpt.write_ns" (fun s -> float_of_int s.Checkpoint.write_ns);
  ckpt "ckpt.retention_drops" (fun s -> float_of_int s.Checkpoint.retention_drops);
  Metrics.register (Node.registry node) "ckpt.last_stamp" Metrics.KGauge
    (cstat (fun s -> if Float.is_nan s.Checkpoint.last_stamp then 0. else s.Checkpoint.last_stamp));
  schedule t ~at:(t.clock +. sweep_interval) (Sweep { host = h; node });
  h

let add_node ?tracer_config ?trace t addr =
  guard t "Engine.add_node";
  if Strtbl.mem t.hosts addr then
    invalid_arg (Fmt.str "Engine.add_node: duplicate node %s" addr);
  (wire_node ?tracer_config ?trace t addr None).node

(** Install OverLog source on one node — usable at any point in the
    run (the paper's on-line piecemeal deployment). The program is
    recorded for [restart] to replay. *)
let install t addr source =
  let h = host t "node" addr in
  h.programs <- Src_text source :: h.programs;
  Node.install_text h.node source;
  Transport.flush h.transport

(** Toggle strict install-time analysis on every node, present and
    future: programs with error diagnostics raise [Analysis.Rejected]
    instead of being logged and installed anyway. *)
let set_strict_install t b =
  t.strict_install <- b;
  Strtbl.iter (fun _ h -> Node.set_strict_install h.node b) t.hosts

let install_ast t addr program =
  let h = host t "node" addr in
  h.programs <- Src_ast program :: h.programs;
  Node.install h.node program;
  Transport.flush h.transport

(** Install the same source on every node. *)
let install_all t source =
  let program = Parser.parse source in
  List.iter (fun addr -> install_ast t addr program) (addrs t)

let watch t addr name f =
  let h = host t "node" addr in
  h.watches <- (name, f) :: h.watches;
  Node.watch h.node name f

(** Inject an event tuple into a node from the host program, e.g. to
    start a ring traversal ([orderingEvent]) or a forensic walk
    ([traceResp]). The location field is prepended automatically.
    Crashed hosts can not execute anything, so injection into one is
    refused; returns whether the tuple was delivered. *)
let inject t addr name values =
  let h = host t "node" addr in
  if Sim.Network.is_crashed t.network addr then false
  else begin
    let tuple = Node.create_tuple h.node ~dst:addr name (Value.VAddr addr :: values) in
    Node.deliver h.node tuple;
    Transport.flush h.transport;
    true
  end

(** Collect watched tuples into a returned (reversed at read) list ref. *)
let collect t addr name =
  let acc = ref [] in
  watch t addr name (fun tuple -> acc := tuple :: !acc);
  fun () -> List.rev !acc

(* --- Durable checkpoints --- *)

let ckpt_writer h (dir, config) =
  match h.ckpt with
  | Some w -> w
  | None ->
      let w = Checkpoint.create ~config ~dir:(Filename.concat dir h.addr) () in
      h.ckpt <- Some w;
      w

let close_ckpt_writers t =
  Strtbl.iter
    (fun _ h ->
      Option.iter Checkpoint.close h.ckpt;
      h.ckpt <- None)
    t.hosts

(* Hard-state selection: catalog tables with infinite lifetime, minus
   the metric reflections and runtime bookkeeping (derived state the
   reborn node rebuilds on its own). Catalog order is sorted by name
   and rows come back in insertion order — both bit-for-bit stable
   across shard counts, which is what makes seeded checkpoint files
   byte-identical (DESIGN.md §16). *)
let hard_state node ~now =
  let cat = Node.catalog node in
  Store.Catalog.names cat
  |> List.filter_map (fun name ->
         if List.mem name Node.reflected_tables || List.mem name Node.system_tables
         then None
         else
           match Store.Catalog.find cat name with
           | Some tbl when Store.Table.lifetime tbl = Float.infinity ->
               Some (name, Store.Table.tuples tbl ~now)
           | _ -> None)

(** Snapshot every live node's hard state right now. Runs in host
    context only (direct call or an [Engine.at] callback — those
    execute alone between rounds), so the write is
    single-threaded and the file bytes are deterministic. Crashed
    nodes are skipped: a dead machine writes nothing to its disk. *)
let checkpoint_now t =
  guard t "Engine.checkpoint_now";
  match t.checkpoint with
  | None -> ()
  | Some cfg ->
      List.iter
        (fun addr ->
          if not (Sim.Network.is_crashed t.network addr) then
            let h = Strtbl.find t.hosts addr in
            ignore
              (Checkpoint.write (ckpt_writer h cfg) ~stamp:t.clock
                 ~tables:(hard_state h.node ~now:t.clock)))
        (addrs t)

let rec ckpt_tick t =
  match t.checkpoint with
  | Some (_, config) when t.ckpt_armed ->
      checkpoint_now t;
      at t ~time:(t.clock +. config.Checkpoint.interval) (fun () -> ckpt_tick t)
  | _ -> ()

(** Start periodic durable checkpoints rooted at [dir]: every node,
    present and future, snapshots its hard-state tables to
    [dir]/[addr]/ every [config.interval] virtual seconds (first
    snapshot one interval from now). The writers survive node
    restarts — they model the node's disk — and [restart] recovers
    from the newest intact snapshot. *)
let set_checkpoint ?(config = Checkpoint.default_config) t dir =
  guard t "Engine.set_checkpoint";
  (match t.checkpoint with
  | Some (old_dir, _) when old_dir <> dir ->
      (* Redirecting to a fresh root: writers are per-directory. *)
      close_ckpt_writers t
  | _ -> ());
  t.checkpoint <- Some (dir, config);
  if not t.ckpt_armed then begin
    t.ckpt_armed <- true;
    at t ~time:(t.clock +. config.Checkpoint.interval) (fun () -> ckpt_tick t)
  end

(** The checkpoint root directory, when checkpointing. *)
let checkpoint_dir t = Option.map fst t.checkpoint

(** Stop checkpointing and release the writers. Snapshot files stay
    on disk; the armed periodic callback dies at its next firing. *)
let close_checkpoints t =
  close_ckpt_writers t;
  t.checkpoint <- None;
  t.ckpt_armed <- false

(* Handle one event: inside its owner's shard during a round, or alone
   between rounds for a host callback. Every handler resolves the clock
   through [now_for] and routes cross-cutting effects through
   [sched_owned]/[raw_send], which defer to the barrier when a round is
   active. During a round, shared engine state is only ever *read*
   (hosts, crash tables) — all writes are deferred effects. *)
let handle t event =
  match event with
  | Deliver { link; epoch; packet } -> (
      (* A packet whose link epoch moved dies here: it was launched
         toward a node that has since restarted (both sides renegotiate
         from sequence 1, and a stale frame would alias into the fresh
         channel), or on a link a removal dropped. *)
      let dst = link.dst in
      if epoch = link.epoch && not (Sim.Network.is_crashed t.network dst) then
        match Strtbl.find_opt t.hosts dst with
        | Some h -> Transport.receive h.transport ~src:link.src packet
        | None -> ())
  | Timer { host; node; req } ->
      (* A chain minted for a replaced or removed node stops here: the
         restarted node reinstalls its programs and arms fresh chains,
         so letting the old one live would double every periodic rule. *)
      if current host node then begin
        if not (Sim.Network.is_crashed t.network host.addr) then Node.fire_periodic node req;
        sched_owned t ~at:(now_for t host.addr +. req.period) event
      end
  | Sweep { host; node } ->
      if current host node then begin
        (* Store expiry is lazy: rows leave on the next expiry-aware
           read. These two reads are the only periodic one, so they
           fire the expiry Delete deltas of quiet tables (aggregate
           recomputes, tracer reclamation) on time. Seeded runs depend
           on the reads and their order; keep both. *)
        ignore (Node.live_bytes node);
        ignore (Node.live_tuples node);
        sched_owned t ~at:(now_for t host.addr +. sweep_interval) event
      end
  | Callback f -> f ()
  | Owned_callback { f; _ } -> f ()

let owner_of = function
  | Deliver { link; _ } -> link.dst
  | Timer { host; _ } | Sweep { host; _ } -> host.addr
  | Owned_callback { owner; _ } -> owner
  | Callback _ -> invalid_arg "Engine.owner_of: host callback"

let apply t = function
  | Eff_send { handle; at; packet } -> raw_send_now t ~now:at handle packet
  | Eff_schedule { at; ev } -> schedule t ~at ev

(* Replay the round's effects in pop order. Every shard's log is sorted
   by pop position and no position is in two logs, so an n-way merge by
   index needs no sort; with one shard it walks the log in order. Each
   slot is cleared as it is applied. *)
let replay t s =
  let continue = ref true in
  while !continue do
    (* the shard whose next effect has the lowest pop position *)
    let best = ref (-1) and best_pos = ref max_int in
    for i = 0 to s.n - 1 do
      let sh = s.shards.(i) in
      if sh.replayed < sh.n_effs && sh.eff_pos.(sh.replayed) < !best_pos then begin
        best := i;
        best_pos := sh.eff_pos.(sh.replayed)
      end
    done;
    if !best < 0 then continue := false
    else begin
      let sh = s.shards.(!best) in
      let eff = sh.effs.(sh.replayed) in
      sh.effs.(sh.replayed) <- no_effect;
      sh.replayed <- sh.replayed + 1;
      apply t eff
    end
  done;
  Array.iter
    (fun sh ->
      sh.n_effs <- 0;
      sh.replayed <- 0)
    s.shards

(* Ship what the event just handled left in coalescing buffers — at
   most its owner's transport. *)
let flush_dirty sh =
  match sh.dirty with
  | [] -> ()
  | [ tr ] ->
      sh.dirty <- [];
      Transport.flush tr
  | trs ->
      sh.dirty <- [];
      List.iter Transport.flush (List.rev trs)

(* One round: each shard handles its slice of the window in pop order,
   deferring effects; the barrier then charges each shard its wait for
   the round's slowest shard and replays the effects. *)
let run_round t s =
  s.in_round <- true;
  let jobs =
    Array.map
      (fun sh () ->
        let t0 = Unix.gettimeofday () in
        Domain.DLS.get draining := sh;
        for i = 0 to sh.n_evs - 1 do
          let ev = sh.evs.(i) in
          sh.evs.(i) <- no_event;
          sh.cur <- i;
          sh.time <- sh.ev_time.(i);
          sh.handled <- sh.handled + 1;
          handle t ev;
          flush_dirty sh
        done;
        sh.round_ns <- (Unix.gettimeofday () -. t0) *. 1e9)
      s.shards
  in
  Fun.protect
    ~finally:(fun () -> s.in_round <- false)
    (fun () -> Pool.run jobs);
  let slowest =
    Array.fold_left (fun m sh -> Float.max m sh.round_ns) s.shards.(0).round_ns
      s.shards
  in
  s.slowest_ns <- s.slowest_ns +. slowest;
  Array.iter
    (fun sh ->
      sh.busy_ns <- sh.busy_ns +. sh.round_ns;
      sh.wait_ns <- sh.wait_ns +. (slowest -. sh.round_ns))
    s.shards;
  replay t s

(** Run the simulation until the clock reaches [until]. *)
let run_until t until =
  (* Sends that host code made straight on nodes since the last run
     (bypassing the engine's entry points) leave now. *)
  flush_transports t;
  let s = t.sharding and q = t.queue in
  let module Q = Sim.Event_queue in
  let rec go () =
    if Q.is_empty q || Q.top_time q > until then t.clock <- until
    else
      match Q.top q with
      | Callback _ as ev ->
          (* Host callback: may mutate anything (fault injection,
             installs, p2Stats reflection), so it runs alone between
             rounds, with immediate effects. *)
          t.clock <- Float.max t.clock (Q.top_time q);
          Q.drop_top q;
          t.seq_handled <- t.seq_handled + 1;
          handle t ev;
          flush_transports t;
          go ()
      | _ ->
          let t0 = Q.top_time q in
          let horizon = Float.min until (t0 +. s.quantum) in
          Array.iter (fun sh -> sh.n_evs <- 0) s.shards;
          let wmax = ref t0 and pos = ref 0 and collecting = ref true in
          while !collecting && not (Q.is_empty q) do
            match Q.top q with
            | Callback _ -> collecting := false
            | ev ->
                let time = Q.top_time q in
                if time > horizon then collecting := false
                else begin
                  let seq = Q.top_seq q in
                  Q.drop_top q;
                  (* A delivery leaves the network when it is popped.
                     Only host code reads the in-flight counts, and it
                     runs between rounds. *)
                  (match ev with
                  | Deliver { link; _ } -> Sim.Network.arrived link
                  | _ -> ());
                  push_event s.shards.(shard_ix s (owner_of ev)) ~time ~seq ~pos:!pos ev;
                  incr pos;
                  wmax := Float.max !wmax time
                end
          done;
          run_round t s;
          (* The barrier is single-threaded: spilled trace records hit
             the disk here, in per-node append order, so the log bytes
             are identical for every shard count (DESIGN.md §15). *)
          flush_trace_logs t;
          t.clock <- Float.max t.clock !wmax;
          go ()
  in
  go ();
  (* Records buffered by host callbacks after the last round. *)
  flush_trace_logs t

let run_for t seconds = run_until t (t.clock +. seconds)

(** Schedule a callback confined to [owner]'s state at an absolute
    simulation time. Unlike [Engine.at] — whose callbacks run alone
    between rounds — this runs inside [owner]'s shard during a round,
    under the effect discipline. *)
let at_owned t ~owner ~time f =
  schedule t ~at:time (Owned_callback { owner; f })

(** Push a packet onto the network immediately, bypassing effect
    deferral. A test-only hook for exercising the sanitizer (the
    [raw_send_now] guard trips when called mid-drain); engine code
    must use the deferring send path instead. *)
let unsafe_direct_send t ~src ~dst packet =
  raw_send_now t ~now:(now_for t src) (Sim.Network.handle ~src ~dst) packet

(* --- Shard control --- *)

(** Set the number of shards the round/barrier loop fans node-owned
    events over (every engine starts with 1). Node addresses are hashed
    onto shards, and every shard count produces bit-for-bit identical
    simulations for a given seed, because all cross-shard effects
    replay in pop order at tick barriers. [quantum] is the tick-window
    width in virtual seconds (default: the network's default base
    latency, 10 ms). *)
let set_shards ?(quantum = 0.01) t n =
  if n < 1 then
    invalid_arg (Fmt.str "Engine.set_shards: shard count must be >= 1, got %d" n);
  (* the replaced shards' event counts live on in [seq_handled] *)
  t.seq_handled <-
    Array.fold_left (fun acc sh -> acc + sh.handled) t.seq_handled t.sharding.shards;
  t.sharding <- sharding ~quantum n

let shards t = t.sharding.n

(** Total events handled so far (all shards plus host callbacks) — the
    denominator of the bench's allocs-per-event measurement. *)
let events_handled t =
  Array.fold_left (fun acc sh -> acc + sh.handled) t.seq_handled t.sharding.shards

(* The process image at [h] is gone — the step [remove_node] and
   [restart] share. Seal its flight recorder (the history on disk
   survives: that is the recorder's point), silence its transport, and
   have every peer forget its channel to the address, so both sides
   renegotiate from sequence 1 if traffic resumes. Bumping the epoch of
   every link into the address drops the frames in flight toward the
   old node at delivery: restart is reset, not replay — durability is
   the checkpoint's job, not the send queue's. *)
let retire t h =
  seal_trace_log h.node;
  Transport.stop h.transport;
  Strtbl.iter (fun _ p -> if p != h then Transport.forget_peer p.transport h.addr) t.hosts;
  Sim.Network.expire_into t.network h.addr

(** Retire a node (churn "leave"). Its timers and sweeps die with the
    host record; the network drops every link naming the address, and
    with it the frames in flight in either direction. All per-address
    state goes — so long churn campaigns don't leak — and a later
    [add_node] of the address starts clean. Checkpoint files stay on
    disk for forensics. *)
let remove_node t addr =
  let h = host t "remove_node" addr in
  retire t h;
  h.live <- false;
  Option.iter Checkpoint.close h.ckpt;
  Strtbl.remove t.hosts addr;
  t.addrs_cache <- None;
  Sim.Network.forget t.network addr

(* --- Fault injection --- *)

let crash t addr =
  ignore (host t "crash" addr);
  Sim.Network.crash t.network addr

let recover t addr =
  ignore (host t "recover" addr);
  Sim.Network.recover t.network addr

let is_crashed t addr = Sim.Network.is_crashed t.network addr

(* --- Crash-restart recovery --- *)

type restart_outcome = {
  recovered_from : [ `Checkpoint of string * float | `Cold ];
      (* the snapshot file and its stamp, or nothing intact on disk *)
  restored_rows : int;  (* rows re-minted from the snapshot *)
  skipped_rows : int;
      (* snapshot rows whose table no longer exists after program
         replay (a program was changed between snapshot and restart) *)
}

let restart t addr =
  guard t "Engine.restart";
  let h = host t "restart" addr in
  retire t h;
  Sim.Network.recover t.network addr;
  let node = (wire_node t addr (Some h)).node in
  (* Replay the recorded configuration oldest-first — programs then
     host watchpoints — exactly as a restarted process re-reads its
     config from disk. Replays go straight to the node: they are
     already recorded. *)
  List.iter
    (function
      | Src_text s -> Node.install_text node s
      | Src_ast p -> Node.install node p)
    (List.rev h.programs);
  List.iter (fun (name, f) -> Node.watch node name f) (List.rev h.watches);
  (* Restore hard state from the newest intact snapshot, scanning past
     damaged files; re-minted rows go through [deliver], so delta
     strands fire and the recovery cascade (e.g. Chord re-advertising
     its successors) starts immediately. *)
  let cold = { recovered_from = `Cold; restored_rows = 0; skipped_rows = 0 } in
  let outcome =
    match t.checkpoint with
    | None -> cold
    | Some (dir, _) -> (
        match Checkpoint.latest ~dir:(Filename.concat dir addr) with
        | None -> cold
        | Some snap ->
            let restored = ref 0 and skipped = ref 0 in
            List.iter
              (fun (tbl : Checkpoint.table) ->
                if Store.Catalog.is_table (Node.catalog node) tbl.name then
                  List.iter
                    (fun (m : Wire.message) ->
                      incr restored;
                      Node.deliver node
                        (Node.create_tuple node ~dst:addr m.Wire.name m.Wire.fields))
                    tbl.rows
                else skipped := !skipped + List.length tbl.rows)
              snap.Checkpoint.tables;
            {
              recovered_from = `Checkpoint (snap.Checkpoint.path, snap.Checkpoint.stamp);
              restored_rows = !restored;
              skipped_rows = !skipped;
            })
  in
  (* The replayed programs and the restore cascade ship now. *)
  Transport.flush h.transport;
  outcome

let cut_link t ~src ~dst = Sim.Network.cut_link t.network ~src ~dst
let heal_link t ~src ~dst = Sim.Network.heal_link t.network ~src ~dst
let set_loss_rate t rate = Sim.Network.set_loss_rate t.network rate
let set_latency t ~base ~jitter = Sim.Network.set_latency t.network ~base ~jitter

(* --- Measurement helpers (used by benches) --- *)

type snapshot = {
  time : float;
  work : float;
  messages_tx : int;
  messages_rx : int;
  live_tuples : int;
  live_bytes : int;
}

let snapshot_node t addr =
  let n = node t addr in
  let reg name = Option.get (Metrics.value (Node.registry n) name) in
  {
    time = t.clock;
    work = reg "node.work_units";
    messages_tx = int_of_float (reg "net.msgs_tx");
    messages_rx = int_of_float (reg "net.msgs_rx");
    live_tuples = Node.live_tuples n;
    live_bytes = Node.live_bytes n;
  }

(* Notional budget: work units one node can absorb per second at 100%
   utilization. Calibrated so a baseline Chord node sits near the
   paper's ~1% CPU and 250 trivial periodic rules add ~3.5% (Fig. 4). *)
let budget_units_per_second = 43_000.

(** CPU%% proxy between two snapshots of the same node: the fraction
    of the notional budget the window's work units consumed. *)
let cpu_percent ~before ~after =
  let seconds = after.time -. before.time in
  if seconds <= 0. then 0.
  else (after.work -. before.work) /. (seconds *. budget_units_per_second) *. 100.

(** Memory proxy in MB: a fixed process baseline plus live tuple bytes
    with a constant per-tuple bookkeeping overhead. Calibrated against
    the paper: baseline Chord ≈ 8 MB, and Fig. 6's memory-vs-live-
    tuples slope ≈ 4 KiB per live tuple (their C++ tuples amortize
    table, index and queue bookkeeping). *)
let memory_mb snap =
  let baseline = 7.5e6 in
  let overhead_per_tuple = 4096 in
  (baseline
  +. float_of_int (snap.live_bytes + (overhead_per_tuple * snap.live_tuples)))
  /. 1.0e6

(** Node-local time at [addr] (the clock the node's tracer uses). *)
let local_time t addr = Node.local_time (node t addr)
