(** Reliable transport between a {!Node} and the simulated network.

    The engine's original send path was fire-and-forget: every
    [Sim.Network.Drop] silently lost a tuple, and the paper's monitors
    (tupleTable shipping §2.1.3, Chandy–Lamport snapshots §3.3,
    token-passing traversals §3.1.2) degraded invisibly. This layer
    makes cross-node channels earn the reliable-delivery assumption:

    - per-peer sequence-numbered data frames (Wire v2);
    - cumulative acks, piggybacked on reverse data frames plus delayed
      standalone ack frames;
    - retransmission of the lowest unacked frame with exponential
      backoff and deterministic RNG jitter;
    - exactly-once, in-order delivery at the receiver (duplicate
      suppression plus a bounded reorder buffer);
    - bounded per-peer send queues: frames beyond the window wait in a
      pending queue; when that fills, the oldest delete-pattern frame
      is evicted first, otherwise the newcomer is dropped and counted
      as backpressure ([transport.sendq.drops]);
    - a heartbeat-driven failure detector per peer
      (alive → suspect after [suspect_after] misses → dead after
      [dead_after] of silence → back to alive on any frame), reflected
      into the [p2PeerStatus] catalog table by {!P2stats};
    - delta batching (on by default, {!set_batching}): tuples shipped
      to the same peer while one event is handled coalesce into a
      single Wire delta-batch frame occupying one sequence number,
      unbatched transparently (in item order) at the receiver. The
      owner empties the buffers with {!flush} when the event finishes.
      The recursive cascades of semi-naive evaluation ship whole
      frontiers this way for one frame each.

    The transport is host-agnostic: the engine injects the clock, the
    scheduler, the raw network send and the upward deliver hook, so
    everything stays a pure function of the simulation seed. *)

open Overlog

(* Channel and failure-detector tuning, one value each. *)
let window = 32  (* max unacked data frames in flight per peer *)
let max_pending = 128  (* bounded per-peer queue behind the window *)
let reorder_limit = 64  (* receiver's out-of-order buffer per peer *)
let ack_delay = 0.05  (* standalone-ack delay (piggyback opportunity) *)
let rto_base = 0.25  (* initial retransmission timeout *)
let rto_max = 4.0  (* backoff cap *)
let heartbeat_period = 2.0  (* probe interval for silent peers *)
let suspect_after = 3  (* consecutive misses before suspect *)
let dead_after = 10.0  (* silence before a suspect peer is dead *)
let rate_window = 10.0  (* window for the retransmit-rate gauge *)
let max_batch = 64  (* tuples per delta-batch frame when batching *)

type status = Alive | Suspect | Dead

let status_name = function Alive -> "alive" | Suspect -> "suspect" | Dead -> "dead"

(* A transmitted-but-unacked frame: one shipment group occupying one
   sequence number — a singleton for a plain data frame, several
   tuples for a delta batch. [deadline] names the armed retransmission
   timer: timer callbacks capture the value they were armed with and
   go stale when it moves (acks cannot cancel scheduled events, so
   they invalidate them instead). *)
type entry = {
  seq : int;
  items : (bool * Tuple.t) list;  (* (delete, tuple); nonempty *)
  mutable rto : float;
  mutable deadline : float;
}

type chan = {
  peer : string;
  handle : Sim.Network.handle;  (* the network link this channel sends on *)
  (* outbound *)
  mutable next_seq : int;
  unacked : entry Queue.t;  (* seq order; front = lowest unacked *)
  mutable pending : (bool * Tuple.t) list Queue.t;
      (* shipment groups with no seq assigned yet *)
  buffer : (bool * Tuple.t) Queue.t;
      (* delta-batch coalescing buffer: sends made while the current
         event is handled, emptied by [flush] when it finishes *)
  (* inbound *)
  mutable cum_ack : int;  (* highest in-order data seq received *)
  reorder : (int, int * Wire.message list) Hashtbl.t;
      (* seq -> (bytes, msgs in delivery order) *)
  mutable ack_pending : bool;
  (* failure detector *)
  mutable last_heard : float;
  mutable misses : int;
  mutable status : status;
  mutable live : bool;
      (* false once [forget_peer] drops the channel: a channel outlives
         the frames on it, so stale timer closures check that the
         channel they captured is still the live one *)
}

type peer_info = {
  peer : string;
  status : status;
  misses : int;
  silent_for : float;
  sendq : int;
}

type t = {
  addr : string;
  rng : Sim.Rng.t;
  chans : chan Strtbl.t;
  mutable reliable : bool;
  mutable batching : bool;  (* coalesce one event's sends per peer *)
  mutable dirty : chan list;
      (* channels whose buffer is nonempty, newest first *)
  mutable stopped : bool;  (* node retired: drop timers, stop ticking *)
  (* engine hooks *)
  now : unit -> float;
  schedule : float -> (unit -> unit) -> unit;  (* relative delay *)
  raw_send : Sim.Network.handle -> string -> unit;
  on_dirty : t -> unit;  (* a coalescing buffer became nonempty *)
  mutable deliver : src:string -> bytes:int -> Wire.message -> unit;
  active : unit -> bool;  (* false while the owning node is crashed *)
  (* counters (registered into the node's metric registry) *)
  tx_frames : Metrics.Counter.t;
  tx_acks : Metrics.Counter.t;
  tx_heartbeats : Metrics.Counter.t;
  retransmits : Metrics.Counter.t;
  tx_batches : Metrics.Counter.t;  (* delta-batch frames sent *)
  tx_batched_tuples : Metrics.Counter.t;  (* tuples inside those frames *)
  rx_frames : Metrics.Counter.t;
  rx_duplicates : Metrics.Counter.t;
  rx_reordered : Metrics.Counter.t;
  rx_batches : Metrics.Counter.t;  (* delta-batch frames received *)
  sendq_drops : Metrics.Counter.t;
  (* retransmit-rate window (for the watchdog's saturation rule) *)
  mutable rate_mark : float;
  mutable rate_base : int;
  mutable rate_prev : int;
}

let addr t = t.addr
let reliable t = t.reliable
let set_reliable t b = t.reliable <- b
let batching t = t.batching
let set_batching t b = t.batching <- b
let set_deliver t f = t.deliver <- f

(** Permanently silence a retired node's transport: pending timers go
    stale and the heartbeat tick stops rescheduling itself. *)
let stop t = t.stopped <- true

let chan t peer =
  match Strtbl.find_opt t.chans peer with
  | Some c -> c
  | None ->
      let now = t.now () in
      let c =
        {
          peer;
          handle = Sim.Network.handle ~src:t.addr ~dst:peer;
          next_seq = 1;
          unacked = Queue.create ();
          pending = Queue.create ();
          buffer = Queue.create ();
          cum_ack = 0;
          reorder = Hashtbl.create 8;
          ack_pending = false;
          last_heard = now;
          misses = 0;
          status = Alive;
          live = true;
        }
      in
      Strtbl.replace t.chans peer c;
      c

(* --- retransmit-rate window --- *)

let rotate_rate t =
  let now = t.now () in
  let cur = Metrics.Counter.value t.retransmits in
  if now -. t.rate_mark >= 2. *. rate_window then begin
    t.rate_prev <- 0;
    t.rate_base <- cur;
    t.rate_mark <- now
  end
  else if now -. t.rate_mark >= rate_window then begin
    t.rate_prev <- cur - t.rate_base;
    t.rate_base <- cur;
    t.rate_mark <- t.rate_mark +. rate_window
  end

(** Retransmits in the busier of the last completed and the current
    [rate_window] — responsive on the way up, decaying within two
    windows of quiet. *)
let retx_rate t =
  rotate_rate t;
  float_of_int (max t.rate_prev (Metrics.Counter.value t.retransmits - t.rate_base))

(* --- failure detector --- *)

let update_status t (c : chan) =
  match c.status with
  | Alive -> if c.misses >= suspect_after then c.status <- Suspect
  | Suspect ->
      if t.now () -. c.last_heard >= dead_after then c.status <- Dead
  | Dead -> ()

let miss t (c : chan) =
  c.misses <- c.misses + 1;
  update_status t c

let heard t (c : chan) =
  c.last_heard <- t.now ();
  c.misses <- 0;
  c.status <- Alive

(* --- sending --- *)

(* One shipment group on the wire: singletons stay ordinary data
   frames (batching is invisible when nothing coalesced), larger
   groups become one delta-batch frame. *)
let encode_group t c (items : (bool * Tuple.t) list) ~seq =
  match items with
  | [ (delete, tuple) ] -> Wire.encode ~delete ~seq ~ack:c.cum_ack tuple
  | items ->
      Metrics.Counter.incr t.tx_batches;
      Metrics.Counter.add t.tx_batched_tuples (List.length items);
      Wire.encode_batch ~seq ~ack:c.cum_ack items

let rec transmit t c (e : entry) =
  c.ack_pending <- false;  (* the frame piggybacks the current cum ack *)
  Metrics.Counter.incr t.tx_frames;
  t.raw_send c.handle (encode_group t c e.items ~seq:e.seq);
  arm_retx t c e

and arm_retx t c e =
  if t.reliable then begin
    let delay = e.rto *. (1. +. (0.25 *. Sim.Rng.float t.rng)) in
    let deadline = t.now () +. delay in
    e.deadline <- deadline;
    t.schedule delay (fun () -> on_retx_timer t c e deadline)
  end

and on_retx_timer t c e deadline =
  (* Stale if the frame was acked, re-armed, or the channel forgotten. *)
  if t.reliable && (not t.stopped) && e.deadline = deadline && c.live then
    if not (t.active ()) then
      (* crashed host: stay silent but keep the frame armed, so
         retransmission resumes after recovery *)
      arm_retx t c e
    else if
      match Queue.peek_opt c.unacked with Some front -> front == e | None -> false
    then begin
      (* Only the lowest unacked frame retransmits: the receiver
         buffers out-of-order frames, so filling the gap advances the
         cumulative ack past everything else that already arrived. *)
      miss t c;
      Metrics.Counter.incr t.retransmits;
      rotate_rate t;
      e.rto <- Float.min (e.rto *. 2.) rto_max;
      transmit t c e
    end
    else
      (* Not the front: re-arm without backoff; its turn comes when
         the frames before it are acked. *)
      arm_retx t c e

let promote t c =
  while Queue.length c.unacked < window && not (Queue.is_empty c.pending) do
    let items = Queue.pop c.pending in
    let e =
      { seq = c.next_seq; items; rto = rto_base; deadline = infinity }
    in
    c.next_seq <- c.next_seq + 1;
    Queue.push e c.unacked;
    transmit t c e
  done

let handle_ack t c ack =
  let advanced = ref false in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt c.unacked with
    | Some e when e.seq <= ack ->
        ignore (Queue.pop c.unacked);
        e.deadline <- infinity;  (* invalidate the armed timer *)
        advanced := true
    | _ -> continue := false
  done;
  if !advanced then promote t c

(* Drop policy when the pending queue is full: evict the oldest
   singleton delete-pattern group (soft-state cleanup is the safest
   loss; batches are never split), else refuse the newcomer. Either
   way one group is dropped and counted as backpressure. *)
let evict_oldest_delete (c : chan) =
  let found = ref false in
  let keep = Queue.create () in
  Queue.iter
    (fun group ->
      match group with
      | [ (true, _) ] when not !found -> found := true
      | _ -> Queue.push group keep)
    c.pending;
  if !found then c.pending <- keep;
  !found

(* Ship one group (one future sequence number) to the peer. *)
let send_group t c items =
  if not t.reliable then begin
    (* ablation: fire-and-forget, still in frame format *)
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    Metrics.Counter.incr t.tx_frames;
    t.raw_send c.handle (encode_group t c items ~seq)
  end
  else if Queue.length c.unacked < window then begin
    let e =
      { seq = c.next_seq; items; rto = rto_base; deadline = infinity }
    in
    c.next_seq <- c.next_seq + 1;
    Queue.push e c.unacked;
    transmit t c e
  end
  else if Queue.length c.pending < max_pending then
    Queue.push items c.pending
  else begin
    Metrics.Counter.incr t.sendq_drops;
    if evict_oldest_delete c then Queue.push items c.pending
    (* else: the newcomer is the dropped group *)
  end

(* Drain one coalescing buffer into delta-batch groups of at most
   [max_batch] tuples each. A retired channel's tuples die with it. *)
let flush_buffer t c =
  if t.stopped || not (c.live) then Queue.clear c.buffer
  else
    while not (Queue.is_empty c.buffer) do
      let rec take n acc =
        if n = 0 || Queue.is_empty c.buffer then List.rev acc
        else take (n - 1) (Queue.pop c.buffer :: acc)
      in
      send_group t c (take max_batch [])
    done

(** Ship everything the coalescing buffers hold, peer by peer in the
    order each peer was first sent to. The owner calls this when the
    event it is handling finishes, so frames leave at the instant (and
    effect position) of the event that produced them. *)
let flush t =
  match t.dirty with
  | [] -> ()
  | dirty ->
      t.dirty <- [];
      List.iter (flush_buffer t) (List.rev dirty)

(** Ship one tuple to [dst], reliably (sequenced, retransmitted,
    bounded queue) unless the transport is ablated. With batching
    enabled the tuple first parks in the peer's coalescing buffer and
    leaves at the next {!flush}, together with everything else sent to
    that peer meanwhile, in a single delta-batch frame. *)
let send t ~dst ~delete tuple =
  let c = chan t dst in
  if t.batching then begin
    if Queue.is_empty c.buffer then begin
      (match t.dirty with [] -> t.on_dirty t | _ :: _ -> ());
      t.dirty <- c :: t.dirty
    end;
    Queue.push (delete, tuple) c.buffer
  end
  else send_group t c [ (delete, tuple) ]

(* --- acks --- *)

let schedule_ack t (c : chan) =
  if not c.ack_pending then begin
    c.ack_pending <- true;
    t.schedule ack_delay (fun () ->
        (* piggybacked (cleared) or channel forgotten -> stale *)
        if c.ack_pending && (not t.stopped) && c.live then begin
          c.ack_pending <- false;
          if t.active () then begin
            Metrics.Counter.incr t.tx_acks;
            Metrics.Counter.incr t.tx_frames;
            t.raw_send c.handle (Wire.encode_ack ~ack:c.cum_ack)
          end
        end)
  end

(* --- receiving --- *)

(** A frame arrived from [src]. Decodes it, feeds the ack side,
    suppresses duplicates, reorders, and hands in-order data messages
    up through the deliver hook. Raises [Wire.Error] on malformed
    input (the simulator never corrupts frames). *)
let receive t ~src packet =
  let frame = Wire.decode packet in
  Metrics.Counter.incr t.rx_frames;
  let c = chan t src in
  heard t c;
  if t.reliable then handle_ack t c frame.Wire.ack;
  match frame.Wire.kind with
  | Wire.Ack -> ()
  | Wire.Heartbeat ->
      (* answer the probe (delayed, so reverse data can piggyback) *)
      if t.reliable then schedule_ack t c
  | Wire.Data _ | Wire.Batch _ ->
      (* A delta batch is one sequenced unit: its messages are
         delivered consecutively in item order, so batching stays
         invisible above the transport. The frame's bytes are charged
         with its first message. *)
      let msgs =
        match frame.Wire.kind with
        | Wire.Data msg -> [ msg ]
        | Wire.Batch msgs ->
            Metrics.Counter.incr t.rx_batches;
            msgs
        | Wire.Ack | Wire.Heartbeat -> assert false
      in
      let bytes = String.length packet in
      let deliver_all ~bytes msgs =
        List.iteri
          (fun i m -> t.deliver ~src ~bytes:(if i = 0 then bytes else 0) m)
          msgs
      in
      if not t.reliable then deliver_all ~bytes msgs
      else begin
        let s = frame.Wire.seq in
        if s <= c.cum_ack then begin
          (* duplicate: already delivered; re-ack so a lost ack can't
             make the sender retransmit forever *)
          Metrics.Counter.incr t.rx_duplicates;
          schedule_ack t c
        end
        else if s = c.cum_ack + 1 then begin
          deliver_all ~bytes msgs;
          c.cum_ack <- s;
          (* drain the reorder buffer while it continues the run *)
          let continue = ref true in
          while !continue do
            match Hashtbl.find_opt c.reorder (c.cum_ack + 1) with
            | Some (b, ms) ->
                Hashtbl.remove c.reorder (c.cum_ack + 1);
                c.cum_ack <- c.cum_ack + 1;
                deliver_all ~bytes:b ms
            | None -> continue := false
          done;
          schedule_ack t c
        end
        else begin
          (* gap: an earlier frame was lost (retransmission re-sends
             it); buffer this one unless it's already there *)
          if Hashtbl.mem c.reorder s then Metrics.Counter.incr t.rx_duplicates
          else if Hashtbl.length c.reorder < reorder_limit then begin
            Hashtbl.replace c.reorder s (bytes, msgs);
            Metrics.Counter.incr t.rx_reordered
          end;
          (* else: over the buffer bound; the retransmit path resupplies *)
          schedule_ack t c  (* duplicate acks point the sender at the gap *)
        end
      end

(* --- heartbeats --- *)

let rec heartbeat_tick t =
  if t.stopped then ()
  else begin
  (if not (t.active ()) then
     (* Crashed host: freeze the detector instead of accusing every
        peer of the silence we caused; recovery restarts with grace. *)
     Strtbl.iter (fun _ c -> c.last_heard <- t.now ()) t.chans
   else if t.reliable then
     Strtbl.iter
       (fun _ c ->
         if t.now () -. c.last_heard >= heartbeat_period then begin
           (* the previous probe (or traffic) went unanswered *)
           miss t c;
           Metrics.Counter.incr t.tx_heartbeats;
           Metrics.Counter.incr t.tx_frames;
           c.ack_pending <- false;  (* the heartbeat piggybacks the ack *)
           t.raw_send c.handle (Wire.encode_heartbeat ~ack:c.cum_ack)
         end)
       t.chans);
  t.schedule heartbeat_period (fun () -> heartbeat_tick t)
  end

(* --- construction --- *)

let create ~addr ~rng ~now ~schedule ~raw_send ~on_dirty
    ~active () =
  let t =
    {
      addr;
      rng;
      chans = Strtbl.create 8;
      reliable = true;
      batching = true;
      dirty = [];
      stopped = false;
      now;
      schedule;
      raw_send;
      on_dirty;
      deliver = (fun ~src:_ ~bytes:_ _ -> ());
      active;
      tx_frames = Metrics.Counter.create ();
      tx_acks = Metrics.Counter.create ();
      tx_heartbeats = Metrics.Counter.create ();
      retransmits = Metrics.Counter.create ();
      tx_batches = Metrics.Counter.create ();
      tx_batched_tuples = Metrics.Counter.create ();
      rx_frames = Metrics.Counter.create ();
      rx_duplicates = Metrics.Counter.create ();
      rx_reordered = Metrics.Counter.create ();
      rx_batches = Metrics.Counter.create ();
      sendq_drops = Metrics.Counter.create ();
      rate_mark = now ();
      rate_base = 0;
      rate_prev = 0;
    }
  in
  (* stagger the first tick so co-created transports don't all probe
     on the same instant *)
  schedule (heartbeat_period *. (1. +. Sim.Rng.float rng)) (fun () ->
      heartbeat_tick t);
  t

(* --- introspection --- *)

let buffered t =
  List.fold_left (fun acc (c : chan) -> acc + Queue.length c.buffer) 0 t.dirty

let sendq_depth t =
  Strtbl.fold
    (fun _ c acc ->
      acc + Queue.length c.unacked + Queue.length c.pending
      + Queue.length c.buffer)
    t.chans 0

let count_status t s =
  Strtbl.fold
    (fun _ (c : chan) acc -> if c.status = s then acc + 1 else acc)
    t.chans 0

(** Per-peer channel and failure-detector state, sorted by peer — the
    source of the [p2PeerStatus] reflection rows and [p2ql peers]. *)
let peers t =
  Strtbl.fold
    (fun _ (c : chan) acc ->
      {
        peer = c.peer;
        status = c.status;
        misses = c.misses;
        silent_for = t.now () -. c.last_heard;
        sendq =
          Queue.length c.unacked + Queue.length c.pending
          + Queue.length c.buffer;
      }
      :: acc)
    t.chans []
  |> List.sort (fun a b -> String.compare a.peer b.peer)

let peer_status t peer =
  Option.map (fun (c : chan) -> c.status) (Strtbl.find_opt t.chans peer)

(** Drop all state for a retired peer: queued frames, reorder buffer,
    detector state. Armed timers go stale: the channel is no longer
    [live]. *)
let forget_peer t peer =
  match Strtbl.find_opt t.chans peer with
  | Some c ->
      c.live <- false;
      Strtbl.remove t.chans peer
  | None -> ()

let retransmit_count t = Metrics.Counter.value t.retransmits
let duplicate_count t = Metrics.Counter.value t.rx_duplicates

(** Register the [transport.*] metric names into a node registry (the
    catalog is documented in docs/OPERATIONS.md). *)
let register_metrics t reg =
  Metrics.attach_counter reg "transport.tx.frames" t.tx_frames;
  Metrics.attach_counter reg "transport.tx.acks" t.tx_acks;
  Metrics.attach_counter reg "transport.tx.heartbeats" t.tx_heartbeats;
  Metrics.attach_counter reg "transport.retransmits" t.retransmits;
  Metrics.attach_counter reg "transport.tx.batches" t.tx_batches;
  Metrics.attach_counter reg "transport.tx.batched_tuples" t.tx_batched_tuples;
  Metrics.attach_counter reg "transport.rx.frames" t.rx_frames;
  Metrics.attach_counter reg "transport.rx.duplicates" t.rx_duplicates;
  Metrics.attach_counter reg "transport.rx.reordered" t.rx_reordered;
  Metrics.attach_counter reg "transport.rx.batches" t.rx_batches;
  Metrics.attach_counter reg "transport.sendq.drops" t.sendq_drops;
  Metrics.register reg "transport.sendq.depth" Metrics.KGauge (fun () ->
      float_of_int (sendq_depth t));
  Metrics.register reg "transport.retx.rate" Metrics.KGauge (fun () -> retx_rate t);
  Metrics.register reg "transport.peers.suspect" Metrics.KGauge (fun () ->
      float_of_int (count_status t Suspect));
  Metrics.register reg "transport.peers.dead" Metrics.KGauge (fun () ->
      float_of_int (count_status t Dead))
