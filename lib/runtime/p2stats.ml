(** Self-reflection of runtime metrics into the catalog (ROADMAP:
    "monitor the monitor"). Every metric in a node's registry is
    periodically republished as ordinary soft-state tuples —
    [p2Stats], [p2TableStats], [p2NetStats], [p2PeerStatus], and
    [p2Rule] for the installed rules — so OverLog rules can
    aggregate, join and alert over the runtime's own vital signs
    exactly as they do over application state.

    Rows go through [Node.reflect]. A new or changed row is minted
    and delivered, not inserted raw: delta strands over the stats
    tables fire and the agenda drains, so a pure-OverLog watchdog
    (see [Core.Watchdog]) reacts within the same tick. A row whose
    value did not change is only refreshed in place: its lifetime is
    extended, no tuple is minted and no delta fires, so watchdog rules
    re-fire only on movement and reflection costs little beyond what
    changed. *)

open Overlog

(* Reflection rows outlive a few missed ticks, then expire: a node
   that stops reflecting (crash, detach) ages out of the stats tables
   like any soft state. *)
let lifetime_of_period period = 3. *. period

(** OverLog schema for the reflection tables, shared by [attach] and
    the embedded watchdog corpus entry. Keyed by (addr, name) /
    (addr, table) / (addr, peer) / (addr, rule id): each tick replaces
    the previous row rather than accumulating history. *)
let schema ?(period = 5.) () =
  let l = lifetime_of_period period in
  Fmt.str
    {|
materialize(p2Stats, %g, 10000, keys(1,2)).
materialize(p2TableStats, %g, 10000, keys(1,2)).
materialize(p2NetStats, %g, 10000, keys(1,2)).
materialize(p2PeerStatus, %g, 10000, keys(1,2)).
materialize(p2Rule, %g, 10000, keys(1,2)).
|}
    l l l l l

let vint i = Value.VInt i
let vstr s = Value.VStr s

let ensure_schema ~period node =
  if not (Store.Catalog.is_table (Node.catalog node) "p2Stats") then
    Node.install_text node (schema ~period ())

(** Reflect one node's current metrics into its stats tables, and its
    installed rules into [p2Rule]. [transport] additionally publishes
    the transport failure detector's per-peer verdicts as
    [p2PeerStatus] rows. *)
let reflect_node ?transport ~period node =
  ensure_schema ~period node;
  List.iter
    (fun (s : Metrics.sample) ->
      Node.reflect node "p2Stats" [ vstr s.name; Value.VFloat s.value ])
    (Metrics.snapshot (Node.registry node));
  let now = Node.local_time node in
  let catalog = Node.catalog node in
  List.iter
    (fun tname ->
      if not (List.mem tname Node.reflected_tables) then begin
        let s = Store.Table.stats (Store.Catalog.find_exn catalog tname) ~now in
        Node.reflect node "p2TableStats"
          [
            vstr tname; vint s.live; vint s.inserts; vint s.deletes;
            vint s.expirations; vint s.evictions; vint s.probes;
          ]
      end)
    (Store.Catalog.names catalog);
  List.iter
    (fun (peer, (p : Node.peer_stats)) ->
      Node.reflect node "p2NetStats"
        [ vstr peer; vint p.tx_msgs; vint p.tx_bytes; vint p.rx_msgs; vint p.rx_bytes ])
    (Node.peers node);
  Option.iter
    (fun tr ->
      List.iter
        (fun (p : Transport.peer_info) ->
          Node.reflect node "p2PeerStatus"
            [
              vstr p.peer;
              vstr (Transport.status_name p.status);
              vint p.misses;
              Value.VFloat p.silent_for;
              vint p.sendq;
            ])
        (Transport.peers tr))
    transport;
  List.iter
    (fun (rule_id, text) -> Node.reflect node "p2Rule" [ vstr rule_id; vstr text ])
    (Node.rules node)

(** Attach periodic reflection to every node of the engine, present
    and future (addresses are re-enumerated each tick, and the schema
    is installed lazily per node). Crashed nodes skip the tick — a
    crashed node processes nothing — and age out of peers' stats
    tables by lifetime. *)
let attach ?(period = 5.) engine =
  let rec tick () =
    List.iter
      (fun addr ->
        if not (Engine.is_crashed engine addr) then
          match Engine.node_opt engine addr with
          | Some node ->
              reflect_node ?transport:(Engine.transport_opt engine addr) ~period
                node
          | None -> ())
      (Engine.addrs engine);
    Engine.at engine ~time:(Engine.now engine +. period) tick
  in
  Engine.at engine ~time:(Engine.now engine +. period) tick

(* --- JSON dump (host-side, reflection-free) --- *)

let buf_addf buf fmt = Fmt.kstr (Buffer.add_string buf) fmt

let json_tables buf node =
  let now = Node.local_time node in
  let catalog = Node.catalog node in
  let first = ref true in
  Buffer.add_string buf "{";
  List.iter
    (fun tname ->
      let s = Store.Table.stats (Store.Catalog.find_exn catalog tname) ~now in
      if not !first then Buffer.add_string buf ",";
      first := false;
      buf_addf buf
        "%S:{\"live\":%d,\"inserts\":%d,\"deletes\":%d,\"expirations\":%d,\"evictions\":%d,\"probes\":%d}"
        tname s.live s.inserts s.deletes s.expirations s.evictions s.probes)
    (Store.Catalog.names catalog);
  Buffer.add_string buf "}"

let json_peers buf node =
  let first = ref true in
  Buffer.add_string buf "{";
  List.iter
    (fun (peer, (p : Node.peer_stats)) ->
      if not !first then Buffer.add_string buf ",";
      first := false;
      buf_addf buf "%S:{\"tx_msgs\":%d,\"tx_bytes\":%d,\"rx_msgs\":%d,\"rx_bytes\":%d}"
        peer p.tx_msgs p.tx_bytes p.rx_msgs p.rx_bytes)
    (Node.peers node);
  Buffer.add_string buf "}"

(** One node's stats as a JSON object: the registry snapshot plus
    per-table and per-peer detail. Reads the registries directly —
    no reflection tuples are created, so dumping cannot perturb a
    deterministic run. *)
let node_json node =
  let buf = Buffer.create 1024 in
  buf_addf buf "{\"metrics\":%s,\"tables\":"
    (Metrics.json_of_samples (Metrics.snapshot (Node.registry node)));
  json_tables buf node;
  Buffer.add_string buf ",\"peers\":";
  json_peers buf node;
  Buffer.add_string buf "}";
  Buffer.contents buf

(** Engine-wide stats: [{"time": t, "nodes": {addr: node_json, ...}}],
    nodes in sorted-address order. *)
let to_json engine =
  let buf = Buffer.create 4096 in
  buf_addf buf "{\"time\":%g,\"nodes\":{" (Engine.now engine);
  let first = ref true in
  List.iter
    (fun addr ->
      if not !first then Buffer.add_string buf ",";
      first := false;
      buf_addf buf "%S:%s" addr (node_json (Engine.node engine addr)))
    (Engine.addrs engine);
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* --- Human-readable dump (p2ql stats) --- *)

(** Pretty-print one node's registry snapshot, one [name value] line
    per metric, in snapshot (sorted-name) order. *)
let pp_node ppf node =
  Fmt.pf ppf "@[<v>%s:@," (Node.addr node);
  List.iter
    (fun (s : Metrics.sample) ->
      let v =
        if Float.is_integer s.value && Float.abs s.value < 1e15 then
          Fmt.str "%.0f" s.value
        else Fmt.str "%g" s.value
      in
      Fmt.pf ppf "  %-28s %s@," s.name v)
    (Metrics.snapshot (Node.registry node));
  Fmt.pf ppf "@]"
