(** Metric reflection: republish each node's metric registry into its
    own catalog as soft-state tuples, so OverLog rules can monitor the
    monitor (see docs/OPERATIONS.md).

    Tables, all keyed on the first two fields:
    - [p2Stats(Addr, Name, Value)] — one row per registry metric;
      [Value] is a float (counters are integral-valued).
    - [p2TableStats(Addr, Table, Live, Inserts, Deletes, Expirations,
      Evictions, Probes)] — per-table store counters.
    - [p2NetStats(Addr, Peer, TxMsgs, TxBytes, RxMsgs, RxBytes)] —
      per-peer traffic counters.
    - [p2PeerStatus(Addr, Peer, Status, Misses, SilentFor, SendQ)] —
      the transport failure detector's verdict per peer; [Status] is
      one of ["alive"], ["suspect"], ["dead"].
    - [p2Rule(Addr, RuleId, Text)] — one row per installed rule, its
      source pretty-printed (paper §2.1: the installed program is
      itself queryable).

    Reflection rows for unchanged values only refresh their lifetime
    (no table delta), so delta rules over these tables fire exactly on
    movement. Such a row is refreshed in place ({!Node.reflect}): no
    tuple is minted and nothing is delivered, so [node.tuples_created]
    and [machine.drains] count only new or changed rows. *)

(** The [materialize] schema for the five reflection tables. Rows live
    for three reflection periods, so a node that stops reflecting ages
    out. Also the analyzer environment for [Core.Watchdog]'s embedded
    corpus entry. *)
val schema : ?period:float -> unit -> string

(** Reflect one node's current registry, table stats, peer stats and
    installed rules into its catalog, installing the schema first if
    needed. New or changed rows go through [Node.deliver], so delta
    strands fire and the agenda drains before this returns; unchanged
    rows are refreshed in place. [transport] additionally reflects the
    failure detector's per-peer verdicts as [p2PeerStatus] rows. *)
val reflect_node : ?transport:Transport.t -> period:float -> Node.t -> unit

(** Attach periodic reflection (default every 5 s of simulated time)
    to all nodes of the engine, present and future. Crashed nodes skip
    ticks; their rows on other nodes expire by lifetime. *)
val attach : ?period:float -> Engine.t -> unit

(** One node's stats as a JSON object ([metrics] / [tables] / [peers]).
    Reads registries directly without creating reflection tuples, so a
    dump never perturbs a deterministic run. *)
val node_json : Node.t -> string

(** Engine-wide JSON: [{"time": t, "nodes": {addr: ..., ...}}] with
    nodes in sorted-address order. *)
val to_json : Engine.t -> string

(** Human-readable registry snapshot, one [name value] line per
    metric. *)
val pp_node : Format.formatter -> Node.t -> unit
