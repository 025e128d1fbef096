(** P2-Chord: the Chord DHT written in OverLog (the paper's substrate
    for every monitoring example), plus host-side oracles used by tests
    and tools. *)

type params = {
  t_stabilize : float;
  t_fix_fingers : float;
  t_ping : float;
  ping_timeout : float;
  succ_size : int;
  finger_positions : int;
  remember_deceased : bool;
      (** [false] reproduces the §3.1.3 "incorrect implementation" that
          recycles dead neighbors (the oscillation detectors' target). *)
}

(** The paper's §4 configuration: stabilize 5 s, fix fingers 10 s,
    ping 5 s; remembers deceased neighbors. *)
val default_params : params

(** The incorrect variant: [remember_deceased = false]. *)
val buggy_params : params

(** The OverLog program text for the given parameters. *)
val program : params -> string

(** Deterministic ring identifier for an address. *)
val id_of_addr : string -> int

(** Per-node bootstrap facts: identity, landmark, empty predecessor,
    snapshot id zero, first finger position. *)
val boot_facts : addr:string -> landmark:string -> string

type network = {
  engine : P2_runtime.Engine.t;
  addrs : string list;
  landmark : string;
  params : params;
}

(** Boot an [n]-node ring: nodes [<prefix>0 .. <prefix>n-1] with node 0
    as the landmark, joins staggered by [join_spacing] seconds and
    retried [join_retries] times. Run the engine afterwards to let the
    ring converge. *)
val boot :
  ?params:params ->
  ?prefix:string ->
  ?join_spacing:float ->
  ?join_retries:int ->
  P2_runtime.Engine.t ->
  int ->
  network

(** Churn entry points (used by the fault-injection harness). The
    [startJoin] retries that {!boot}, {!join} and {!rejoin} arm belong
    to the node they were armed for: they stop when that node leaves
    or restarts, so a later node under the same address never inherits
    them. *)

(** Add one node to a running ring and join it through the landmark;
    [startJoin] is injected [join_retries] times, 5 s apart, to survive
    message loss. Raises [Invalid_argument] on a duplicate address. *)
val join : ?join_retries:int -> network -> string -> network

(** Re-seed the join protocol on an existing member after a cold
    restart ([Engine.restart] that found no intact checkpoint): the
    engine has already replayed its programs and boot facts, but with
    no successor state rule [j6] never fires, so the staggered
    [startJoin] injections must be re-issued explicitly. A no-op for
    the landmark (it anchors the ring; it needs no join). Raises
    [Invalid_argument] for addresses outside the network. *)
val rejoin : ?join_retries:int -> network -> string -> unit

(** Remove a node permanently (fail-stop: neighbors detect the silence
    via liveness pings). Raises [Invalid_argument] for the landmark or
    an unknown address. *)
val leave : network -> string -> network

(** Issue a lookup for [key] starting at [addr]; results arrive as
    [lookupResults] tuples at [req_addr] (default: the issuing node). *)
val lookup :
  network -> addr:string -> ?req_addr:string -> key:int -> req_id:int -> unit -> unit

(** State extraction (host-side views over the node tables). *)

val best_succ : network -> string -> (int * string) option
val predecessor : network -> string -> (int * string) option
val successors : network -> string -> (int * string) list
val fingers : network -> string -> (int * int * string) list

(** Walk the ring along best successors from the landmark. *)
val ring_walk : ?limit:int -> network -> string list

(** True when the best-successor walk visits every live node exactly
    once in ring-ID order (one wrap). *)
val ring_correct : ?exclude:string list -> network -> bool

(** The live node whose identifier is the key's true successor — the
    oracle lookups are validated against. *)
val true_successor : network -> ?exclude:string list -> int -> string
