(** P2-Chord: the Chord lookup overlay written in OverLog, executed by
    the P2 runtime — the substrate every monitoring example in the
    paper (§3) runs against.

    Deviations from the original P2 Chord rules, documented here and in
    DESIGN.md: [lookupResults] carries two extra fields (the responder
    address and its current snapshot ID) so that the §3.3 snapshot
    algorithm's rule sr14 can treat late lookup responses as markers;
    [returnSucc] carries the sender address (needed by sr15's channel
    recording). Node identifiers live in the 31-bit ring of
    [Value.Ring] rather than SHA-1 space. *)

open Overlog

type params = {
  t_stabilize : float;  (* successor stabilization period, paper: 5 s *)
  t_fix_fingers : float;  (* finger fixing period, paper: 10 s *)
  t_ping : float;  (* liveness ping period, paper: 5 s *)
  ping_timeout : float;  (* silence before a neighbor is declared faulty *)
  succ_size : int;  (* successor-list capacity *)
  finger_positions : int;  (* how many finger exponents to cycle through *)
  remember_deceased : bool;
      (* true = purge gossip that recycles recently faulty neighbors
         (rules pg13–pg16). false = the "incorrect implementation" of
         paper §3.1.3, which oscillates dead neighbors in and out of
         the routing state forever — kept as an option so the
         oscillation detectors have their target bug to find. *)
}

let default_params =
  {
    t_stabilize = 5.;
    t_fix_fingers = 10.;
    t_ping = 5.;
    ping_timeout = 12.;
    succ_size = 16;
    finger_positions = Value.Ring.bits;
    remember_deceased = true;
  }

(** The §3.1.3 "incorrect implementation": recycles dead neighbors. *)
let buggy_params = { default_params with remember_deceased = false }

(** The OverLog program. Generated from [params] because periodic
    intervals must be literals in the rule text. *)
let program p =
  Fmt.str
    {|
/* ---------- P2 Chord ---------- */

/* identity and bootstrap */
materialize(node, infinity, 1, keys(1)).
materialize(landmark, infinity, 1, keys(1)).
materialize(joinReq, 60, 16, keys(1,2)).

/* routing state (soft state, refreshed by the protocol). The succ
   table is deliberately over-provisioned (4x the nominal successor
   list): candidates learned from gossip must survive long enough to
   win the bestSucc race, and stale entries die by expiry rather than
   eviction. */
materialize(succ, 30, %d, keys(1,3)).
materialize(bestSucc, infinity, 1, keys(1)).
materialize(pred, infinity, 1, keys(1)).
materialize(finger, 60, 64, keys(1,2)).
materialize(uniqueFinger, 60, 64, keys(1,2)).
materialize(nextFingerFix, infinity, 1, keys(1)).
materialize(fingerLookup, 60, 64, keys(1,2)).

/* liveness. lastSeen is soft state (a wall-clock observation, refreshed every ping round): finite-lifetime so checkpoints skip it — restoring pre-crash timestamps would mass-declare neighbors faulty on the reborn node's first pg5 tick. pg5 fires 12-17 s into a silence, inside the 30 s window. */
materialize(pingNode, 12, 64, keys(1,2)).
materialize(lastSeen, 30, 64, keys(1,2)).
materialize(faultyNode, 30, 32, keys(1,2)).

/* snapshot id threading (seeded to 0 at boot; advanced by the
   snapshot monitor when installed) */
materialize(currentSnap, infinity, 1, keys(1)).

/* ---------- join ---------- */

j1 joinMsg@NAddr(E) :- startJoin@NAddr(), E := f_rand().
j2 joinReq@NAddr(E) :- joinMsg@NAddr(E).
j3 lookup@LAddr(K, NAddr, E) :- joinMsg@NAddr(E), landmark@NAddr(LAddr),
   node@NAddr(NID), LAddr != NAddr, K := NID + 1.
j4 succ@NAddr(SID, SAddr) :- lookupResults@NAddr(K, SID, SAddr, E, RespAddr, SnapID),
   joinReq@NAddr(E).
j5 succ@NAddr(NID, NAddr) :- joinMsg@NAddr(E), landmark@NAddr(LAddr),
   node@NAddr(NID), LAddr == NAddr.
/* a non-landmark node whose best successor degenerated to itself has
   been isolated (e.g. it was partitioned away and its soft state
   expired): re-join through the landmark */
j6 joinMsg@NAddr(E) :- periodic@NAddr(E, %g), bestSucc@NAddr(SID, SAddr),
   SAddr == NAddr, landmark@NAddr(LAddr), LAddr != NAddr.

/* ---------- best successor selection ---------- */

bs1 bestSuccDist@NAddr(min<D>) :- node@NAddr(NID), succ@NAddr(SID, SAddr),
    D := SID - NID - 1.
bs2 bestSucc@NAddr(SID, SAddr) :- bestSuccDist@NAddr(D), succ@NAddr(SID, SAddr),
    node@NAddr(NID), D == SID - NID - 1.

/* ---------- stabilization (ring maintenance) ---------- */

sb1 stabilizeRequest@SAddr(NID, NAddr) :- periodic@NAddr(E, %g),
    bestSucc@NAddr(SID, SAddr), node@NAddr(NID), SAddr != NAddr.
sb2 sendPred@ReqAddr(PID, PAddr) :- stabilizeRequest@NAddr(ReqID, ReqAddr),
    pred@NAddr(PID, PAddr), PAddr != "-".
sb3 pred@NAddr(ReqID, ReqAddr) :- stabilizeRequest@NAddr(ReqID, ReqAddr),
    pred@NAddr(PID, PAddr), node@NAddr(NID), PAddr != "-", ReqID in (PID, NID).
sb3a pred@NAddr(ReqID, ReqAddr) :- stabilizeRequest@NAddr(ReqID, ReqAddr),
    pred@NAddr(PID, PAddr), PAddr == "-".
sb4 succ@NAddr(SID, SAddr) :- sendPred@NAddr(SID, SAddr).
/* the requester is also a successor candidate for the receiver; this
   is what links the landmark into the ring when the first node joins */
sb8 succ@NAddr(ReqID, ReqAddr) :- stabilizeRequest@NAddr(ReqID, ReqAddr).

/* successor-list gossip */
sb5 succReq@SAddr(NAddr) :- periodic@NAddr(E, %g), bestSucc@NAddr(SID, SAddr),
    SAddr != NAddr.
/* one returnSucc per successor-list row is the point of the gossip */
%%%% allow W512
sb6 returnSucc@ReqAddr(SID, SAddr, NAddr) :- succReq@NAddr(ReqAddr),
    succ@NAddr(SID, SAddr).
sb7 succ@NAddr(SID, SAddr) :- returnSucc@NAddr(SID, SAddr, Src).

/* ---------- fingers ---------- */

f0 finger@NAddr(0, SID, SAddr) :- bestSucc@NAddr(SID, SAddr).
f1 fixEvent@NAddr(E, I) :- periodic@NAddr(E, %g), nextFingerFix@NAddr(I).
f2 fingerLookup@NAddr(E, I) :- fixEvent@NAddr(E, I).
f3 lookup@NAddr(K, NAddr, E) :- fixEvent@NAddr(E, I), node@NAddr(NID),
   K := NID + f_pow2(I).
f4 finger@NAddr(I, BID, BAddr) :- lookupResults@NAddr(K, BID, BAddr, E, RespAddr, SnapID),
   fingerLookup@NAddr(E, I).
/* cycle positions downward from the top: high positions are the only
   ones that differ from the immediate successor in a sparsely
   populated ring, so they must be fixed first */
f5 nextFingerFix@NAddr(I2) :- lookupResults@NAddr(K, BID, BAddr, E, RespAddr, SnapID),
   fingerLookup@NAddr(E, I), I2 := (I + %d - 1) %% %d.
f6 uniqueFinger@NAddr(FAddr, FID) :- finger@NAddr(I, FID, FAddr).

/* periodic self-refresh: a fixed finger stays valid until it is
   re-fixed (the cycle takes finger_positions * t_fix_fingers seconds)
   or its node is declared faulty (pg9/pg10 purge it); without this,
   fingers expire long before the fixing cycle returns to them */
f7 finger@NAddr(I, FID, FAddr) :- periodic@NAddr(E, %g), finger@NAddr(I, FID, FAddr).
f8 uniqueFinger@NAddr(FAddr, FID) :- periodic@NAddr(E, %g), finger@NAddr(I, FID, FAddr).

/* ---------- lookups (paper rules l1-l3) ---------- */

l1 lookupResults@ReqAddr(K, SID, SAddr, E, NAddr, SnapID) :- node@NAddr(NID),
   lookup@NAddr(K, ReqAddr, E), bestSucc@NAddr(SID, SAddr),
   currentSnap@NAddr(SnapID), K in (NID, SID].
/* the l2/l3 recursion is the lookup itself: each hop strictly shrinks
   the remaining ID distance, so the cycle terminates in O(log N) hops
   and the min<D> forward goes to exactly one finger */
%%%% allow E502
l2 bestLookupDist@NAddr(K, ReqAddr, E, min<D>) :- node@NAddr(NID),
   lookup@NAddr(K, ReqAddr, E), uniqueFinger@NAddr(FAddr, FID),
   D := K - FID - 1, FID in (NID, K).
%%%% allow E502 W511
l3 lookup@FAddr(K, ReqAddr, E) :- node@NAddr(NID),
   bestLookupDist@NAddr(K, ReqAddr, E, D), uniqueFinger@NAddr(FAddr, FID),
   D == K - FID - 1, FID in (NID, K).

/* ---------- liveness pings and failure handling ---------- */

pn1 pingNode@NAddr(SAddr) :- periodic@NAddr(E, %g), succ@NAddr(SID, SAddr),
    SAddr != NAddr.
pn2 pingNode@NAddr(PAddr) :- periodic@NAddr(E, %g), pred@NAddr(PID, PAddr),
    PAddr != "-", PAddr != NAddr.
pn3 pingNode@NAddr(FAddr) :- periodic@NAddr(E, %g), uniqueFinger@NAddr(FAddr, FID),
    FAddr != NAddr.
/* eager variants: monitor a neighbor the moment it enters the routing
   state, not at the next periodic tick (keeps the liveness-coverage
   invariants of Core.Assertions airtight) */
pn1b pingNode@NAddr(SAddr) :- succ@NAddr(SID, SAddr), SAddr != NAddr.
pn2b pingNode@NAddr(PAddr) :- pred@NAddr(PID, PAddr), PAddr != "-", PAddr != NAddr.
pn3b pingNode@NAddr(FAddr) :- uniqueFinger@NAddr(FAddr, FID), FAddr != NAddr.

/* garbage-collect uniqueFinger rows whose backing finger entry was
   re-fixed to another node (negation keeps the pair consistent) */
f9 delete uniqueFinger@NAddr(FAddr, FID) :- periodic@NAddr(E, %g),
    uniqueFinger@NAddr(FAddr, FID), !finger@NAddr(_, FID, FAddr).

/* pinging every monitored neighbor each tick is the liveness check */
%%%% allow W511
pg1 pingReq@RAddr(NAddr, E) :- periodic@NAddr(E, %g), pingNode@NAddr(RAddr).
pg2 pingResp@SAddr(NAddr, E) :- pingReq@NAddr(SAddr, E).
pg3 lastSeen@NAddr(RAddr, T) :- pingResp@NAddr(RAddr, E), T := f_now().
pg4 lastSeen@NAddr(RAddr, T) :- pingNode@NAddr(RAddr), T := f_now().

pg5 faultyEvent@NAddr(FAddr, T) :- periodic@NAddr(E, %g),
    lastSeen@NAddr(FAddr, T0), T := f_now(), T - T0 > %g.
pg6 faultyNode@NAddr(FAddr, T) :- faultyEvent@NAddr(FAddr, T).
pg7 delete succ@NAddr(SID, FAddr) :- faultyEvent@NAddr(FAddr, T), succ@NAddr(SID, FAddr).
pg8 pred@NAddr(0, "-") :- faultyEvent@NAddr(FAddr, T), pred@NAddr(PID, FAddr).
pg9 delete finger@NAddr(I, FID, FAddr) :- faultyEvent@NAddr(FAddr, T),
    finger@NAddr(I, FID, FAddr).
pg10 delete uniqueFinger@NAddr(FAddr, FID) :- faultyEvent@NAddr(FAddr, T),
    uniqueFinger@NAddr(FAddr, FID).
pg11 delete lastSeen@NAddr(FAddr, T0) :- faultyEvent@NAddr(FAddr, T),
    lastSeen@NAddr(FAddr, T0).
pg12 delete pingNode@NAddr(FAddr) :- faultyEvent@NAddr(FAddr, T),
    pingNode@NAddr(FAddr).
|}
    (4 * p.succ_size) p.t_stabilize p.t_stabilize p.t_stabilize p.t_fix_fingers
    p.finger_positions p.finger_positions
    p.t_stabilize p.t_stabilize p.t_ping p.t_ping p.t_ping p.t_stabilize p.t_ping
    p.t_ping p.ping_timeout
  ^
  if p.remember_deceased then
    {|
/* Remember recently deceased neighbors (the faultyNode table) and
   purge gossip that recycles them — the paper's §3.1.3 cure for the
   recycled-dead-neighbor oscillation. Triggered both when a dead
   neighbor is re-inserted into succ and when a node is newly declared
   faulty. Omitted in the buggy variant (remember_deceased = false). */
pg13 purgeSucc@NAddr(SID, FAddr) :- succ@NAddr(SID, FAddr),
    faultyNode@NAddr(FAddr, T).
pg14 delete succ@NAddr(SID, FAddr) :- purgeSucc@NAddr(SID, FAddr).
pg15 purgePing@NAddr(FAddr) :- pingNode@NAddr(FAddr), faultyNode@NAddr(FAddr, T).
pg16 delete pingNode@NAddr(FAddr) :- purgePing@NAddr(FAddr).
|}
  else ""

(** Deterministic node identifier for an address. *)
let id_of_addr addr = Hashtbl.hash ("chord-id:" ^ addr) land (Value.Ring.space - 1)

(** Per-node bootstrap facts: identity, landmark, empty predecessor,
    snapshot-id zero. *)
let boot_facts ~addr ~landmark =
  Fmt.str
    {|
node@%s(#%d).
landmark@%s(%s).
pred@%s(0, "-").
currentSnap@%s(0).
nextFingerFix@%s(%d).
|}
    addr (id_of_addr addr) addr landmark addr addr addr
    (Value.Ring.bits - 1)

type network = {
  engine : P2_runtime.Engine.t;
  addrs : string list;
  landmark : string;
  params : params;
}

(* [retries] [startJoin] injections into [node], 5 s apart from [t0].
   Each fires only while [node] is still the one at its address: a
   node that leaves, or restarts, takes its pending retries with it,
   and a successor under the same address arms its own. *)
let arm_joins engine node ~t0 retries =
  let addr = P2_runtime.Node.addr node in
  for r = 0 to retries - 1 do
    P2_runtime.Engine.at engine
      ~time:(t0 +. (float_of_int r *. 5.))
      (fun () ->
        match P2_runtime.Engine.node_opt engine addr with
        | Some n when n == node ->
            ignore @@ P2_runtime.Engine.inject engine addr "startJoin" []
        | _ -> ())
  done

(** Boot an [n]-node Chord ring (paper §4: 21 nodes, staggered start).
    Nodes are named [<prefix>0 .. <prefix>n-1]; node 0 is the landmark.
    [join_spacing] is the delay between consecutive joins. *)
let boot ?(params = default_params) ?(prefix = "n") ?(join_spacing = 0.5)
    ?(join_retries = 3) engine n =
  let addrs = List.init n (fun i -> Fmt.str "%s%d" prefix i) in
  let landmark = List.hd addrs in
  let text = program params in
  let nodes =
    List.map
      (fun addr ->
        let node = P2_runtime.Engine.add_node engine addr in
        P2_runtime.Engine.install engine addr text;
        P2_runtime.Engine.install engine addr (boot_facts ~addr ~landmark);
        node)
      addrs
  in
  List.iteri
    (fun i node ->
      let t0 = P2_runtime.Engine.now engine +. (float_of_int i *. join_spacing) in
      arm_joins engine node ~t0 join_retries)
    nodes;
  { engine; addrs; landmark; params }

(** Churn entry points (used by the fault-injection harness). *)

(** Add one node to a running ring: install the program and bootstrap
    facts, then join through the landmark. [join_retries] staggered
    [startJoin] injections cover lost join lookups (joins are
    idempotent — each merely adds successor candidates). *)
let join ?(join_retries = 3) net addr =
  if List.mem addr net.addrs then invalid_arg (Fmt.str "Chord.join: duplicate node %s" addr);
  let node = P2_runtime.Engine.add_node net.engine addr in
  P2_runtime.Engine.install net.engine addr (program net.params);
  P2_runtime.Engine.install net.engine addr (boot_facts ~addr ~landmark:net.landmark);
  arm_joins net.engine node ~t0:(P2_runtime.Engine.now net.engine) join_retries;
  { net with addrs = net.addrs @ [ addr ] }

(** Re-seed the join protocol after a cold restart (see chord.mli). *)
let rejoin ?(join_retries = 3) net addr =
  if not (List.mem addr net.addrs) then
    invalid_arg (Fmt.str "Chord.rejoin: unknown node %s" addr);
  if addr <> net.landmark then
    arm_joins net.engine
      (P2_runtime.Engine.node net.engine addr)
      ~t0:(P2_runtime.Engine.now net.engine) join_retries

(** Remove a node permanently (fail-stop leave: Chord has no graceful
    departure, neighbors detect the silence via pings). *)
let leave net addr =
  if addr = net.landmark then invalid_arg "Chord.leave: cannot remove the landmark";
  if not (List.mem addr net.addrs) then
    invalid_arg (Fmt.str "Chord.leave: unknown node %s" addr);
  P2_runtime.Engine.crash net.engine addr;
  P2_runtime.Engine.remove_node net.engine addr;
  { net with addrs = List.filter (fun a -> a <> addr) net.addrs }

(** Issue a lookup for [key] starting at [addr]; results arrive as
    [lookupResults] tuples at [req_addr] (default: the issuing node). *)
let lookup net ~addr ?req_addr ~key ~req_id () =
  let req_addr = Option.value req_addr ~default:addr in
  ignore @@ P2_runtime.Engine.inject net.engine addr "lookup"
    [ Value.VId key; Value.VAddr req_addr; Value.VInt req_id ]

(* --- State extraction for tests and examples --- *)

(* A retired node has no tables: neighbor pointers can dangle at a
   departed address for a while (until stabilization drops them), and
   the walks below must treat that as a dead end, not an error. *)
let table_tuples net addr name =
  match P2_runtime.Engine.node_opt net.engine addr with
  | None -> []
  | Some node -> (
      match Store.Catalog.find (P2_runtime.Node.catalog node) name with
      | Some table ->
          Store.Table.tuples table ~now:(P2_runtime.Engine.now net.engine)
      | None -> [])

(** A node's current best successor, as (id, addr). *)
let best_succ net addr =
  match table_tuples net addr "bestSucc" with
  | [ t ] -> Some (Value.as_int (Tuple.field t 2), Value.as_addr (Tuple.field t 3))
  | _ -> None

let predecessor net addr =
  match table_tuples net addr "pred" with
  | [ t ] ->
      let paddr = Value.as_addr (Tuple.field t 3) in
      if paddr = "-" then None
      else Some (Value.as_int (Tuple.field t 2), paddr)
  | _ -> None

let successors net addr =
  table_tuples net addr "succ"
  |> List.map (fun t -> (Value.as_int (Tuple.field t 2), Value.as_addr (Tuple.field t 3)))

let fingers net addr =
  table_tuples net addr "finger"
  |> List.map (fun t ->
         ( Value.as_int (Tuple.field t 2),
           Value.as_int (Tuple.field t 3),
           Value.as_addr (Tuple.field t 4) ))

(** Walk the ring along best successors starting from the landmark.
    Returns the visited addresses; stops after [limit] hops or when the
    walk returns to the start. *)
let ring_walk ?limit net =
  let limit = Option.value limit ~default:(2 * List.length net.addrs) in
  let rec go addr acc n =
    if n >= limit then List.rev acc
    else
      match best_succ net addr with
      | Some (_, next) when next = net.landmark -> List.rev (addr :: acc)
      | Some (_, next) -> go next (addr :: acc) (n + 1)
      | None -> List.rev (addr :: acc)
  in
  go net.landmark [] 0

(** True when the ring is globally correct: the best-successor walk
    visits every live node exactly once, in increasing ID order
    (modulo one wrap). *)
let ring_correct ?(exclude = []) net =
  let live = List.filter (fun a -> not (List.mem a exclude)) net.addrs in
  let walk = ring_walk ~limit:(2 * List.length net.addrs) net in
  List.length walk = List.length live
  && List.sort compare walk = List.sort compare live
  &&
  let ids = List.map id_of_addr walk in
  let wraps =
    let rec count = function
      | a :: (b :: _ as rest) -> (if a >= b then 1 else 0) + count rest
      | [ last ] -> if last >= List.hd ids then 1 else 0
      | [] -> 0
    in
    count ids
  in
  wraps = 1 || List.length live = 1

(** The live node whose ID is the key's true successor — the oracle
    used to validate lookup answers. *)
let true_successor net ?(exclude = []) key =
  let live = List.filter (fun a -> not (List.mem a exclude)) net.addrs in
  let ids = List.map (fun a -> (id_of_addr a, a)) live in
  let sorted = List.sort compare ids in
  match List.find_opt (fun (id, _) -> id >= Value.Ring.norm key) sorted with
  | Some (_, a) -> a
  | None -> ( match sorted with (_, a) :: _ -> a | [] -> invalid_arg "empty ring")
