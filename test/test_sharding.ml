(* Shard-count differential oracle for the multicore engine.

   The round/barrier loop promises bit-for-bit determinism: a seeded
   run must produce the identical simulation — every hard-state
   fixpoint, every message count — for every shard count,
   regardless of how many domains actually execute the rounds. These
   suites run the same seeded workloads at shards {1, 2, 4} and demand
   exact agreement, over:

   - the full embedded monitor corpus co-installed on a live Chord
     ring (the paper's deployment story);
   - a larger plain Chord ring, at the default quantum and at a
     deliberately coarse quantum (0.25 s windows force many events per
     round, stressing the canonical barrier replay);
   - a recursive transitive-closure program whose cross-shard deltas
     exercise the deferred-effect path.

   A pinned golden also ties the default-quantum ring to the
   event-at-a-time order: the barrier replays effects in pop order,
   so the totals must match what applying each effect at once gives. *)

module Engine = P2_runtime.Engine
module Node = P2_runtime.Node
open Overlog

let shard_counts = [ 1; 2; 4 ]

(* Canonical fixpoint: per node, per hard-state table, the sorted
   multiset of tuple contents (soft state expires on schedule-free
   grounds either way, but under bit-for-bit determinism even its
   timing agrees — hard state keeps the oracle independent of the
   observation instant). *)
let fixpoint ?(only = fun _ -> true) engine =
  let now = Engine.now engine in
  List.concat_map
    (fun addr ->
      let cat = Node.catalog (Engine.node engine addr) in
      List.filter_map
        (fun tname ->
          let tbl = Store.Catalog.find_exn cat tname in
          if Store.Table.lifetime tbl = infinity && only tname then
            Some
              ( addr,
                tname,
                List.sort String.compare
                  (List.map Tuple.to_string (Store.Table.tuples tbl ~now)) )
          else None)
        (Store.Catalog.names cat))
    (Engine.addrs engine)

let pp_fixpoint ppf fp =
  List.iter
    (fun (addr, t, rows) ->
      Fmt.pf ppf "%s/%s: %a@." addr t Fmt.(list ~sep:(any "; ") string) rows)
    fp

let check_fixpoints_equal ~what a b =
  if a <> b then
    Alcotest.failf "%s: fixpoints differ@.--- first:@.%a--- second:@.%a" what
      pp_fixpoint a pp_fixpoint b

let messages engine =
  List.fold_left
    (fun acc addr -> acc + (Engine.snapshot_node engine addr).Engine.messages_tx)
    0 (Engine.addrs engine)

type arm = {
  shards : int;
  fp : (string * string * string list) list;
  msgs : int;
  events : int;
}

let check_arms_identical ~what = function
  | [] | [ _ ] -> ()
  | base :: rest ->
      List.iter
        (fun arm ->
          check_fixpoints_equal
            ~what:(Fmt.str "%s: shards=%d vs shards=%d" what base.shards arm.shards)
            base.fp arm.fp;
          Alcotest.(check int)
            (Fmt.str "%s: msgs shards=%d vs shards=%d" what base.shards arm.shards)
            base.msgs arm.msgs;
          Alcotest.(check int)
            (Fmt.str "%s: events shards=%d vs shards=%d" what base.shards
               arm.shards)
            base.events arm.events)
        rest

(* --- suite 1: the embedded monitor corpus on a live ring --- *)

let corpus_monitors () =
  List.concat_map
    (fun (name, libs, program) ->
      match name with
      | "chord" | "chord-buggy" | "chord-boot-facts" -> []
      | _ -> libs @ [ program ])
    Core.Registry.embedded

let run_corpus ~shards ~seed =
  let engine = Engine.create ~seed () in
  Engine.set_shards engine shards;
  let net = Chord.boot ~params:Chord.default_params engine 5 in
  Engine.run_until engine 90.;
  let seen = Hashtbl.create 8 in
  Hashtbl.add seen Core.Registry.chord ();
  List.iter
    (fun src ->
      if not (Hashtbl.mem seen src) then begin
        Hashtbl.add seen src ();
        Engine.install_all engine src
      end)
    (corpus_monitors ());
  Engine.run_until engine 240.;
  Alcotest.(check bool)
    (Fmt.str "seed %d shards=%d: ring correct" seed shards)
    true
    (Chord.ring_correct net);
  {
    shards;
    fp = fixpoint engine;
    msgs = messages engine;
    events = Engine.events_handled engine;
  }

let test_corpus_differential () =
  List.iter
    (fun seed ->
      let arms = List.map (fun n -> run_corpus ~shards:n ~seed) shard_counts in
      check_arms_identical ~what:(Fmt.str "monitor corpus seed %d" seed) arms)
    [ 3; 11 ]

(* --- suite 2: Chord rings, default and coarse quanta --- *)

let run_ring ?(sanitize = false) ~shards ~quantum ~seed ~n ~horizon () =
  let engine = Engine.create ~seed () in
  Engine.set_shards ~quantum engine shards;
  if sanitize then Engine.set_sanitize engine true;
  let net = Chord.boot ~params:Chord.default_params engine n in
  Engine.run_until engine horizon;
  Alcotest.(check bool)
    (Fmt.str "seed %d shards=%d quantum=%g: ring correct" seed shards quantum)
    true
    (Chord.ring_correct net);
  {
    shards;
    fp = fixpoint engine;
    msgs = messages engine;
    events = Engine.events_handled engine;
  }

let test_ring_differential () =
  let arms =
    List.map
      (fun n -> run_ring ~shards:n ~quantum:0.01 ~seed:42 ~n:10 ~horizon:150. ())
      shard_counts
  in
  check_arms_identical ~what:"chord ring, default quantum" arms

let test_ring_coarse_quantum () =
  (* 0.25 s windows are 25x the base latency: every round packs many
     deliveries and timers per shard, so the canonical barrier replay
     (not luck of small windows) must carry the determinism. *)
  let arms =
    List.map
      (fun n -> run_ring ~shards:n ~quantum:0.25 ~seed:7 ~n:10 ~horizon:150. ())
      shard_counts
  in
  check_arms_identical ~what:"chord ring, coarse quantum" arms

(* Totals of the seed-42, 10-node, 150 s ring in event-at-a-time
   order (each effect applied the moment its event ran). At the default quantum no effect lands inside its own window, so
   replaying the barrier's effects in pop order must give exactly
   these numbers at every shard count; any drift in the canonical
   order shows up here. The same totals come out at 1 ms and 1 us
   quanta, where a window holds little more than one instant. *)
let golden_ring_events = 31299
let golden_ring_msgs = 8952

let test_ring_golden () =
  List.iter
    (fun n ->
      let arm = run_ring ~shards:n ~quantum:0.01 ~seed:42 ~n:10 ~horizon:150. () in
      Alcotest.(check int) (Fmt.str "events at shards=%d" n) golden_ring_events
        arm.events;
      Alcotest.(check int) (Fmt.str "msgs at shards=%d" n) golden_ring_msgs
        arm.msgs)
    shard_counts

(* --- suite 3: recursive closure with cross-shard deltas --- *)

let tc_program =
  {|materialize(link, infinity, 1024, keys(1, 2)).
materialize(path, infinity, 65536, keys(1, 2)).
p1 path@T(S) :- link@S(T).
p2 path@T(S) :- link@M(T), path@M(S).|}

let run_tc ~shards ~seed ~n =
  let engine = Engine.create ~seed () in
  Engine.set_shards engine shards;
  Engine.set_seminaive engine true;
  let addr i = Fmt.str "n%d" i in
  for i = 0 to n - 1 do
    ignore (Engine.add_node engine (addr i))
  done;
  Engine.install_all engine tc_program;
  (* A Hamiltonian cycle plus cross chords, staggered so the engine
     sees genuine incremental deltas crossing shard boundaries. *)
  let edges =
    List.init n (fun i -> (addr i, addr ((i + 1) mod n)))
    @ List.init (n / 2) (fun i -> (addr i, addr ((i + (n / 2)) mod n)))
  in
  List.iteri
    (fun i (src, dst) ->
      Engine.at engine
        ~time:(1.0 +. (0.5 *. float_of_int i))
        (fun () -> ignore (Engine.inject engine src "link" [ Value.VAddr dst ])))
    edges;
  Engine.run_until engine (60. +. (0.5 *. float_of_int (List.length edges)));
  (* The closure must be total under every shard count. *)
  let fp = fixpoint engine in
  List.iter
    (fun (a, t, rows) ->
      if t = "path" then
        Alcotest.(check int)
          (Fmt.str "shards=%d: |path| at %s" shards a)
          n (List.length rows))
    fp;
  { shards; fp; msgs = messages engine; events = Engine.events_handled engine }

let test_tc_differential () =
  List.iter
    (fun seed ->
      let arms = List.map (fun s -> run_tc ~shards:s ~seed ~n:6) shard_counts in
      check_arms_identical ~what:(Fmt.str "closure seed %d" seed) arms)
    [ 1; 2 ]

(* --- suite 4: the effect-discipline sanitizer --- *)

(* The sanitizer promises to be purely a checking layer: with no
   violation planted, a sanitized run is bit-for-bit the same
   simulation as an unsanitized one, at every shard count. *)
let test_sanitize_identity () =
  let off = run_ring ~shards:2 ~quantum:0.01 ~seed:42 ~n:10 ~horizon:150. () in
  let on =
    List.map
      (fun s ->
        run_ring ~sanitize:true ~shards:s ~quantum:0.01 ~seed:42 ~n:10
          ~horizon:150. ())
      shard_counts
  in
  check_arms_identical ~what:"sanitizer on, shards 1/2/4" on;
  let on2 = List.nth on 1 in
  check_fixpoints_equal ~what:"sanitizer on vs off, shards=2" off.fp on2.fp;
  Alcotest.(check int) "msgs: sanitizer on vs off" off.msgs on2.msgs;
  Alcotest.(check int) "events: sanitizer on vs off" off.events on2.events

(* Plant a genuine violation: an owned callback — running inside its
   owner's shard during the parallel phase — pushes a packet straight
   onto the network instead of deferring the send to the barrier. The
   guard must identify the site and the event being drained, and the
   exception must surface out of [run_until] through the domain pool. *)
let test_sanitizer_catches_direct_send () =
  let engine = Engine.create ~seed:5 () in
  Engine.set_shards engine 2;
  Engine.set_sanitize engine true;
  for i = 0 to 3 do
    ignore (Engine.add_node engine (Fmt.str "n%d" i))
  done;
  Engine.at_owned engine ~owner:"n0" ~time:1.0 (fun () ->
      Engine.unsafe_direct_send engine ~src:"n0" ~dst:"n1" "rogue-packet");
  match Engine.run_until engine 5.0 with
  | () -> Alcotest.fail "direct off-barrier send was not caught"
  | exception Engine.Discipline_violation { site; seq } ->
      Alcotest.(check string) "guarded site" "Engine.raw_send_now" site;
      Alcotest.(check bool) "offending event seq identified" true (seq >= 0)

(* The same rogue send is legal outside a round: a host callback runs
   alone between rounds, with no barrier to bypass, so the sanitizer
   must stay quiet (no false positives). *)
let test_sanitizer_quiet_host_callback () =
  let engine = Engine.create ~seed:5 () in
  Engine.set_sanitize engine true;
  for i = 0 to 3 do
    ignore (Engine.add_node engine (Fmt.str "n%d" i))
  done;
  (* drop the rogue packet at the network: it is not Wire-encoded, and
     only the sanitizer's reaction (none, here) is under test *)
  Engine.cut_link engine ~src:"n0" ~dst:"n1";
  Engine.at engine ~time:1.0 (fun () ->
      Engine.unsafe_direct_send engine ~src:"n0" ~dst:"n1" "rogue-packet");
  Engine.run_until engine 5.0

let () =
  Alcotest.run "sharding"
    [
      ( "corpus",
        [
          Alcotest.test_case "monitor corpus identical at shards 1/2/4" `Slow
            test_corpus_differential;
        ] );
      ( "ring",
        [
          Alcotest.test_case "chord ring identical at shards 1/2/4" `Slow
            test_ring_differential;
          Alcotest.test_case "coarse quantum identical at shards 1/2/4" `Slow
            test_ring_coarse_quantum;
          Alcotest.test_case "default quantum matches pinned golden" `Slow
            test_ring_golden;
        ] );
      ( "closure",
        [
          Alcotest.test_case "recursive closure identical at shards 1/2/4"
            `Quick test_tc_differential;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "sanitized run bit-identical at shards 1/2/4"
            `Slow test_sanitize_identity;
          Alcotest.test_case "direct off-barrier send raises" `Quick
            test_sanitizer_catches_direct_send;
          Alcotest.test_case "no false positive in a host callback" `Quick
            test_sanitizer_quiet_host_callback;
        ] );
    ]
