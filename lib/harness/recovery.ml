(** Recovery-time differential measurement. See recovery.mli. *)

module Engine = P2_runtime.Engine

type arm = Checkpointed | Cold

type result = {
  arm : arm;
  recovered_from_checkpoint : bool;
  restored_rows : int;
  restart_at : float;
  ticks_to_converge : int option;
  probe_period : float;
  ckpt_bytes : int;
  ckpt_snapshots : int;
}

(* The scenario, relative to the end of settle: the victim crashes at
   +5 s and reboots at +11 s — inside its neighbors' 12 s suspicion
   window, the regime durable state is for: nobody has purged it yet,
   so a checkpointed reboot that restores its successor/predecessor
   pointers makes the ring correct almost immediately, while a cold
   reboot holds a broken ring position until the join + successor
   gossip chain rebuilds bestSucc from nothing (its stale finger
   entries even stall the first join lookups: neighbors forward them
   to the reborn node, which cannot answer until it re-learns a
   successor). A concurrent bipartition cuts two bystanders off at
   +5 s and heals at +8 s — short enough that post-heal ping
   refreshes land before anyone's 12 s staleness threshold (a longer
   cut triggers faultyNode declarations whose 30 s purge-block gates
   the global ring walk identically in both arms, masking the
   differential) — stressing the walk without resetting either arm's
   clock. After the restart, ring_correct is probed every second for
   60 s; the arm has converged at the first probe of a 3-probe
   streak. *)
let probe_period = 1.
let stable_for = 3
let deadline = 60.

let measure ?(shards = 1) ~dir arm =
  let engine = Engine.create ~seed:11 () in
  Engine.set_shards engine shards;
  (match arm with
  | Checkpointed ->
      Framed.rm_rf dir;
      Engine.set_checkpoint engine
        ~config:{ Checkpoint.default_config with interval = 10. }
        dir
  | Cold -> ());
  let net = Chord.boot engine 21 in
  Engine.run_until engine 120.;
  let t0 = Engine.now engine in
  (* The victim sits mid-list; the partition group is two non-landmark
     bystanders, cut off from everyone else while the victim is down. *)
  let non_landmark = List.filter (fun a -> a <> net.Chord.landmark) net.Chord.addrs in
  let victim = List.nth non_landmark (List.length non_landmark / 2) in
  let group =
    let others = List.filter (fun a -> a <> victim) non_landmark in
    [ List.nth others 1; List.nth others (List.length others - 2) ]
  in
  let restart_delay = 11. in
  let plan =
    Fault_plan.make ~horizon:(restart_delay +. deadline)
      [
        { time = 5.; action = Crash victim };
        { time = 5.; action = Partition group };
        { time = 8.; action = Heal_partition group };
        { time = restart_delay; action = Restart victim };
      ]
  in
  let recovered = ref false and restored = ref 0 in
  Fault_plan.schedule engine (ref net) ~start:t0 plan ~on_restart:(fun _ o ->
      recovered := o.Engine.recovered_from <> `Cold;
      restored := o.Engine.restored_rows);
  let restart_at = t0 +. restart_delay in
  let tick = ref 0 and streak = ref 0 and converged = ref None in
  for i = 1 to int_of_float (deadline /. probe_period) do
    Engine.at engine
      ~time:(restart_at +. (float_of_int i *. probe_period))
      (fun () ->
        incr tick;
        if Chord.ring_correct net then begin
          incr streak;
          if !streak >= stable_for && !converged = None then
            converged := Some (!tick - stable_for + 1)
        end
        else streak := 0)
  done;
  Engine.run_until engine (restart_at +. deadline +. 1.);
  let metric name =
    List.fold_left
      (fun acc addr ->
        match Engine.node_opt engine addr with
        | Some node -> (
            match Metrics.value (P2_runtime.Node.registry node) name with
            | Some v -> acc + int_of_float v
            | None -> acc)
        | None -> acc)
      0 (Engine.addrs engine)
  in
  let ckpt_bytes = metric "ckpt.bytes" in
  let ckpt_snapshots = metric "ckpt.snapshots" in
  Engine.close_checkpoints engine;
  {
    arm;
    recovered_from_checkpoint = !recovered;
    restored_rows = !restored;
    restart_at;
    ticks_to_converge = !converged;
    probe_period;
    ckpt_bytes;
    ckpt_snapshots;
  }

let pp_result ppf r =
  Fmt.pf ppf "%s: %s rows=%d ticks=%s (period %gs) ckpt=%d files/%d bytes"
    (match r.arm with Checkpointed -> "checkpointed" | Cold -> "cold")
    (if r.recovered_from_checkpoint then "restored" else "cold-boot")
    r.restored_rows
    (match r.ticks_to_converge with
    | Some n -> string_of_int n
    | None -> "never")
    r.probe_period r.ckpt_snapshots r.ckpt_bytes
