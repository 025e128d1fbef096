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

(* Scenario timing, relative to the end of settle. The victim reboots
   6 s after failing — inside its neighbors' 12 s suspicion window, the
   regime durable state is for: nobody has purged it yet, so a
   checkpointed reboot that restores its successor/predecessor
   pointers makes the ring correct almost immediately, while a cold
   reboot holds a broken ring position until the join + successor
   gossip chain rebuilds bestSucc from nothing (its stale finger
   entries even stall the first join lookups: neighbors forward them
   to the reborn node, which cannot answer until it re-learns a
   successor). A concurrent bipartition cuts two bystanders off and
   heals after 3 s — short enough that post-heal ping refreshes land
   before anyone's 12 s staleness threshold (a longer cut triggers
   faultyNode declarations whose 30 s purge-block gates the global
   ring walk identically in both arms, masking the differential) —
   the crash+partition plan the acceptance oracle calls for,
   stressing the walk without resetting either arm's clock. *)
let crash_delay = 5.
let restart_delay = 11.
let heal_delay = 8.

let measure ?(nodes = 21) ?(seed = 11) ?(shards = 1) ?(sanitize = false)
    ?(settle = 120.) ?(probe_period = 1.) ?(stable_for = 3) ?(deadline = 400.)
    ?(checkpoint_interval = 10.) ~dir arm =
  let engine = Engine.create ~seed () in
  Engine.set_shards engine shards;
  if sanitize then Engine.set_sanitize engine true;
  (match arm with
  | Checkpointed ->
      Framed.rm_rf dir;
      Engine.set_checkpoint engine
        ~config:
          { Checkpoint.default_config with interval = checkpoint_interval }
        dir
  | Cold -> ());
  let net = Chord.boot engine nodes in
  Engine.run_until engine settle;
  let t0 = Engine.now engine in
  (* The victim sits mid-list; the partition group is two non-landmark
     bystanders, cut off from everyone else while the victim is down. *)
  let non_landmark = List.filter (fun a -> a <> net.Chord.landmark) net.Chord.addrs in
  let victim = List.nth non_landmark (List.length non_landmark / 2) in
  let group =
    let others = List.filter (fun a -> a <> victim) non_landmark in
    [ List.nth others 1; List.nth others (List.length others - 2) ]
  in
  let rest =
    List.filter (fun a -> not (List.mem a group)) net.Chord.addrs
  in
  let cut healed =
    List.iter
      (fun g ->
        List.iter
          (fun r ->
            if healed then begin
              Engine.heal_link engine ~src:g ~dst:r;
              Engine.heal_link engine ~src:r ~dst:g
            end
            else begin
              Engine.cut_link engine ~src:g ~dst:r;
              Engine.cut_link engine ~src:r ~dst:g
            end)
          rest)
      group
  in
  Engine.at engine ~time:(t0 +. crash_delay) (fun () ->
      Engine.crash engine victim;
      cut false);
  let recovered = ref false and restored = ref 0 in
  let restart_at = t0 +. restart_delay in
  Engine.at engine ~time:restart_at (fun () ->
      let o = Engine.restart engine victim in
      (match o.Engine.recovered_from with
      | `Checkpoint _ -> recovered := true
      | `Cold -> Chord.rejoin net victim);
      restored := o.Engine.restored_rows);
  Engine.at engine ~time:(t0 +. heal_delay) (fun () -> cut true);
  (* Probe cadence: ring_correct sampled every [probe_period] after the
     restart; converged at the first probe of a [stable_for]-long
     streak. *)
  let tick = ref 0 and streak = ref 0 and converged = ref None in
  let n_probes = int_of_float (deadline /. probe_period) in
  for i = 1 to n_probes do
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
