(** Recovery-time measurement: the differential experiment behind the
    crash-restart acceptance criterion and the bench's [recovery]
    section.

    One [measure] call runs a complete seeded scenario on a fresh
    engine (seed 11): boot a 21-node ring, settle for 120 s, then run
    a four-action {!Fault_plan} through {!Fault_plan.schedule} — crash
    a victim and partition two bystanders off at +5 s (the ring must
    re-converge through leftover damage, not a pristine network), heal
    the partition at +8 s, restart the victim at +11 s — and probe
    {!Chord.ring_correct} every second for 60 s after the restart
    until it holds for 3 consecutive probes.

    The two arms differ only in whether durable checkpoints (every
    10 s) were enabled before boot: [Checkpointed] restarts restore
    hard state from the newest snapshot, [Cold] restarts rejoin
    through the landmark. Everything else — seed, plan, probe cadence
    — is identical, so the tick counts are directly comparable, and
    the oracle requirement is [Checkpointed] strictly fewer ticks than
    [Cold]. *)

type arm = Checkpointed | Cold

type result = {
  arm : arm;
  recovered_from_checkpoint : bool;
      (** what {!P2_runtime.Engine.restart} actually reported — a
          [Checkpointed] arm measurement is only valid when true *)
  restored_rows : int;  (** rows re-minted from the snapshot (0 cold) *)
  restart_at : float;  (** virtual time of the restart *)
  ticks_to_converge : int option;
      (** probe ticks from restart to the first probe of the stable
          streak; [None] when the ring never stabilized before the
          deadline *)
  probe_period : float;  (** virtual seconds between probes *)
  ckpt_bytes : int;  (** checkpoint bytes written across the run *)
  ckpt_snapshots : int;  (** snapshot files written across the run *)
}

(** Run one arm of the experiment on [shards] shards (default 1).
    [dir] is the checkpoint root for the [Checkpointed] arm (wiped
    first, so repeated measurements are deterministic); the [Cold] arm
    never touches it. *)
val measure : ?shards:int -> dir:string -> arm -> result

val pp_result : result Fmt.t
