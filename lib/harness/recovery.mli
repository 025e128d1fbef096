(** Recovery-time measurement: the differential experiment behind the
    crash-restart acceptance criterion (ISSUE 10) and the bench's
    [recovery] section.

    One [measure] call runs a complete seeded scenario on a fresh
    engine: boot an [nodes]-ring, settle, crash a victim while
    partitioning a bystander group (the ring must re-converge through
    leftover damage, not a pristine network), heal the partition,
    restart the victim, then probe {!Chord.ring_correct} on a fixed
    cadence until it holds for [stable_for] consecutive probes.

    The two arms differ only in whether durable checkpoints were
    enabled before boot: [Checkpointed] restarts restore hard state
    from the newest snapshot, [Cold] restarts rejoin through the
    landmark. Everything else — seed, schedule, probe cadence — is
    identical, so the tick counts are directly comparable, and the
    oracle requirement is [Checkpointed] strictly fewer ticks than
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

(** Run one arm of the experiment. [dir] is the checkpoint root for
    the [Checkpointed] arm (wiped first, so repeated measurements are
    deterministic); the [Cold] arm never touches it. [deadline] is
    the probe window length in virtual seconds after the restart. *)
val measure :
  ?nodes:int ->
  ?seed:int ->
  ?shards:int ->
  ?sanitize:bool ->
  ?settle:float ->
  ?probe_period:float ->
  ?stable_for:int ->
  ?deadline:float ->
  ?checkpoint_interval:float ->
  dir:string ->
  arm ->
  result

val pp_result : result Fmt.t
