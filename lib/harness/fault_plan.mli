(** Timed fault schedules for deterministic injection campaigns, and
    the one interpreter that applies them.

    A plan is a list of (time, action) pairs relative to the start of
    the fault window, plus the window length ([horizon]). Plans are
    generated from a {!Sim.Rng} stream so a campaign is a pure function
    of its seed, and serialize to a line-oriented text format that
    replays a shrunk schedule bit-for-bit. {!schedule} turns a plan
    into engine calls; every caller that injects faults goes through
    it. *)

type action =
  | Crash of string
  | Recover of string
  | Cut_link of string * string
  | Heal_link of string * string
  | Set_loss of float  (** network-wide loss-rate ramp *)
  | Set_latency of float * float  (** base, jitter *)
  | Join of string  (** churn: a fresh node joins the ring *)
  | Leave of string  (** churn: fail-stop departure, never returns *)
  | Corrupt_succ of string * string
      (** planted bug hook: pin [node]'s best successor to [target],
          re-asserted on every change — the invariant violation the
          oracle must catch. Never produced by {!generate}. *)
  | Partition of string list
      (** cut the network along a bipartition: every link between the
          listed group and the rest of the nodes goes down, both
          directions. The landmark is never in the group. *)
  | Heal_partition of string list
      (** restore the links the matching [Partition] cut *)
  | Restart of string
      (** crash-restart: reboot the node through the engine's recovery
          path — checkpoint restore when an intact snapshot exists,
          cold rejoin otherwise *)

type timed = { time : float; action : action }

type t = { horizon : float; actions : timed list }
    (** [actions] is sorted by time (stable). *)

(** A plan over [horizon] holding [actions], sorted stably by time:
    actions at equal times keep their list order. *)
val make : horizon:float -> timed list -> t

val empty : float -> t
val length : t -> int

(** Insert an action, keeping the schedule sorted (before the actions
    already at [time]). *)
val add : t -> time:float -> action -> t

(** Drop the [i]-th action (schedule order). *)
val remove : t -> int -> t

(** Shrink helper: cut the horizon to just after the last action. *)
val truncate : t -> t

(** Shrink helper: halve the [i]-th action's time (snapping below 1 s
    to 0); the schedule is re-sorted afterwards. *)
val scale_time : t -> int -> t

(** Random plan, driven entirely by [rng]. [intensity] scales the
    action count and fault magnitudes; 0 yields an empty plan. The
    first address (the landmark) is never crashed or removed, so the
    ring always has its join anchor. Destructive actions are paired
    with a repair (recover / heal / ramp-down) most of the time.
    [extended] (default false) widens the alphabet with [Partition] /
    [Heal_partition] pairs and [Crash] / [Restart] pairs; the classic
    alphabet's draw sequence is unchanged, so existing seeded plans
    stay byte-identical. *)
val generate :
  ?extended:bool ->
  rng:Sim.Rng.t ->
  addrs:string list ->
  horizon:float ->
  intensity:int ->
  unit ->
  t

(** Append the planted successor-corruption bug: [node] (a non-landmark
    ring member) gets its best successor pinned to the live node
    farthest from it on the ring. *)
val plant_corruption : rng:Sim.Rng.t -> addrs:string list -> time:float -> t -> t

(** The one fault interpreter: arm every action of [plan] on [engine]
    at [start +. time]. Campaigns, the recovery oracle, [p2ql chord]
    and [p2ql peers] and the bench all inject faults through it.
    [net] is the ring the actions act on; [Join] and [Leave] replace
    it. Every action is guarded so a shrunk or hand-written plan stays
    executable: actions naming an address outside the ring are
    skipped, the landmark never leaves, [Recover] needs a
    crashed node, [Corrupt_succ] a live one, and [Heal_partition]
    undoes exactly the cuts of the matching [Partition] (none, if it
    found nothing to cut). A [Restart] that found no intact snapshot
    re-seeds the join protocol ({!Chord.rejoin}). [on_join] runs after
    each applied [Join], [on_restart] with each [Restart]'s outcome.
    The horizon is the caller's to honor. *)
val schedule :
  ?on_join:(string -> unit) ->
  ?on_restart:(string -> P2_runtime.Engine.restart_outcome -> unit) ->
  P2_runtime.Engine.t ->
  Chord.network ref ->
  start:float ->
  t ->
  unit

val pp_action : action Fmt.t
val pp : t Fmt.t

(** Replayable text form: a [horizon] header line followed by one
    action per line. [of_string] raises [Invalid_argument] on
    malformed input; blank lines and [#] comments are skipped. *)
val to_string : t -> string

val of_string : string -> t
