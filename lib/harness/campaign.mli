(** Deterministic fault-injection campaigns over the simulated Chord
    deployment: boot, settle, inject a {!Fault_plan}, judge with the
    {!Oracle}, and on failure shrink the plan to a minimal reproducing
    schedule.

    Everything is a pure function of [(config, seed, plan)]: running
    the same campaign twice yields bit-for-bit identical verdicts,
    stats and reports. *)

type config = {
  nodes : int;  (** ring size at boot *)
  settle : float;  (** virtual seconds to converge before faults *)
  horizon : float;  (** fault-window length *)
  cooldown : float;
      (** post-window observation (must exceed the oracle's heal
          window, or healing can't be distinguished from failure) *)
  loss_rate : float;
      (** uniform message loss for the whole run, boot included —
          the eventual-delivery sweep ([p2ql campaign --loss]) *)
  reliable : bool;
      (** reliable transport on (default) or ablated
          ([Engine.set_reliable false]) — the loss sweep's control *)
  seminaive : bool;
      (** semi-naive delta evaluation with cross-node delta batching
          (default) or the naive re-enumeration ablation
          ([Engine.set_seminaive false]) *)
  shards : int;
      (** shard count of the round/barrier event loop (default 1;
          [Engine.set_shards]) — every count yields the same
          bit-for-bit verdicts *)
  sanitize : bool;
      (** effect-discipline sanitizer ([Engine.set_sanitize]): direct
          mutation of barrier-owned engine state during a shard drain
          raises [Engine.Discipline_violation]. Off (default) unless
          [P2QL_SANITIZE] forces it; purely a checking layer, verdicts
          are identical either way *)
  trace_log : string option;
      (** flight recorder ([Engine.set_trace_log]): when set, every
          run writes its segment log under
          [DIR/seed<seed>-i<intensity>/<addr>/], sealed once the
          verdict lands — failing cells can then be investigated with
          [p2ql replay] without re-running the campaign. Shrinking
          never records ([None]: off) *)
  extended_faults : bool;
      (** widen generated plans with [Partition]/[Heal_partition] and
          [Crash]/[Restart] pairs ([Fault_plan.generate ~extended]).
          Off (default) keeps the classic alphabet and its exact seeded
          draw sequence *)
  checkpoint : string option;
      (** durable checkpoints ([Engine.set_checkpoint]): when set,
          every run snapshots hard state under
          [DIR/seed<seed>-i<intensity>/<addr>/] and [Restart] actions
          recover from the newest intact snapshot (cold rejoin through
          the landmark otherwise). The cell directory is wiped at the
          start of each run, so re-runs — including every shrink
          attempt, which keeps checkpointing on to preserve recovery
          semantics — stay deterministic *)
  checkpoint_interval : float;
      (** virtual seconds between snapshots (default 10) *)
  params : Chord.params;
  oracle : Oracle.config;
}

val default_config : config

type stats = {
  tx : int;  (** network sends during fault window + cooldown *)
  dropped : int;
  oracle : Oracle.stats;
}

type outcome = Pass | Fail of Oracle.violation list

type run = {
  seed : int;
  intensity : int;
  plan : Fault_plan.t;
  outcome : outcome;
  stats : stats;
}

val failed : run -> bool

(** Execute one explicit plan. [intensity] only labels the report.
    [after_settle] runs once the ring has settled, before the oracle is
    armed — the hook for installing extra monitoring programs that must
    live through the fault window. [on_done] runs after the oracle
    verdict is sealed, with the settled engine — the hook for stats
    dumps ([P2_runtime.P2stats.to_json]); it cannot perturb the
    verdict. *)
val run_plan :
  config ->
  seed:int ->
  ?intensity:int ->
  ?after_settle:(P2_runtime.Engine.t -> unit) ->
  ?on_done:(P2_runtime.Engine.t -> unit) ->
  Fault_plan.t ->
  run

(** Generate the plan for [(seed, intensity)] and run it. The plan RNG
    is derived from both, so every cell of a sweep differs. *)
val run_seed :
  config ->
  seed:int ->
  intensity:int ->
  ?after_settle:(P2_runtime.Engine.t -> unit) ->
  ?on_done:(P2_runtime.Engine.t -> unit) ->
  unit ->
  run

(** The plan {!run_seed} would execute (for display / replay). *)
val plan_of_seed : config -> seed:int -> intensity:int -> Fault_plan.t

(** Sweep seeds × intensity levels; results in sweep order. [on_done]
    is passed to every run. *)
val sweep :
  config ->
  seeds:int list ->
  intensities:int list ->
  ?after_settle:(P2_runtime.Engine.t -> unit) ->
  ?on_done:(P2_runtime.Engine.t -> unit) ->
  unit ->
  run list

(** Shrink a failing plan to a minimal reproducing schedule: greedy
    single-action removal to fixpoint, then horizon truncation and
    action-time halving. Returns the shrunk plan and the number of
    re-executions spent. The result still fails under [seed]. *)
val shrink : config -> seed:int -> Fault_plan.t -> Fault_plan.t * int

(** One line per run: seed, intensity, verdict, stats. *)
val pp_run : run Fmt.t

(** Full report: per-run lines, violations of failing runs, summary. *)
val pp_report : run list Fmt.t
