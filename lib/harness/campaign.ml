(** Campaign runner: boot → settle → inject a fault plan → judge →
    shrink failures. See campaign.mli. *)

module Engine = P2_runtime.Engine

type config = {
  nodes : int;
  settle : float;
  horizon : float;
  cooldown : float;
  loss_rate : float;
  reliable : bool;
  seminaive : bool;
  shards : int;
  sanitize : bool;
  trace_log : string option;
  extended_faults : bool;
  checkpoint : string option;
  checkpoint_interval : float;
  params : Chord.params;
  oracle : Oracle.config;
}

let default_config =
  {
    nodes = 8;
    settle = 120.;
    horizon = 120.;
    cooldown = 150.;
    loss_rate = 0.;
    reliable = true;
    seminaive = true;
    shards = 1;
    sanitize = false;
    trace_log = None;
    extended_faults = false;
    checkpoint = None;
    checkpoint_interval = 10.;
    params = Chord.default_params;
    oracle = Oracle.default_config;
  }

type stats = { tx : int; dropped : int; oracle : Oracle.stats }
type outcome = Pass | Fail of Oracle.violation list

type run = {
  seed : int;
  intensity : int;
  plan : Fault_plan.t;
  outcome : outcome;
  stats : stats;
}

let failed r = match r.outcome with Pass -> false | Fail _ -> true

let run_plan cfg ~seed ?(intensity = 0) ?after_settle ?on_done (plan : Fault_plan.t) =
  let engine =
    Engine.create ~seed ~loss_rate:cfg.loss_rate ~reliable:cfg.reliable ()
  in
  Engine.set_seminaive engine cfg.seminaive;
  Engine.set_shards engine cfg.shards;
  (* only ever turn the sanitizer ON: engines may already start
     sanitized via P2QL_SANITIZE *)
  if cfg.sanitize then Engine.set_sanitize engine true;
  (* One flight-recorder log per sweep cell, before boot so every node
     gets the shrunk spill-mode tracer window. *)
  Option.iter
    (fun dir ->
      Engine.set_trace_log engine
        (Filename.concat dir (Fmt.str "seed%d-i%d" seed intensity)))
    cfg.trace_log;
  (* Durable checkpoints, one cell directory per (seed, intensity) —
     wiped first so repeated runs (and every shrink attempt) start
     from the same empty disk and stay deterministic. *)
  Option.iter
    (fun dir ->
      let cell = Filename.concat dir (Fmt.str "seed%d-i%d" seed intensity) in
      Framed.rm_rf cell;
      Engine.set_checkpoint engine
        ~config:
          { Checkpoint.default_config with interval = cfg.checkpoint_interval }
        cell)
    cfg.checkpoint;
  let net = ref (Chord.boot ~params:cfg.params engine cfg.nodes) in
  Engine.run_until engine cfg.settle;
  Option.iter (fun f -> f engine) after_settle;
  let oracle = Oracle.install engine ~get_net:(fun () -> !net) ~seed cfg.oracle in
  let t0 = Engine.now engine in
  let network = Engine.network engine in
  let tx0 = Sim.Network.tx_count network in
  let drop0 = Sim.Network.drop_count network in
  Fault_plan.schedule ~on_join:(Oracle.on_join oracle) engine net ~start:t0 plan;
  Engine.run_until engine (t0 +. plan.Fault_plan.horizon +. cfg.cooldown);
  let violations, ostats = Oracle.finalize oracle in
  (* After the verdict is sealed: a stats dump here cannot perturb the
     run, so hooks may read (but should not advance) the engine. *)
  Option.iter (fun f -> f engine) on_done;
  Engine.close_trace_logs engine;
  Engine.close_checkpoints engine;
  {
    seed;
    intensity;
    plan;
    outcome = (if violations = [] then Pass else Fail violations);
    stats =
      {
        tx = Sim.Network.tx_count network - tx0;
        dropped = Sim.Network.drop_count network - drop0;
        oracle = ostats;
      };
  }

(* Mix seed and intensity into one plan-RNG seed so every cell of a
   sweep gets an independent schedule. *)
let plan_rng ~seed ~intensity = Sim.Rng.create ((seed * 65599) + intensity)

let plan_of_seed cfg ~seed ~intensity =
  let addrs = List.init cfg.nodes (Fmt.str "n%d") in
  Fault_plan.generate ~extended:cfg.extended_faults
    ~rng:(plan_rng ~seed ~intensity)
    ~addrs ~horizon:cfg.horizon ~intensity ()

let run_seed cfg ~seed ~intensity ?after_settle ?on_done () =
  run_plan cfg ~seed ~intensity ?after_settle ?on_done
    (plan_of_seed cfg ~seed ~intensity)

let sweep cfg ~seeds ~intensities ?after_settle ?on_done () =
  List.concat_map
    (fun seed ->
      List.map
        (fun intensity -> run_seed cfg ~seed ~intensity ?after_settle ?on_done ())
        intensities)
    seeds

(* --- shrinking --- *)

let shrink cfg ~seed plan0 =
  (* Shrinking re-executes the same (seed, intensity) cell dozens of
     times; recording those would pile every attempt into one log. *)
  let cfg = { cfg with trace_log = None } in
  let attempts = ref 0 in
  let fails p =
    incr attempts;
    failed (run_plan cfg ~seed p)
  in
  (* greedy single-action removal, to fixpoint *)
  let rec drop_pass p =
    let rec try_i i p changed =
      if i >= Fault_plan.length p then (p, changed)
      else
        let candidate = Fault_plan.remove p i in
        if fails candidate then try_i i candidate true
        else try_i (i + 1) p changed
    in
    let p', changed = try_i 0 p false in
    if changed then drop_pass p' else p'
  in
  let p = drop_pass plan0 in
  (* narrow the observation window to just past the last action *)
  let p =
    let c = Fault_plan.truncate p in
    if c.Fault_plan.horizon < p.Fault_plan.horizon && fails c then c else p
  in
  (* pull actions earlier: halve times while the failure reproduces *)
  let rec time_pass p =
    let rec try_i i p changed =
      if i >= Fault_plan.length p then (p, changed)
      else
        let c = Fault_plan.scale_time p i in
        if c <> p && fails c then try_i i c true
        else try_i (i + 1) p changed
    in
    let p', changed = try_i 0 p false in
    if changed then time_pass p' else p'
  in
  (time_pass p, !attempts)

(* --- reporting --- *)

let pp_outcome ppf = function
  | Pass -> Fmt.string ppf "PASS"
  | Fail vs -> Fmt.pf ppf "FAIL(%d)" (List.length vs)

let pp_run ppf r =
  let o = r.stats.oracle in
  Fmt.pf ppf
    "seed=%-4d intensity=%d actions=%-2d %a tx=%-6d drop=%-5d unhealthy=%d/%d alarms=%-3d probes=%d/%d wrong=%d"
    r.seed r.intensity (Fault_plan.length r.plan) pp_outcome r.outcome
    r.stats.tx r.stats.dropped o.Oracle.unhealthy_checks o.Oracle.checks
    o.Oracle.alarms o.Oracle.probes_answered o.Oracle.probes_issued
    o.Oracle.probes_wrong

let pp_report ppf runs =
  List.iter (fun r -> Fmt.pf ppf "%a@." pp_run r) runs;
  List.iter
    (fun r ->
      match r.outcome with
      | Pass -> ()
      | Fail vs ->
          Fmt.pf ppf "@.seed=%d intensity=%d failed:@." r.seed r.intensity;
          List.iter (fun v -> Fmt.pf ppf "  %a@." Oracle.pp_violation v) vs;
          Fmt.pf ppf "plan:@.%a" Fault_plan.pp r.plan)
    runs;
  let total = List.length runs in
  let passed = List.length (List.filter (fun r -> not (failed r)) runs) in
  Fmt.pf ppf "@.%d/%d runs passed@." passed total
