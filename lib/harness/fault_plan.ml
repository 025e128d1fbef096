(** Timed fault schedules for deterministic injection campaigns.

    Generation is a pure function of the RNG stream handed in, so a
    campaign run is reproducible from its seed alone; the interpreter
    adds no randomness of its own. The text form is the replay
    artifact the shrinker prints: it must round-trip exactly (times
    are printed with enough digits to be re-read bit-for-bit). *)

type action =
  | Crash of string
  | Recover of string
  | Cut_link of string * string
  | Heal_link of string * string
  | Set_loss of float
  | Set_latency of float * float
  | Join of string
  | Leave of string
  | Corrupt_succ of string * string
  | Partition of string list
  | Heal_partition of string list
  | Restart of string

type timed = { time : float; action : action }

type t = { horizon : float; actions : timed list }

let make ~horizon actions =
  { horizon; actions = List.stable_sort (fun a b -> Float.compare a.time b.time) actions }
let empty horizon = make ~horizon []
let length p = List.length p.actions

let add p ~time action = make ~horizon:p.horizon ({ time; action } :: p.actions)

let remove p i = { p with actions = List.filteri (fun j _ -> j <> i) p.actions }

let truncate p =
  match List.rev p.actions with
  | [] -> { p with horizon = 0. }
  | last :: _ -> { p with horizon = Float.min p.horizon (last.time +. 1.) }

let scale_time p i =
  match List.nth_opt p.actions i with
  | None -> p
  | Some a ->
      let t' = if a.time <= 1. then 0. else a.time /. 2. in
      if t' = a.time then p
      else
        let actions =
          List.mapi (fun j b -> if j = i then { b with time = t' } else b) p.actions
        in
        make ~horizon:p.horizon actions

(* --- generation --- *)

let generate ?(extended = false) ~rng ~addrs ~horizon ~intensity () =
  if intensity <= 0 || addrs = [] then empty horizon
  else begin
    let landmark = List.hd addrs in
    let victims = List.filter (fun a -> a <> landmark) addrs in
    let pick l = List.nth l (Sim.Rng.int rng (List.length l)) in
    (* leave tail room so paired repairs land inside the window *)
    let start () = Sim.Rng.float rng *. horizon *. 0.7 in
    let repair_after t = Float.min horizon (t +. 5. +. (Sim.Rng.float rng *. horizon *. 0.25)) in
    let joins = ref 0 in
    let n_actions = intensity + Sim.Rng.int rng intensity in
    let acts = ref [] in
    let push time action = acts := { time; action } :: !acts in
    (* [extended] widens the action alphabet with partitions and
       crash-restarts without perturbing the classic 6-way draw
       sequence: a classic plan for (seed, intensity) is byte-identical
       whether or not this code exists. *)
    let arity = if extended then 8 else 6 in
    for _ = 1 to n_actions do
      let t = start () in
      match Sim.Rng.int rng arity with
      | 0 ->
          let v = pick victims in
          push t (Crash v);
          (* mostly transient: a recover follows 80% of the time *)
          if Sim.Rng.int rng 5 < 4 then push (repair_after t) (Recover v)
      | 1 ->
          let s = pick addrs and d = pick addrs in
          if s <> d then begin
            push t (Cut_link (s, d));
            push (repair_after t) (Heal_link (s, d))
          end
      | 2 ->
          let r = 0.02 *. float_of_int intensity *. (0.5 +. Sim.Rng.float rng) in
          push t (Set_loss (Float.min r 0.4));
          push (repair_after t) (Set_loss 0.)
      | 3 ->
          let base = 0.01 +. (0.02 *. float_of_int intensity *. Sim.Rng.float rng) in
          push t (Set_latency (base, base /. 2.));
          push (repair_after t) (Set_latency (0.01, 0.005))
      | 4 ->
          incr joins;
          push t (Join (Fmt.str "j%d" !joins))
      | 5 -> push t (Leave (pick victims))
      | 6 ->
          (* Bipartition: a victim subgroup is cut off from the rest of
             the network (the landmark always stays on the majority
             side, so the ring keeps its join anchor). Always paired
             with a heal — an unhealed partition makes convergence
             structurally impossible, which is a different experiment. *)
          let k = 1 + Sim.Rng.int rng (max 1 (List.length victims / 3)) in
          let group =
            List.init k (fun _ -> pick victims)
            |> List.sort_uniq compare
          in
          push t (Partition group);
          push (repair_after t) (Heal_partition group)
      | _ ->
          (* Crash-restart: fail-stop followed by a reboot that runs
             the recovery path (checkpoint restore or cold rejoin). *)
          let v = pick victims in
          push t (Crash v);
          push (repair_after t) (Restart v)
    done;
    make ~horizon (List.rev !acts)
  end

let plant_corruption ~rng ~addrs ~time plan =
  let landmark = List.hd addrs in
  let victims = List.filter (fun a -> a <> landmark) addrs in
  let victim = List.nth victims (Sim.Rng.int rng (List.length victims)) in
  let vid = Chord.id_of_addr victim in
  (* the farthest node clockwise: maximally wrong as a successor *)
  let target =
    List.filter (fun a -> a <> victim) addrs
    |> List.fold_left
         (fun best a ->
           match best with
           | Some b
             when Overlog.Value.Ring.distance vid (Chord.id_of_addr b)
                  >= Overlog.Value.Ring.distance vid (Chord.id_of_addr a) ->
               best
           | _ -> Some a)
         None
    |> Option.get
  in
  add plan ~time (Corrupt_succ (victim, target))

(* --- interpretation --- *)

module Engine = P2_runtime.Engine

(* The planted bug: pin [addr]'s bestSucc to [target] with a
   delta-triggered pump — any correction (stabilization, successor
   repair) re-fires the rule in the same engine event, so the
   corruption is visible at every oracle sample. [k] uniquifies the
   table / rule names across multiple plants in one run. *)
let apply_corruption engine addr target k =
  let s = Fmt.str "h%d" k in
  Engine.install engine addr
    (Fmt.str
       {|materialize(corruptTarget%s, infinity, 1, keys(1)).
ctseed%s corruptTarget%s@N(I, A) :- corruptEv%s@N(I, A).
ctpump%s bestSucc@N(I, A2) :- bestSucc@N(I0, A0), corruptTarget%s@N(I, A2), A0 != A2.|}
       s s s s s s);
  ignore
  @@ Engine.inject engine addr
       (Fmt.str "corruptEv%s" s)
       [ Overlog.Value.VId (Chord.id_of_addr target); Overlog.Value.VAddr target ]

let schedule ?(on_join = ignore) ?(on_restart = fun _ _ -> ()) engine net ~start
    plan =
  let member a = List.mem a !net.Chord.addrs in
  let corrupt_k = ref 0 in
  (* Link cuts applied per partition group, so the matching heal undoes
     exactly what the cut did even if membership changed in between. *)
  let partition_cuts : (string, (string * string) list) Hashtbl.t =
    Hashtbl.create 4
  in
  let group_key g = String.concat "," (List.sort compare g) in
  (* Every action is guarded so a shrunk plan stays executable when its
     counterpart was removed (a Recover without the Crash, a Leave
     without the Join, ...). *)
  let apply = function
    | Crash a -> if member a then Engine.crash engine a
    | Recover a ->
        if member a && Engine.is_crashed engine a then Engine.recover engine a
    | Cut_link (s, d) -> Engine.cut_link engine ~src:s ~dst:d
    | Heal_link (s, d) -> Engine.heal_link engine ~src:s ~dst:d
    | Set_loss r -> Engine.set_loss_rate engine r
    | Set_latency (b, j) -> Engine.set_latency engine ~base:b ~jitter:j
    | Join a ->
        if not (member a) then begin
          net := Chord.join !net a;
          on_join a
        end
    | Leave a -> if member a && a <> !net.Chord.landmark then net := Chord.leave !net a
    | Corrupt_succ (n, target) ->
        if member n && not (Engine.is_crashed engine n) then begin
          incr corrupt_k;
          apply_corruption engine n target !corrupt_k
        end
    | Partition group ->
        let members = List.filter member group in
        let rest = List.filter (fun a -> not (List.mem a members)) !net.Chord.addrs in
        if members <> [] && rest <> [] then begin
          let cuts = List.concat_map (fun m -> List.map (fun r -> (m, r)) rest) members in
          List.iter
            (fun (m, r) ->
              Engine.cut_link engine ~src:m ~dst:r;
              Engine.cut_link engine ~src:r ~dst:m)
            cuts;
          Hashtbl.replace partition_cuts (group_key group) cuts
        end
    | Heal_partition group -> (
        match Hashtbl.find_opt partition_cuts (group_key group) with
        | Some cuts ->
            List.iter
              (fun (m, r) ->
                Engine.heal_link engine ~src:m ~dst:r;
                Engine.heal_link engine ~src:r ~dst:m)
              cuts;
            Hashtbl.remove partition_cuts (group_key group)
        | None -> ())
    | Restart a ->
        if member a && Option.is_some (Engine.node_opt engine a) then begin
          let outcome = Engine.restart engine a in
          on_restart a outcome;
          (* A cold reboot has programs and boot facts back (the engine
             replays them) but no successor state, and Chord's j6
             self-heal needs an existing bestSucc row — re-seed the
             join protocol explicitly. *)
          match outcome.Engine.recovered_from with
          | `Cold -> Chord.rejoin !net a
          | `Checkpoint _ -> ()
        end
  in
  List.iter
    (fun { time; action } ->
      Engine.at engine ~time:(start +. time) (fun () -> apply action))
    plan.actions

(* --- text form --- *)

let pp_action ppf = function
  | Crash a -> Fmt.pf ppf "crash %s" a
  | Recover a -> Fmt.pf ppf "recover %s" a
  | Cut_link (s, d) -> Fmt.pf ppf "cut %s %s" s d
  | Heal_link (s, d) -> Fmt.pf ppf "heal %s %s" s d
  | Set_loss r -> Fmt.pf ppf "loss %.17g" r
  | Set_latency (b, j) -> Fmt.pf ppf "latency %.17g %.17g" b j
  | Join a -> Fmt.pf ppf "join %s" a
  | Leave a -> Fmt.pf ppf "leave %s" a
  | Corrupt_succ (n, t) -> Fmt.pf ppf "corrupt-succ %s %s" n t
  | Partition g -> Fmt.pf ppf "partition %s" (String.concat "," g)
  | Heal_partition g -> Fmt.pf ppf "heal-partition %s" (String.concat "," g)
  | Restart a -> Fmt.pf ppf "restart %s" a

let pp ppf p =
  Fmt.pf ppf "horizon %.17g@." p.horizon;
  List.iter (fun { time; action } -> Fmt.pf ppf "%.17g %a@." time pp_action action) p.actions

let to_string p = Fmt.str "%a" pp p

let of_string text =
  let bad line = invalid_arg (Fmt.str "Fault_plan.of_string: bad line %S" line) in
  let fl line s = try float_of_string s with _ -> bad line in
  let parse_line (horizon, acts) line =
    let words =
      String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> (horizon, acts)
    | w :: _ when String.length w > 0 && w.[0] = '#' -> (horizon, acts)
    | [ "horizon"; h ] -> (Some (fl line h), acts)
    | t :: rest ->
        let time = fl line t in
        let action =
          match rest with
          | [ "crash"; a ] -> Crash a
          | [ "recover"; a ] -> Recover a
          | [ "cut"; s; d ] -> Cut_link (s, d)
          | [ "heal"; s; d ] -> Heal_link (s, d)
          | [ "loss"; r ] -> Set_loss (fl line r)
          | [ "latency"; b; j ] -> Set_latency (fl line b, fl line j)
          | [ "join"; a ] -> Join a
          | [ "leave"; a ] -> Leave a
          | [ "corrupt-succ"; n; tg ] -> Corrupt_succ (n, tg)
          | [ "partition"; g ] ->
              Partition (String.split_on_char ',' g |> List.filter (fun a -> a <> ""))
          | [ "heal-partition"; g ] ->
              Heal_partition
                (String.split_on_char ',' g |> List.filter (fun a -> a <> ""))
          | [ "restart"; a ] -> Restart a
          | _ -> bad line
        in
        (horizon, { time; action } :: acts)
  in
  let horizon, acts =
    List.fold_left parse_line (None, []) (String.split_on_char '\n' text)
  in
  match horizon with
  | None -> invalid_arg "Fault_plan.of_string: missing horizon line"
  | Some horizon -> make ~horizon (List.rev acts)
