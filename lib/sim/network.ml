(** Network model: point-to-point messaging with per-channel FIFO
    delivery, configurable latency/jitter, and fault injection (message
    loss, link cuts, node crashes).

    FIFO per channel is a hard requirement of the paper's
    Chandy–Lamport snapshot implementation (§3.3), so delivery times on
    one channel are forced monotone even with latency jitter. *)

type fate = Deliver of float  (** delivery time *) | Drop of string  (** reason *)

type t = {
  rng : Rng.t;
  mutable base_latency : float;
  mutable jitter : float;  (** uniform extra in [0, jitter) *)
  mutable loss_rate : float;
  last_delivery : float ref Strtbl.Pair.t;
      (* per-channel FIFO floor, updated in place: one lookup a send *)
  cut_links : unit Strtbl.Pair.t;
  crashed : unit Strtbl.t;
  mutable tx_count : int;
  mutable drop_count : int;
}

let create ?(base_latency = 0.01) ?(jitter = 0.005) ?(loss_rate = 0.) rng =
  {
    rng;
    base_latency;
    jitter;
    loss_rate;
    last_delivery = Strtbl.Pair.create 64;
    cut_links = Strtbl.Pair.create 8;
    crashed = Strtbl.create 8;
    tx_count = 0;
    drop_count = 0;
  }

let set_latency t ~base ~jitter =
  t.base_latency <- base;
  t.jitter <- jitter

let set_loss_rate t rate = t.loss_rate <- rate

let cut_link t ~src ~dst = Strtbl.Pair.replace t.cut_links (src, dst) ()
let heal_link t ~src ~dst = Strtbl.Pair.remove t.cut_links (src, dst)

let crash t node = Strtbl.replace t.crashed node ()
let recover t node = Strtbl.remove t.crashed node
(* Asked on every send and delivery; fault-free runs keep the table
   empty, so skip the lookup then. *)
let is_crashed t node = Strtbl.length t.crashed > 0 && Strtbl.mem t.crashed node

(** Purge every row that mentions [node]: FIFO floors, link cuts, and
    crash state. Used when a node is retired so the tables don't leak
    across long churn campaigns. *)
let forget t node =
  let stale tbl =
    Strtbl.Pair.fold
      (fun ((src, dst) as k) _ acc ->
        if String.equal src node || String.equal dst node then k :: acc else acc)
      tbl []
  in
  List.iter (Strtbl.Pair.remove t.last_delivery) (stale t.last_delivery);
  List.iter (Strtbl.Pair.remove t.cut_links) (stale t.cut_links);
  Strtbl.remove t.crashed node

(** Decide the fate of a message sent from [src] to [dst] at [now]. *)
let send t ~now ~src ~dst =
  t.tx_count <- t.tx_count + 1;
  if is_crashed t src then begin
    t.drop_count <- t.drop_count + 1;
    Drop "source crashed"
  end
  else if is_crashed t dst then begin
    t.drop_count <- t.drop_count + 1;
    Drop "destination crashed"
  end
  else if Strtbl.Pair.length t.cut_links > 0 && Strtbl.Pair.mem t.cut_links (src, dst)
  then begin
    t.drop_count <- t.drop_count + 1;
    Drop "link cut"
  end
  else if t.loss_rate > 0. && Rng.float t.rng < t.loss_rate then begin
    t.drop_count <- t.drop_count + 1;
    Drop "random loss"
  end
  else begin
    let latency =
      if String.equal src dst then 0.
      else t.base_latency +. (t.jitter *. Rng.float t.rng)
    in
    let naive = now +. latency in
    match Strtbl.Pair.find_opt t.last_delivery (src, dst) with
    | Some last ->
        let when_ = Float.max naive (!last +. 1e-9) in
        last := when_;
        Deliver when_
    | None ->
        let when_ = Float.max naive 0. in
        Strtbl.Pair.replace t.last_delivery (src, dst) (ref when_);
        Deliver when_
  end

let tx_count t = t.tx_count
let drop_count t = t.drop_count
