(** Network model: point-to-point messaging with per-channel FIFO
    delivery, configurable latency/jitter, and fault injection (message
    loss, link cuts, node crashes).

    FIFO per channel is a hard requirement of the paper's
    Chandy–Lamport snapshot implementation (§3.3), so delivery times on
    one channel are forced monotone even with latency jitter.

    Each (src, dst) channel is one {!link} record, created on first use
    and kept in the network's pair table, so its FIFO floor outlives
    the transports that send on it (a restarted node's new channels
    find the old floor). Senders hold a {!handle} and resolve it once;
    after that a send touches no table. A message carries its link's
    epoch from the send; bumping the epoch voids every message then in
    flight on the link. *)

type fate = Deliver of float  (** delivery time *) | Drop of string  (** reason *)

type link = {
  src : string;
  dst : string;
  self : bool;
  mutable floor : float;  (* [neg_infinity] before the first message *)
  mutable inflight : int;
  mutable cut : bool;
  mutable epoch : int;
}

type handle = { hsrc : string; hdst : string; mutable link : link option }

type t = {
  rng : Rng.t;
  mutable base_latency : float;
  mutable jitter : float;  (** uniform extra in [0, jitter) *)
  mutable loss_rate : float;
  links : link Strtbl.Pair.t;
  outgoing : link list Strtbl.t;  (* src -> its links, newest first *)
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
    links = Strtbl.Pair.create 64;
    outgoing = Strtbl.create 64;
    crashed = Strtbl.create 8;
    tx_count = 0;
    drop_count = 0;
  }

let set_latency t ~base ~jitter =
  t.base_latency <- base;
  t.jitter <- jitter

let set_loss_rate t rate = t.loss_rate <- rate

let find_link t ~src ~dst = Strtbl.Pair.find_opt t.links (src, dst)

let link t ~src ~dst =
  match find_link t ~src ~dst with
  | Some l -> l
  | None ->
      let l =
        { src; dst; self = String.equal src dst; floor = neg_infinity; inflight = 0;
          cut = false; epoch = 0 }
      in
      Strtbl.Pair.replace t.links (src, dst) l;
      Strtbl.replace t.outgoing src
        (l :: Option.value (Strtbl.find_opt t.outgoing src) ~default:[]);
      l

let handle ~src ~dst = { hsrc = src; hdst = dst; link = None }

let resolve t h =
  match h.link with
  | Some l -> l
  | None ->
      let l = link t ~src:h.hsrc ~dst:h.hdst in
      h.link <- Some l;
      l

let resolved h = h.link

let links t =
  Strtbl.Pair.fold (fun k _ acc -> k :: acc) t.links [] |> List.sort compare

let cut_link t ~src ~dst = (link t ~src ~dst).cut <- true

let heal_link t ~src ~dst =
  Option.iter (fun l -> l.cut <- false) (find_link t ~src ~dst)

let crash t node = Strtbl.replace t.crashed node ()
let recover t node = Strtbl.remove t.crashed node
(* Asked on every send and delivery; fault-free runs keep the table
   empty, so skip the lookup then. *)
let is_crashed t node = Strtbl.length t.crashed > 0 && Strtbl.mem t.crashed node

let expire_into t node =
  Strtbl.Pair.iter (fun _ l -> if String.equal l.dst node then l.epoch <- l.epoch + 1) t.links

(** Drop every link that names [node] (FIFO floors, link cuts,
    in-flight counts), voiding what is in flight on them, and its crash
    state. Used when a node is retired so the tables don't leak across
    long churn campaigns. *)
let forget t node =
  let stale =
    Strtbl.Pair.fold
      (fun _ l acc -> if String.equal l.src node || String.equal l.dst node then l :: acc else acc)
      t.links []
  in
  List.iter
    (fun l ->
      l.epoch <- l.epoch + 1;
      Strtbl.Pair.remove t.links (l.src, l.dst);
      match Strtbl.find_opt t.outgoing l.src with
      | Some ls when not (String.equal l.src node) ->
          Strtbl.replace t.outgoing l.src (List.filter (fun l' -> l' != l) ls)
      | _ -> ())
    stale;
  Strtbl.remove t.outgoing node;
  Strtbl.remove t.crashed node

(* Decide the fate of a message on [l] at [now]: [None] when accepted
   (its delivery time is then [l.floor]), else the drop reason. *)
let verdict t ~now l =
  t.tx_count <- t.tx_count + 1;
  if is_crashed t l.src then begin
    t.drop_count <- t.drop_count + 1;
    Some "source crashed"
  end
  else if is_crashed t l.dst then begin
    t.drop_count <- t.drop_count + 1;
    Some "destination crashed"
  end
  else if l.cut then begin
    t.drop_count <- t.drop_count + 1;
    Some "link cut"
  end
  else if t.loss_rate > 0. && Rng.float t.rng < t.loss_rate then begin
    t.drop_count <- t.drop_count + 1;
    Some "random loss"
  end
  else begin
    let latency = if l.self then 0. else t.base_latency +. (t.jitter *. Rng.float t.rng) in
    let naive = now +. latency in
    l.floor <-
      (if l.floor = neg_infinity then Float.max naive 0.
       else Float.max naive (l.floor +. 1e-9));
    l.inflight <- l.inflight + 1;
    None
  end

let transmit t ~now l = Option.is_none (verdict t ~now l)
let arrived l = l.inflight <- l.inflight - 1

let send t ~now ~src ~dst =
  let l = link t ~src ~dst in
  match verdict t ~now l with None -> Deliver l.floor | Some reason -> Drop reason

let inflight t ~src ~dst =
  match find_link t ~src ~dst with Some l -> l.inflight | None -> 0

let inflight_from t src =
  match Strtbl.find_opt t.outgoing src with
  | Some ls -> List.fold_left (fun acc l -> acc + l.inflight) 0 ls
  | None -> 0

let tx_count t = t.tx_count
let drop_count t = t.drop_count
