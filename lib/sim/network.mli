(** Network model: point-to-point messaging with per-channel FIFO
    delivery (required by Chandy–Lamport), configurable latency and
    jitter, and fault injection. *)

type t

type fate = Deliver of float  (** delivery time *) | Drop of string  (** reason *)

(** One (src, dst) channel. There is one link per pair, created on
    first use and kept in the network's table until {!forget}, so the
    FIFO floor survives the sender's transport being rebuilt. *)
type link = private {
  src : string;
  dst : string;
  self : bool;  (** [src = dst]: no latency *)
  mutable floor : float;
      (** the delivery time of the message last accepted on the link,
          which the next one may not precede *)
  mutable inflight : int;  (** accepted and not yet {!arrived} *)
  mutable cut : bool;
  mutable epoch : int;
      (** bumped to void every message in flight on the link: a
          message whose epoch at send no longer matches is dropped at
          delivery *)
}

(** A sender's reference to the (src, dst) link that may not be
    resolved yet. Making one touches no shared state; {!resolve} looks
    the link up (creating it on first use) and caches it, so only the
    first send on a handle pays a table lookup. *)
type handle

val create : ?base_latency:float -> ?jitter:float -> ?loss_rate:float -> Rng.t -> t
val set_latency : t -> base:float -> jitter:float -> unit
val set_loss_rate : t -> float -> unit
val cut_link : t -> src:string -> dst:string -> unit
val heal_link : t -> src:string -> dst:string -> unit
val crash : t -> string -> unit
val recover : t -> string -> unit
val is_crashed : t -> string -> bool

val find_link : t -> src:string -> dst:string -> link option

val handle : src:string -> dst:string -> handle

(** The handle's link, looked up or created on first use and then
    cached. Writes the shared pair table the first time: call it only
    where no other domain touches the network. *)
val resolve : t -> handle -> link

(** The cached link, [None] until the handle was first resolved. *)
val resolved : handle -> link option

(** Every (src, dst) pair with a link, sorted. *)
val links : t -> (string * string) list

(** Drop every link that names a retired address — FIFO floors, link
    cuts, in-flight counts — bumping each one's epoch, and its crash
    flag. *)
val forget : t -> string -> unit

(** Bump the epoch of every link into an address, voiding what is in
    flight toward it; the links and their FIFO floors stay. *)
val expire_into : t -> string -> unit

(** Decide the fate of a message on a link sent at [now]: [true] when
    the network accepted it, due at the link's new [floor], and counted
    it in flight; [false] when it was dropped. Delivery times on one
    link are forced monotone. *)
val transmit : t -> now:float -> link -> bool

(** Mark one accepted message as no longer in flight. *)
val arrived : link -> unit

(** [transmit] on the (src, dst) link, for host code and tests. *)
val send : t -> now:float -> src:string -> dst:string -> fate

(** Messages accepted on (src, dst) and not yet arrived. *)
val inflight : t -> src:string -> dst:string -> int

(** The same, summed over every link out of [src]. *)
val inflight_from : t -> string -> int

val tx_count : t -> int
val drop_count : t -> int
