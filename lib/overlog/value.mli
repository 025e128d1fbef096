(** Runtime values carried in OverLog tuple fields. *)

type t =
  | VInt of int
  | VFloat of float
  | VStr of string
  | VBool of bool
  | VId of int  (** ring identifier, normalized into [0, Ring.space) *)
  | VAddr of string  (** node address *)
  | VList of t list
  | VNull

(** Circular identifier space arithmetic (Chord-style). All interval
    tests walk clockwise from the first bound; a degenerate interval
    with equal bounds covers the whole ring (open) or the single point
    (closed), following Chord's conventions. *)
module Ring : sig
  val bits : int
  val space : int

  (** Normalize into [0, space). *)
  val norm : int -> int

  (** Clockwise distance from the first to the second identifier. *)
  val distance : int -> int -> int

  val between_oo : int -> int -> int -> bool
  val between_oc : int -> int -> int -> bool
  val between_co : int -> int -> int -> bool
  val between_cc : int -> int -> int -> bool
end

(** Structural equality. Strings and addresses compare equal when their
    text matches (program constants are strings, runtime locations are
    addresses); ints, ids and floats cross-compare numerically. *)
val equal : t -> t -> bool

(** Total order consistent with {!equal}. *)
val compare : t -> t -> int

val pp : t Fmt.t
val to_string : t -> string

(** Rough heap/wire size estimate in bytes, used by the memory proxy. *)
val size_bytes : t -> int

(** Datalog truthiness: [false], [null] and [0] are false. *)
val truthy : t -> bool

(** Accessors; raise [Invalid_argument] on type mismatch. [as_addr]
    and [as_string] accept both strings and addresses. *)

val as_int : t -> int
val as_float : t -> float
val as_string : t -> string
val as_addr : t -> string
val as_bool : t -> bool
val as_list : t -> t list

val hash : t -> int

(** Structural hash consistent with {!equal}: equal values (including
    the int/id/float and string/address cross-equalities) hash the
    same. *)
val hash_key : t -> int

(** Hash of a value list under {!hash_key} — an allocation-free group
    key for aggregate evaluation (collisions must be resolved with
    {!equal}). *)
val hash_values : t list -> int

(** Canonical key text: values that are {!equal} map to the same
    string (used for primary-key identity in tables). Ints, ring ids
    and integral floats within ±2^53 share one numeric form. *)
val canonical_key : t -> string
