(** Runtime values carried in OverLog tuple fields.

    Values are immutable. Ring identifiers ([VId]) live in the circular
    identifier space [0, Ring.space) and support the modular interval
    tests that Chord-style programs rely on ([K in (A, B]] etc.). *)

type t =
  | VInt of int
  | VFloat of float
  | VStr of string
  | VBool of bool
  | VId of int  (** ring identifier in [0, Ring.space) *)
  | VAddr of string  (** node address, e.g. "n3" or "10.0.0.1:1024" *)
  | VList of t list
  | VNull

(** Circular identifier space arithmetic. *)
module Ring = struct
  (* 31-bit space: big enough to make collisions negligible in tests,
     small enough that all arithmetic stays within native ints. *)
  let bits = 31
  let space = 1 lsl bits

  let norm i = ((i mod space) + space) mod space

  (* Clockwise distance from [a] to [b]. *)
  let distance a b = norm (b - a)

  (* [between_oo a b x]: x in (a, b) on the ring, where the interval is
     traversed clockwise from a to b. When a = b the open interval is
     the whole ring minus {a} (Chord convention). *)
  let between_oo a b x =
    let a = norm a and b = norm b and x = norm x in
    if a = b then x <> a else distance a x > 0 && distance a x < distance a b

  let between_oc a b x =
    let a = norm a and b = norm b and x = norm x in
    if a = b then true else distance a x > 0 && distance a x <= distance a b

  let between_co a b x =
    let a = norm a and b = norm b and x = norm x in
    if a = b then true else distance a x < distance a b

  let between_cc a b x =
    let a = norm a and b = norm b and x = norm x in
    if a = b then x = a else distance a x <= distance a b
end

let rec equal v1 v2 =
  match (v1, v2) with
  | VInt a, VInt b -> a = b
  | VFloat a, VFloat b -> a = b
  | VStr a, VStr b -> String.equal a b
  | VBool a, VBool b -> a = b
  | VId a, VId b -> Ring.norm a = Ring.norm b
  | VAddr a, VAddr b -> String.equal a b
  | VList a, VList b -> List.length a = List.length b && List.for_all2 equal a b
  | VNull, VNull -> true
  (* Numeric cross-comparison: ints and ids compare by numeric value so
     that rules may mix them (`NID < SID` where one side came from a
     constant). The id is read on the ring, as [compare] reads it. *)
  | VInt a, VId b | VId b, VInt a -> a = Ring.norm b
  | VInt a, VFloat b | VFloat b, VInt a -> float_of_int a = b
  | VId a, VFloat b | VFloat b, VId a -> float_of_int (Ring.norm a) = b
  (* Program-text constants are strings; runtime locations are
     addresses. They must compare equal for rules like
     [PAddr != "-"] to work. *)
  | VStr a, VAddr b | VAddr a, VStr b -> String.equal a b
  | _ -> false

let rec compare v1 v2 =
  match (v1, v2) with
  | VInt a, VInt b -> Stdlib.compare a b
  | VFloat a, VFloat b -> Stdlib.compare a b
  | VStr a, VStr b -> String.compare a b
  | VBool a, VBool b -> Stdlib.compare a b
  | VId a, VId b -> Stdlib.compare (Ring.norm a) (Ring.norm b)
  | VAddr a, VAddr b -> String.compare a b
  | VList a, VList b -> List.compare compare a b
  | VNull, VNull -> 0
  | VInt a, VId b -> Stdlib.compare a (Ring.norm b)
  | VId a, VInt b -> Stdlib.compare (Ring.norm a) b
  | VInt a, VFloat b -> Stdlib.compare (float_of_int a) b
  | VFloat a, VInt b -> Stdlib.compare a (float_of_int b)
  | VId a, VFloat b -> Stdlib.compare (float_of_int (Ring.norm a)) b
  | VFloat a, VId b -> Stdlib.compare a (float_of_int (Ring.norm b))
  | VStr a, VAddr b | VAddr a, VStr b -> String.compare a b
  | _ -> Stdlib.compare (tag v1) (tag v2)

and tag = function
  | VInt _ -> 0
  | VFloat _ -> 1
  | VStr _ -> 2
  | VBool _ -> 3
  | VId _ -> 4
  | VAddr _ -> 5
  | VList _ -> 6
  | VNull -> 7

let rec pp ppf = function
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.float ppf f
  | VStr s -> Fmt.pf ppf "%S" s
  | VBool b -> Fmt.bool ppf b
  | VId i -> Fmt.pf ppf "#%d" (Ring.norm i)
  | VAddr a -> Fmt.string ppf a
  | VList vs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ", ") pp) vs
  | VNull -> Fmt.string ppf "null"

let to_string v = Fmt.str "%a" pp v

(* Rough wire/heap size estimate, used by the memory-accounting proxy
   (see DESIGN.md §3): a boxed word per field plus payload bytes. *)
let rec size_bytes = function
  | VInt _ | VBool _ | VId _ | VNull -> 8
  | VFloat _ -> 8
  | VStr s | VAddr s -> 24 + String.length s
  | VList vs -> 24 + List.fold_left (fun acc v -> acc + size_bytes v) 0 vs

let truthy = function
  | VBool b -> b
  | VNull -> false
  | VInt 0 -> false
  | _ -> true

(** Accessors raising [Invalid_argument] on type mismatch. *)

let as_int = function
  | VInt i -> i
  | VId i -> Ring.norm i
  | v -> invalid_arg (Fmt.str "Value.as_int: %a" pp v)

let as_float = function
  | VFloat f -> f
  | VInt i -> float_of_int i
  | v -> invalid_arg (Fmt.str "Value.as_float: %a" pp v)

let as_string = function
  | VStr s | VAddr s -> s
  | v -> invalid_arg (Fmt.str "Value.as_string: %a" pp v)

let as_addr = function
  | VAddr a -> a
  | VStr s -> s
  | v -> invalid_arg (Fmt.str "Value.as_addr: %a" pp v)

let as_bool = function
  | VBool b -> b
  | v -> invalid_arg (Fmt.str "Value.as_bool: %a" pp v)

let as_list = function
  | VList l -> l
  | v -> invalid_arg (Fmt.str "Value.as_list: %a" pp v)

let hash v = Hashtbl.hash (to_string v)

(* Structural hash consistent with [equal]: since [VInt 2], [VId 2] and
   [VFloat 2.] can all compare equal, every numeric value hashes through
   its float image (exact below 2^53; beyond that a collision just falls
   back to the equality check the caller must already perform). *)
let rec hash_key = function
  | VInt i -> Hashtbl.hash (float_of_int i)
  | VId i -> Hashtbl.hash (float_of_int (Ring.norm i))
  | VFloat f -> Hashtbl.hash f
  | VStr s | VAddr s -> Hashtbl.hash s
  | VBool b -> if b then 0x5bd1e995 else 0x27d4eb2f
  | VNull -> 0x1b873593
  | VList vs ->
      List.fold_left (fun acc v -> ((acc * 31) + hash_key v) land max_int) 0x61c88647 vs

(** Hash of a value list, usable as a group key: [equal]-wise equal
    lists hash identically. *)
let hash_values vs =
  List.fold_left (fun acc v -> ((acc * 31) + hash_key v) land max_int) 17 vs

(* Canonical key text: two values that are [equal] must map to the
   same string (primary-key identity in tables). Strings and addresses
   share a representation; ints, ring ids and integral floats (within
   ±2^53, where the float is exact) share the numeric one. *)
let rec canonical_key = function
  | VInt i -> "n:" ^ string_of_int i
  | VId i -> "n:" ^ string_of_int (Ring.norm i)
  | VFloat f when Float.is_integer f && Float.abs f <= 0x1p53 ->
      "n:" ^ string_of_int (int_of_float f)
  | VFloat f -> "f:" ^ string_of_float f
  | VStr s | VAddr s -> "s:" ^ s
  | VBool b -> if b then "b:1" else "b:0"
  | VList vs -> "l:[" ^ String.concat "" (List.map canonical_key vs) ^ "]"
  | VNull -> "null"
