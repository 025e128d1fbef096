(* Hash tables keyed by strings, the key type of every name- and
   address-indexed table on the event path. The stdlib's generic
   [Hashtbl] hashes and compares its keys polymorphically on every
   lookup; this instance compares with [String.equal].

   The hash is [Hashtbl.hash] itself, so a table here puts every key
   in the same bucket, in the same order, as the generic table it
   replaces: [iter] and [fold] visit keys in the same order, and
   seeded runs stay byte-identical. *)

include Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

(* Keyed by an ordered pair of strings, e.g. a (src, dst) link. *)
module Pair = Hashtbl.Make (struct
  type t = string * string

  let equal (a, b) (c, d) = String.equal a c && String.equal b d
  let hash (p : string * string) = Hashtbl.hash p
end)
