(** Hash tables keyed by strings, comparing keys with [String.equal].

    The hash function is [Hashtbl.hash], so bucket layout and
    [iter]/[fold] order are exactly those of a generic [Hashtbl.t]
    holding the same keys inserted in the same order. *)

include Hashtbl.S with type key = string

(** Tables keyed by an ordered pair of strings. *)
module Pair : Hashtbl.S with type key = string * string
