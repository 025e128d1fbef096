(* Values and ring-identifier arithmetic. *)

open Overlog

let v = Alcotest.testable Value.pp Value.equal

let test_equality () =
  Alcotest.check v "int" (Value.VInt 3) (Value.VInt 3);
  Alcotest.(check bool) "str/addr cross" true
    (Value.equal (Value.VStr "n1") (Value.VAddr "n1"));
  Alcotest.(check bool) "addr/str cross" true
    (Value.equal (Value.VAddr "n1") (Value.VStr "n1"));
  Alcotest.(check bool) "int/id cross" true (Value.equal (Value.VInt 5) (Value.VId 5));
  Alcotest.(check bool) "id normalization" true
    (Value.equal (Value.VId 5) (Value.VId (5 + Value.Ring.space)));
  Alcotest.(check bool) "different" false
    (Value.equal (Value.VInt 1) (Value.VStr "1"));
  Alcotest.(check bool) "lists" true
    (Value.equal
       (Value.VList [ Value.VInt 1; Value.VStr "a" ])
       (Value.VList [ Value.VInt 1; Value.VStr "a" ]))

(* An id past the ring is the id on the ring: [equal], [compare] and
   the canonical key must agree on it, whichever side the int is on. *)
let test_int_id_past_ring () =
  let i = Value.VInt 5 and id = Value.VId (5 + Value.Ring.space) in
  Alcotest.(check bool) "int = id" true (Value.equal i id);
  Alcotest.(check bool) "id = int" true (Value.equal id i);
  Alcotest.(check int) "compare agrees" 0 (Value.compare i id);
  Alcotest.(check string) "keys agree" (Value.canonical_key i) (Value.canonical_key id);
  Alcotest.(check bool) "the raw int is another value" false
    (Value.equal (Value.VInt (5 + Value.Ring.space)) (Value.VId 5))

let test_compare () =
  Alcotest.(check bool) "lt" true (Value.compare (Value.VInt 1) (Value.VInt 2) < 0);
  Alcotest.(check bool) "float/int" true
    (Value.compare (Value.VFloat 1.5) (Value.VInt 2) < 0);
  Alcotest.(check bool) "id compare normalized" true
    (Value.compare (Value.VId (Value.Ring.space + 1)) (Value.VId 2) < 0);
  Alcotest.(check bool) "equal is 0" true
    (Value.compare (Value.VStr "x") (Value.VStr "x") = 0)

let test_ring_basics () =
  let open Value.Ring in
  Alcotest.(check int) "norm negative" (space - 1) (norm (-1));
  Alcotest.(check int) "norm wrap" 3 (norm (space + 3));
  Alcotest.(check int) "distance forward" 5 (distance 10 15);
  Alcotest.(check int) "distance wrap" (space - 5) (distance 15 10)

let test_ring_intervals () =
  let open Value.Ring in
  (* plain interval *)
  Alcotest.(check bool) "oo inside" true (between_oo 10 20 15);
  Alcotest.(check bool) "oo excl lo" false (between_oo 10 20 10);
  Alcotest.(check bool) "oo excl hi" false (between_oo 10 20 20);
  Alcotest.(check bool) "oc incl hi" true (between_oc 10 20 20);
  Alcotest.(check bool) "co incl lo" true (between_co 10 20 10);
  Alcotest.(check bool) "cc both" true (between_cc 10 20 10 && between_cc 10 20 20);
  (* wrapped interval *)
  Alcotest.(check bool) "wrap inside high" true (between_oo 20 10 25);
  Alcotest.(check bool) "wrap inside low" true (between_oo 20 10 5);
  Alcotest.(check bool) "wrap outside" false (between_oo 20 10 15);
  (* degenerate a = b: whole ring (Chord convention) *)
  Alcotest.(check bool) "oo a=b excludes a" false (between_oo 7 7 7);
  Alcotest.(check bool) "oo a=b includes rest" true (between_oo 7 7 8);
  Alcotest.(check bool) "oc a=b everything" true (between_oc 7 7 123);
  Alcotest.(check bool) "cc a=b only a" true (between_cc 7 7 7);
  Alcotest.(check bool) "cc a=b not rest" false (between_cc 7 7 8)

(* Property: x in (a,b] iff distance(a,x) in (0, distance(a,b)] — and
   complements partition the ring. *)
let prop_interval_partition =
  QCheck.Test.make ~name:"ring interval partition" ~count:500
    QCheck.(triple (int_bound (Value.Ring.space - 1)) (int_bound (Value.Ring.space - 1))
              (int_bound (Value.Ring.space - 1)))
    (fun (a, b, x) ->
      QCheck.assume (a <> b);
      let open Value.Ring in
      (* every x != a and x != b lies in exactly one of (a,b) and (b,a) *)
      if x = a || x = b then true
      else Bool.not (between_oo a b x) = between_oo b a x)

let prop_oc_co_duality =
  QCheck.Test.make ~name:"oc/co duality" ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, x) ->
      let open Value.Ring in
      (* x in (a,b] iff x not in (b... complement: (a,b] and (b,a] partition ring minus nothing *)
      if norm a = norm b then true
      else Bool.not (between_oc a b x) = between_oc b a x || norm x = norm a || norm x = norm b)

let test_accessors () =
  Alcotest.(check int) "as_int id" 5 (Value.as_int (Value.VId 5));
  Alcotest.(check (float 1e-9)) "as_float int" 2.0 (Value.as_float (Value.VInt 2));
  Alcotest.(check string) "as_addr str" "n1" (Value.as_addr (Value.VStr "n1"));
  Alcotest.check_raises "as_int str" (Invalid_argument "Value.as_int: \"x\"")
    (fun () -> ignore (Value.as_int (Value.VStr "x")))

let test_truthy () =
  Alcotest.(check bool) "false" false (Value.truthy (Value.VBool false));
  Alcotest.(check bool) "null" false (Value.truthy Value.VNull);
  Alcotest.(check bool) "zero" false (Value.truthy (Value.VInt 0));
  Alcotest.(check bool) "one" true (Value.truthy (Value.VInt 1));
  Alcotest.(check bool) "string" true (Value.truthy (Value.VStr ""))

let test_size_bytes () =
  Alcotest.(check bool) "int size" true (Value.size_bytes (Value.VInt 1) > 0);
  Alcotest.(check bool) "str grows" true
    (Value.size_bytes (Value.VStr "aaaaaaaaaa") > Value.size_bytes (Value.VStr "a"));
  Alcotest.(check bool) "list sums" true
    (Value.size_bytes (Value.VList [ Value.VInt 1; Value.VInt 2 ])
    > Value.size_bytes (Value.VList [ Value.VInt 1 ]))

let test_canonical_key () =
  let open Value in
  Alcotest.(check string) "str/addr collide" (canonical_key (VStr "x"))
    (canonical_key (VAddr "x"));
  Alcotest.(check string) "int/id collide" (canonical_key (VInt 5))
    (canonical_key (VId 5));
  Alcotest.(check string) "id normalized" (canonical_key (VId 5))
    (canonical_key (VId (5 + Ring.space)));
  Alcotest.(check string) "int/integral float collide" (canonical_key (VInt 1))
    (canonical_key (VFloat 1.));
  Alcotest.(check bool) "fractional float keeps its own form" true
    (canonical_key (VFloat 1.5) <> canonical_key (VInt 1));
  Alcotest.(check bool) "different values differ" true
    (canonical_key (VInt 1) <> canonical_key (VStr "1"));
  Alcotest.(check bool) "list nesting unambiguous" true
    (canonical_key (VList [ VStr "ab"; VStr "c" ])
    <> canonical_key (VList [ VStr "a"; VStr "bc" ]))

(* Property: equal values always share a canonical key. *)
let prop_equal_implies_same_key =
  let pairs =
    QCheck.Gen.(
      oneof
        [
          map (fun s -> (Value.VStr s, Value.VAddr s)) (string_size (int_bound 10));
          map (fun i -> (Value.VInt i, Value.VId i)) (int_bound (Value.Ring.space - 1));
          map (fun i -> (Value.VId i, Value.VId (i + Value.Ring.space)))
            (int_bound (Value.Ring.space - 1));
          map
            (fun i -> (Value.VInt i, Value.VFloat (float_of_int i)))
            (int_range (-(1 lsl 53)) (1 lsl 53));
          map (fun i -> (Value.VId i, Value.VFloat (float_of_int i)))
            (int_bound (Value.Ring.space - 1));
        ])
  in
  QCheck.Test.make ~name:"equal implies same canonical key" ~count:300
    (QCheck.make pairs) (fun (a, b) ->
      Value.equal a b && Value.canonical_key a = Value.canonical_key b)

(* --- structural hashing: cross-equal numerics and collision chains --- *)

(* [equal] admits int/id/float and str/addr cross-equalities, so
   [hash_key] must collapse all of them to one image (every numeric
   hashes through its float). *)
let test_hash_cross_equal () =
  let h = Value.hash_key in
  Alcotest.(check int) "int/float" (h (Value.VFloat 5.)) (h (Value.VInt 5));
  Alcotest.(check int) "int/id" (h (Value.VId 5)) (h (Value.VInt 5));
  Alcotest.(check int) "id normalization"
    (h (Value.VId 5))
    (h (Value.VId (5 + Value.Ring.space)));
  Alcotest.(check int) "str/addr" (h (Value.VStr "n3")) (h (Value.VAddr "n3"));
  Alcotest.(check int) "lists with cross-equal elements"
    (Value.hash_values [ Value.VInt 2; Value.VStr "a" ])
    (Value.hash_values [ Value.VFloat 2.; Value.VAddr "a" ])

let prop_equal_implies_same_hash =
  let pairs =
    QCheck.Gen.(
      oneof
        [
          map (fun s -> (Value.VStr s, Value.VAddr s)) (string_size (int_bound 10));
          map (fun i -> (Value.VInt i, Value.VId i)) (int_bound (Value.Ring.space - 1));
          map (fun i -> (Value.VInt i, Value.VFloat (float_of_int i))) (int_bound 100000);
        ])
  in
  QCheck.Test.make ~name:"equal implies same hash_key" ~count:300
    (QCheck.make pairs) (fun (a, b) ->
      Value.equal a b && Value.hash_key a = Value.hash_key b)

(* [Hashtbl.hash] folds to ~30 bits, so distinct ints with colliding
   [hash_values] exist within a small brute-force range — the birthday
   bound puts the first collision around 2^15 samples. *)
let find_colliding_ints () =
  let seen = Hashtbl.create (1 lsl 16) in
  let rec go i =
    if i > 5_000_000 then None
    else
      let h = Value.hash_values [ Value.VInt i ] in
      match Hashtbl.find_opt seen h with
      | Some j -> Some (j, i)
      | None ->
          Hashtbl.add seen h i;
          go (i + 1)
  in
  go 0

let test_hash_collision_exists () =
  match find_colliding_ints () with
  | None -> Alcotest.fail "no hash_values collision in the search range"
  | Some (a, b) ->
      Alcotest.(check bool) "distinct values" false
        (Value.equal (Value.VInt a) (Value.VInt b));
      Alcotest.(check int) "hashes collide"
        (Value.hash_values [ Value.VInt a ])
        (Value.hash_values [ Value.VInt b ])

(* End-to-end: aggregate grouping buckets by [hash_values] but must
   disambiguate buckets with [equal] — two group keys in the same
   hash chain stay two groups, not one merged group of double count. *)
let test_hash_collision_chain_groups () =
  match find_colliding_ints () with
  | None -> Alcotest.fail "no hash_values collision in the search range"
  | Some (a, b) ->
      let engine = P2_runtime.Engine.create () in
      ignore (P2_runtime.Engine.add_node engine "n1");
      P2_runtime.Engine.install engine "n1"
        (Fmt.str
           "materialize(obs, infinity, infinity, keys(2,3)).\n\
            obs@n1(%d, 1).\n\
            obs@n1(%d, 2).\n\
            c1 tally@A(K, count<*>) :- probe@A(J), obs@A(K, X)."
           a b);
      let tallies = P2_runtime.Engine.collect engine "n1" "tally" in
      ignore (P2_runtime.Engine.inject engine "n1" "probe" [ Value.VInt 0 ]);
      P2_runtime.Engine.run_for engine 1.;
      let got =
        List.map
          (fun t -> (Tuple.field t 2, Tuple.field t 3))
          (tallies ())
        |> List.sort compare
      in
      Alcotest.(check int) "two distinct groups" 2 (List.length got);
      List.iter
        (fun (k, c) ->
          Alcotest.(check bool)
            (Fmt.str "group key is one of the planted ints (%a)" Value.pp k)
            true
            (Value.equal k (Value.VInt a) || Value.equal k (Value.VInt b));
          Alcotest.check v "count is 1 per group" (Value.VInt 1) c)
        got

let test_tuple_basics () =
  let t = Tuple.make ~id:7 "foo" [ Value.VAddr "n1"; Value.VInt 2 ] in
  Alcotest.(check string) "name" "foo" (Tuple.name t);
  Alcotest.(check int) "id" 7 (Tuple.id t);
  Alcotest.(check int) "arity" 2 (Tuple.arity t);
  Alcotest.(check string) "location" "n1" (Tuple.location t);
  Alcotest.check v "field 1" (Value.VAddr "n1") (Tuple.field t 1);
  Alcotest.check v "field 2" (Value.VInt 2) (Tuple.field t 2);
  Alcotest.check_raises "field out of range"
    (Invalid_argument "Tuple.field 3 of foo/2") (fun () -> ignore (Tuple.field t 3))

let test_tuple_keys () =
  let t = Tuple.make "bar" [ Value.VAddr "a"; Value.VInt 1; Value.VStr "x" ] in
  Alcotest.(check int) "key extraction" 2 (List.length (Tuple.key_of t [ 1; 3 ]));
  Alcotest.check v "key order" (Value.VStr "x") (List.nth (Tuple.key_of t [ 1; 3 ]) 1);
  (* out-of-range key positions yield VNull rather than raising *)
  Alcotest.check v "oor key" Value.VNull (List.hd (Tuple.key_of t [ 9 ]))

let test_tuple_equality () =
  let t1 = Tuple.make ~id:1 "t" [ Value.VInt 1 ] in
  let t2 = Tuple.make ~id:2 "t" [ Value.VInt 1 ] in
  Alcotest.(check bool) "contents equal despite ids" true (Tuple.equal_contents t1 t2);
  let t3 = Tuple.make "t" [ Value.VInt 2 ] in
  Alcotest.(check bool) "different contents" false (Tuple.equal_contents t1 t3);
  Alcotest.(check bool) "compare orders" true (Tuple.compare_contents t1 t3 < 0)

let () =
  Alcotest.run "value"
    [
      ( "value",
        [
          Alcotest.test_case "equality" `Quick test_equality;
          Alcotest.test_case "int/id past the ring" `Quick test_int_id_past_ring;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "truthy" `Quick test_truthy;
          Alcotest.test_case "size_bytes" `Quick test_size_bytes;
        ] );
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "intervals" `Quick test_ring_intervals;
          QCheck_alcotest.to_alcotest prop_interval_partition;
          QCheck_alcotest.to_alcotest prop_oc_co_duality;
        ] );
      ( "canonical key",
        [
          Alcotest.test_case "cases" `Quick test_canonical_key;
          QCheck_alcotest.to_alcotest prop_equal_implies_same_key;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "cross-equal values hash equal" `Quick
            test_hash_cross_equal;
          QCheck_alcotest.to_alcotest prop_equal_implies_same_hash;
          Alcotest.test_case "collisions exist in range" `Quick
            test_hash_collision_exists;
          Alcotest.test_case "collision chain keeps groups distinct" `Quick
            test_hash_collision_chain_groups;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "keys" `Quick test_tuple_keys;
          Alcotest.test_case "equality" `Quick test_tuple_equality;
        ] );
    ]
