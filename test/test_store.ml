(* Soft-state table semantics: keys, expiry, eviction, subscriptions. *)

open Overlog
open Store

let mk ?lifetime ?max_size ?(keys = []) name = Table.create ?lifetime ?max_size ~keys name

let t3 addr a b = Tuple.make "t" [ Value.VAddr addr; Value.VInt a; Value.VInt b ]

let test_insert_and_read () =
  let tbl = mk "t" in
  Alcotest.(check bool) "added" true (Table.insert tbl ~now:0. (t3 "n" 1 2) = Table.Added);
  Alcotest.(check int) "size" 1 (Table.size tbl ~now:0.);
  Alcotest.(check bool) "mem" true (Table.mem tbl ~now:0. (t3 "n" 1 2))

let test_primary_key_replace () =
  let tbl = mk ~keys:[ 1; 2 ] "t" in
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 10));
  (* same key (n,1), different payload -> replaced *)
  Alcotest.(check bool) "replaced" true
    (Table.insert tbl ~now:1. (t3 "n" 1 20) = Table.Replaced);
  Alcotest.(check int) "still one row" 1 (Table.size tbl ~now:1.);
  (match Table.tuples tbl ~now:1. with
  | [ row ] -> Alcotest.(check bool) "new payload" true (Value.equal (Tuple.field row 3) (Value.VInt 20))
  | _ -> Alcotest.fail "expected one row");
  (* different key -> added *)
  Alcotest.(check bool) "added" true (Table.insert tbl ~now:1. (t3 "n" 2 30) = Table.Added);
  Alcotest.(check int) "two rows" 2 (Table.size tbl ~now:1.)

let test_refresh () =
  let tbl = mk ~lifetime:10. ~keys:[ 1; 2 ] "t" in
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 2));
  (* identical contents: a refresh extending the lifetime *)
  Alcotest.(check bool) "refreshed" true
    (Table.insert tbl ~now:8. (t3 "n" 1 2) = Table.Refreshed);
  Alcotest.(check int) "alive at 15 thanks to refresh" 1 (Table.size tbl ~now:15.);
  Alcotest.(check int) "dead at 19" 0 (Table.size tbl ~now:19.)

let test_expiry () =
  let tbl = mk ~lifetime:5. "t" in
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 2));
  ignore (Table.insert tbl ~now:3. (t3 "n" 3 4));
  Alcotest.(check int) "both alive" 2 (Table.size tbl ~now:4.);
  Alcotest.(check int) "one expired" 1 (Table.size tbl ~now:6.);
  Alcotest.(check int) "all expired" 0 (Table.size tbl ~now:9.)

let test_eviction_fifo () =
  let tbl = mk ~max_size:2 "t" in
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 1));
  ignore (Table.insert tbl ~now:1. (t3 "n" 2 2));
  ignore (Table.insert tbl ~now:2. (t3 "n" 3 3));
  Alcotest.(check int) "capped" 2 (Table.size tbl ~now:2.);
  Alcotest.(check bool) "oldest evicted" false (Table.mem tbl ~now:2. (t3 "n" 1 1));
  Alcotest.(check bool) "newest kept" true (Table.mem tbl ~now:2. (t3 "n" 3 3))

let test_eviction_respects_refresh () =
  let tbl = mk ~max_size:2 ~keys:[ 1; 2 ] "t" in
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 1));
  ignore (Table.insert tbl ~now:1. (t3 "n" 2 2));
  (* refresh row 1 so row 2 becomes the eviction victim *)
  ignore (Table.insert tbl ~now:2. (t3 "n" 1 1));
  ignore (Table.insert tbl ~now:3. (t3 "n" 3 3));
  Alcotest.(check bool) "refreshed row kept" true (Table.mem tbl ~now:3. (t3 "n" 1 1));
  Alcotest.(check bool) "stale row evicted" false (Table.mem tbl ~now:3. (t3 "n" 2 2))

let test_delete () =
  let tbl = mk ~keys:[ 1; 2 ] "t" in
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 1));
  ignore (Table.insert tbl ~now:0. (t3 "n" 2 2));
  Alcotest.(check bool) "deleted" true (Table.delete tbl ~now:0. (t3 "n" 1 1));
  Alcotest.(check bool) "gone" false (Table.delete tbl ~now:0. (t3 "n" 1 1));
  Alcotest.(check int) "one left" 1 (Table.size tbl ~now:0.)

let test_delete_where () =
  let tbl = mk "t" in
  for i = 1 to 5 do
    ignore (Table.insert tbl ~now:0. (t3 "n" i (i * i)))
  done;
  let removed =
    Table.delete_where tbl ~now:0. (fun tu -> Value.as_int (Tuple.field tu 2) mod 2 = 0)
  in
  Alcotest.(check int) "two removed" 2 (List.length removed);
  Alcotest.(check int) "three left" 3 (Table.size tbl ~now:0.)

let test_key_identity_follows_equality () =
  (* VStr and VAddr render differently but are equal: they must share
     a primary-key slot (a real bug once: fact-seeded rows never got
     replaced by runtime rows) *)
  let tbl = mk ~keys:[ 1; 2 ] "t" in
  let row v time =
    Tuple.make "t" [ Value.VAddr "n"; v; Value.VFloat time ]
  in
  ignore (Table.insert tbl ~now:0. (row (Value.VStr "peer1") 0.));
  Alcotest.(check bool) "addr replaces str row" true
    (Table.insert tbl ~now:1. (row (Value.VAddr "peer1") 1.) = Table.Replaced);
  Alcotest.(check int) "single row" 1 (Table.size tbl ~now:1.);
  ignore (Table.insert tbl ~now:2. (Tuple.make "t" [ Value.VAddr "n"; Value.VId 5; Value.VFloat 0. ]));
  Alcotest.(check bool) "int replaces id row" true
    (Table.insert tbl ~now:3. (Tuple.make "t" [ Value.VAddr "n"; Value.VInt 5; Value.VFloat 1. ]) = Table.Replaced)

let test_subscriptions () =
  let tbl = mk ~lifetime:5. ~keys:[ 1; 2 ] "t" in
  let log = ref [] in
  Table.subscribe tbl (function
    | Table.Insert tu -> log := ("ins", Tuple.to_string tu) :: !log
    | Table.Delete tu -> log := ("del", Tuple.to_string tu) :: !log
    | Table.Refresh tu -> log := ("ref", Tuple.to_string tu) :: !log);
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 1));
  ignore (Table.insert tbl ~now:1. (t3 "n" 1 1));  (* refresh *)
  ignore (Table.insert tbl ~now:2. (t3 "n" 1 9));  (* replace -> insert *)
  ignore (Table.delete tbl ~now:3. (t3 "n" 1 9));
  let kinds = List.rev_map fst !log in
  Alcotest.(check (list string)) "delta kinds" [ "ins"; "ref"; "ins"; "del" ] kinds

let test_expiry_notifies () =
  let tbl = mk ~lifetime:2. "t" in
  let deletes = ref 0 in
  Table.subscribe tbl (function Table.Delete _ -> incr deletes | _ -> ());
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 1));
  ignore (Table.size tbl ~now:5.);
  Alcotest.(check int) "expiry delta" 1 !deletes

let test_subscriber_order () =
  let tbl = mk "t" in
  let order = ref [] in
  Table.subscribe tbl (fun _ -> order := 1 :: !order);
  Table.subscribe tbl (fun _ -> order := 2 :: !order);
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 1));
  Alcotest.(check (list int)) "install order" [ 1; 2 ] (List.rev !order)

let test_stats_and_bytes () =
  let tbl = mk ~lifetime:5. ~max_size:2 "t" in
  ignore (Table.insert tbl ~now:0. (t3 "n" 1 1));
  ignore (Table.insert tbl ~now:0. (t3 "n" 2 2));
  ignore (Table.insert tbl ~now:0. (t3 "n" 3 3));
  let s = Table.stats tbl ~now:0. in
  Alcotest.(check int) "live" 2 s.live;
  Alcotest.(check int) "inserts" 3 s.inserts;
  Alcotest.(check int) "evictions" 1 s.evictions;
  Alcotest.(check bool) "bytes positive" true (Table.bytes tbl ~now:0. > 0)

let test_of_materialize () =
  let m =
    { Ast.mname = "x"; mlifetime = 9.; msize = Some 4; mkeys = [ 1 ]; mline = 0 }
  in
  let tbl = Table.of_materialize m in
  Alcotest.(check string) "name" "x" (Table.name tbl);
  Alcotest.(check (list int)) "keys" [ 1 ] (Table.keys tbl)

let test_catalog () =
  let c = Catalog.create () in
  Catalog.add c (mk "a");
  Catalog.add c (mk "b");
  Alcotest.(check bool) "is_table" true (Catalog.is_table c "a");
  Alcotest.(check bool) "missing" false (Catalog.is_table c "z");
  Alcotest.(check (list string)) "names sorted" [ "a"; "b" ] (Catalog.names c);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Catalog.add: table a already materialized") (fun () ->
      Catalog.add c (mk "a"));
  ignore (Table.insert (Catalog.find_exn c "a") ~now:0. (t3 "n" 1 1));
  Alcotest.(check int) "total live" 1 (Catalog.total_live c ~now:0.)

(* Property: a table never exceeds its capacity, whatever the
   insertion sequence. *)
let prop_capacity =
  QCheck.Test.make ~name:"capacity bound" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun ops ->
      let tbl = mk ~max_size:5 ~keys:[ 1; 2 ] "t" in
      List.iteri (fun i (a, b) -> ignore (Table.insert tbl ~now:(float_of_int i) (t3 "n" a b))) ops;
      Table.size tbl ~now:1e6 <= 5 || true |> fun _ ->
      Table.size tbl ~now:0. <= 5)

(* Property: after expiry time passes with no refresh, table is empty. *)
let prop_expiry_total =
  QCheck.Test.make ~name:"total expiry" ~count:100
    QCheck.(list small_nat)
    (fun xs ->
      let tbl = mk ~lifetime:1. "t" in
      List.iter (fun x -> ignore (Table.insert tbl ~now:0. (t3 "n" x x))) xs;
      Table.size tbl ~now:10. = 0)

(* Strtbl hashes with [Hashtbl.hash], so a table built by the same
   operations holds its keys in the same buckets, in the same order, as
   the generic [Hashtbl]: seeded runs that iterate such tables stay
   byte-identical. Ops: replace (0), remove (1), add (2) over a small
   key space, so keys collide, repeat and force resizes. *)
let prop_strtbl_order =
  QCheck.Test.make ~name:"Strtbl iterates like Hashtbl" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 200)))
    (fun ops ->
      let g = Hashtbl.create 4 and m = Strtbl.create 4 in
      let gp = Hashtbl.create 4 and mp = Strtbl.Pair.create 4 in
      List.iteri
        (fun v (op, i) ->
          let k = "n" ^ string_of_int i and pk = (string_of_int (i mod 7), string_of_int i) in
          match op with
          | 0 ->
              Hashtbl.replace g k v;
              Strtbl.replace m k v;
              Hashtbl.replace gp pk v;
              Strtbl.Pair.replace mp pk v
          | 1 ->
              Hashtbl.remove g k;
              Strtbl.remove m k;
              Hashtbl.remove gp pk;
              Strtbl.Pair.remove mp pk
          | _ ->
              Hashtbl.add g k v;
              Strtbl.add m k v;
              Hashtbl.add gp pk v;
              Strtbl.Pair.add mp pk v)
        ops;
      let bindings fold tbl = fold (fun k v acc -> (k, v) :: acc) tbl [] in
      bindings Hashtbl.fold g = bindings Strtbl.fold m
      && bindings Hashtbl.fold gp = bindings Strtbl.Pair.fold mp)

let () =
  Alcotest.run "store"
    [
      ( "table",
        [
          Alcotest.test_case "insert/read" `Quick test_insert_and_read;
          Alcotest.test_case "primary key" `Quick test_primary_key_replace;
          Alcotest.test_case "refresh" `Quick test_refresh;
          Alcotest.test_case "expiry" `Quick test_expiry;
          Alcotest.test_case "eviction" `Quick test_eviction_fifo;
          Alcotest.test_case "eviction vs refresh" `Quick test_eviction_respects_refresh;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete_where" `Quick test_delete_where;
          Alcotest.test_case "key identity" `Quick test_key_identity_follows_equality;
          Alcotest.test_case "subscriptions" `Quick test_subscriptions;
          Alcotest.test_case "expiry notifies" `Quick test_expiry_notifies;
          Alcotest.test_case "subscriber order" `Quick test_subscriber_order;
          Alcotest.test_case "stats" `Quick test_stats_and_bytes;
          Alcotest.test_case "of_materialize" `Quick test_of_materialize;
          QCheck_alcotest.to_alcotest prop_capacity;
          QCheck_alcotest.to_alcotest prop_expiry_total;
          QCheck_alcotest.to_alcotest prop_strtbl_order;
        ] );
      ("catalog", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
    ]
