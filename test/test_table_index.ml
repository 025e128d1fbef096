(* Model-based checking of the store's secondary-index layer and
   incremental expiry: under randomized insert/replace/delete/evict/
   expire churn (random key specs, lifetimes, caps and probe
   patterns),

   - [Table.probe] must be observably equivalent to naive
     scan-and-match, whether the index was created before the churn
     (incremental maintenance) or after it (lazy backfill);
   - [Table.tuples] must stay in insertion order;
   - [Table.bytes], a running total, must equal the sum of
     [Tuple.size_bytes] over the live rows after every step;
   - the delta-subscription firing sequence (kinds, payloads and
     subscriber order) must match the reference semantics exactly.

   Further cases pin the age heap's compaction: churn on a table that
   never expires or evicts keeps its memory bounded, and the eviction
   victim stays the exact oldest row. *)

open Overlog
open Store

(* --- reference model ------------------------------------------------ *)

type mrow = {
  mutable mtuple : Tuple.t;
  mutable mat : float;  (* inserted/refreshed at *)
  mseq : int;
  mkey : string;
}

type model = {
  lifetime : float;
  cap : int option;
  keyspec : int list;
  mutable rows : mrow list;  (* insertion (seq) order *)
  mutable next : int;
  mutable log : (string * string) list;  (* (kind, tuple), reversed *)
}

let canon parts = String.concat "\x00" (List.map Value.canonical_key parts)

let mkey m tuple =
  canon
    (match m.keyspec with
    | [] -> Tuple.fields tuple
    | ks -> Tuple.key_of tuple ks)

let mlog m kind tu = m.log <- (kind, Tuple.to_string tu) :: m.log

let mexpire m now =
  if m.lifetime <> infinity then begin
    let dead, live =
      List.partition (fun r -> now -. r.mat > m.lifetime) m.rows
    in
    let dead =
      List.sort (fun a b -> compare (a.mat, a.mseq) (b.mat, b.mseq)) dead
    in
    m.rows <- live;
    List.iter (fun r -> mlog m "del" r.mtuple) dead
  end

let minsert m now tuple =
  mexpire m now;
  let k = mkey m tuple in
  match List.find_opt (fun r -> r.mkey = k) m.rows with
  | Some r when Tuple.equal_contents r.mtuple tuple ->
      r.mat <- now;
      mlog m "ref" tuple
  | Some r ->
      r.mtuple <- tuple;
      r.mat <- now;
      mlog m "ins" tuple
  | None ->
      (match m.cap with
      | Some cap when List.length m.rows >= cap -> (
          let victim =
            List.fold_left
              (fun acc r ->
                match acc with
                | Some best when (best.mat, best.mseq) <= (r.mat, r.mseq) -> acc
                | _ -> Some r)
              None m.rows
          in
          match victim with
          | Some v ->
              m.rows <- List.filter (fun r -> r != v) m.rows;
              mlog m "del" v.mtuple
          | None -> ())
      | _ -> ());
      let seq = m.next in
      m.next <- m.next + 1;
      m.rows <- m.rows @ [ { mtuple = tuple; mat = now; mseq = seq; mkey = k } ];
      mlog m "ins" tuple

let mdelete m now tuple =
  mexpire m now;
  let k = mkey m tuple in
  match List.find_opt (fun r -> r.mkey = k) m.rows with
  | Some r ->
      m.rows <- List.filter (fun r' -> r' != r) m.rows;
      mlog m "del" r.mtuple
  | None -> ()

let mdelete_where m now pred =
  mexpire m now;
  let victims = List.filter (fun r -> pred r.mtuple) m.rows in
  m.rows <- List.filter (fun r -> not (pred r.mtuple)) m.rows;
  List.iter (fun r -> mlog m "del" r.mtuple) victims

let mtuples m now =
  mexpire m now;
  List.map (fun r -> Tuple.to_string r.mtuple) m.rows

(* naive scan-and-match: the specification [Table.probe] must meet *)
let mprobe m now positions values =
  mexpire m now;
  let want = canon values in
  List.filter_map
    (fun r ->
      if canon (Tuple.key_of r.mtuple positions) = want then
        Some (Tuple.to_string r.mtuple)
      else None)
    m.rows

(* --- randomized operations ------------------------------------------ *)

type op =
  | Insert of int * int
  | Delete of int * int
  | DeleteWhere of int  (* parity of the payload field *)
  | Advance of float
  | Probe of int list * int * int
  | Clear

let probe_sets = [ [ 2 ]; [ 3 ]; [ 2; 3 ]; [ 1; 2 ] ]

let gen_config =
  QCheck.Gen.(
    triple
      (oneofl [ 2.; 5.; infinity ])
      (oneofl [ None; Some 3; Some 6 ])
      (oneofl [ []; [ 1; 2 ]; [ 2 ] ]))

let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 80)
      (frequency
         [
           (6, map2 (fun k v -> Insert (k, v)) (int_bound 6) (int_bound 4));
           (2, map2 (fun k v -> Delete (k, v)) (int_bound 6) (int_bound 4));
           (1, map (fun p -> DeleteWhere p) (int_bound 1));
           (3, map (fun dt -> Advance (float_of_int dt /. 2.)) (int_bound 8));
           ( 3,
             map2
               (fun (k, v) i -> Probe (List.nth probe_sets i, k, v))
               (pair (int_bound 6) (int_bound 4))
               (int_bound (List.length probe_sets - 1)) );
           (1, return Clear);
         ]))

let gen_case = QCheck.Gen.pair gen_config gen_ops

let mk_tuple k v = Tuple.make "t" [ Value.VAddr "n"; Value.VInt k; Value.VInt v ]

let probe_values positions k v =
  List.map
    (function
      | 1 -> Value.VAddr "n"
      | 2 -> Value.VInt k
      | 3 -> Value.VInt v
      | _ -> Value.VNull)
    positions

(* Drive one table and the model through the same ops. [pre_index]
   forces index creation before the churn, exercising incremental
   maintenance; without it the first probe backfills lazily. Two
   subscribers share one log so inter-subscriber order is checked. *)
let run_case ~pre_index ((lifetime, cap, keyspec), ops) =
  let table = Table.create ~lifetime ?max_size:cap ~keys:keyspec "t" in
  let model = { lifetime; cap; keyspec; rows = []; next = 0; log = [] } in
  let tlog = ref [] in
  let sub tag kind tu = tlog := (tag, kind, Tuple.to_string tu) :: !tlog in
  let subscriber tag = function
    | Table.Insert tu -> sub tag "ins" tu
    | Table.Delete tu -> sub tag "del" tu
    | Table.Refresh tu -> sub tag "ref" tu
  in
  Table.subscribe table (subscriber "1");
  Table.subscribe table (subscriber "2");
  if pre_index then
    List.iter
      (fun positions ->
        ignore (Table.probe table ~now:0. ~positions ~values:(probe_values positions 0 0)))
      probe_sets;
  let now = ref 0. in
  let ok = ref true in
  let check b = if not b then ok := false in
  let sum_bytes = List.fold_left (fun acc tu -> acc + Tuple.size_bytes tu) 0 in
  (* The running byte total against a recount of the live rows, and
     both against the model. Reading expires, so the model expires at
     the same instant to keep the delta logs aligned. *)
  let check_bytes () =
    let bytes = Table.bytes table ~now:!now in
    mexpire model !now;
    check (bytes = sum_bytes (Table.tuples table ~now:!now));
    check (bytes = sum_bytes (List.map (fun r -> r.mtuple) model.rows))
  in
  List.iter
    (fun op ->
      (match op with
      | Insert (k, v) ->
          ignore (Table.insert table ~now:!now (mk_tuple k v));
          minsert model !now (mk_tuple k v)
      | Delete (k, v) ->
          ignore (Table.delete table ~now:!now (mk_tuple k v));
          mdelete model !now (mk_tuple k v)
      | DeleteWhere p ->
          let pred tu = Value.as_int (Tuple.field tu 3) land 1 = p in
          ignore (Table.delete_where table ~now:!now pred);
          mdelete_where model !now pred
      | Advance dt -> now := !now +. dt
      | Probe (positions, k, v) ->
          let values = probe_values positions k v in
          let got =
            Table.probe table ~now:!now ~positions ~values
            |> List.map Tuple.to_string
          in
          check (got = mprobe model !now positions values)
      | Clear ->
          Table.clear table;
          model.rows <- []);
      check_bytes ())
    ops;
  (* final state: live rows in insertion order, every probe pattern,
     and the complete delta firing sequence *)
  check (List.map Tuple.to_string (Table.tuples table ~now:!now) = mtuples model !now);
  List.iter
    (fun positions ->
      for k = 0 to 6 do
        for v = 0 to 4 do
          let values = probe_values positions k v in
          let got =
            Table.probe table ~now:!now ~positions ~values
            |> List.map Tuple.to_string
          in
          check (got = mprobe model !now positions values)
        done
      done)
    probe_sets;
  let expected_log =
    List.rev model.log
    |> List.concat_map (fun (kind, tu) -> [ ("1", kind, tu); ("2", kind, tu) ])
  in
  check (List.rev !tlog = expected_log);
  !ok

let prop_indexed_probe_equals_scan =
  QCheck.Test.make ~name:"indexed probe = naive scan (index first)" ~count:300
    (QCheck.make gen_case) (run_case ~pre_index:true)

let prop_lazy_index_equals_scan =
  QCheck.Test.make ~name:"indexed probe = naive scan (lazy backfill)" ~count:300
    (QCheck.make gen_case) (run_case ~pre_index:false)

(* The probes above must actually have used indexes. *)
let test_index_created () =
  let table = Table.create ~keys:[ 1; 2 ] "t" in
  ignore (Table.insert table ~now:0. (mk_tuple 1 2));
  ignore
    (Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VInt 1 ]);
  ignore
    (Table.probe table ~now:0. ~positions:[ 2; 3 ]
       ~values:[ Value.VInt 1; Value.VInt 2 ]);
  Alcotest.(check int) "two indexes" 2 (List.length (Table.indexed_positions table));
  (* repeated probes reuse the index *)
  ignore
    (Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VInt 7 ]);
  Alcotest.(check int) "still two" 2 (List.length (Table.indexed_positions table))

(* VStr/VAddr and VInt/VId must collide in index buckets exactly as
   they do under Value.equal (same canonicalization as primary keys). *)
let test_index_key_identity () =
  let table = Table.create ~keys:[ 1; 2 ] "t" in
  ignore
    (Table.insert table ~now:0.
       (Tuple.make "t" [ Value.VAddr "n"; Value.VStr "peer1"; Value.VInt 1 ]));
  let got =
    Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VAddr "peer1" ]
  in
  Alcotest.(check int) "addr probe finds str row" 1 (List.length got);
  ignore
    (Table.insert table ~now:0.
       (Tuple.make "t" [ Value.VAddr "n"; Value.VId 5; Value.VInt 2 ]));
  let got =
    Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VInt 5 ]
  in
  Alcotest.(check int) "int probe finds id row" 1 (List.length got)

(* An integral float is the same value as the int (Value.equal says
   so): an indexed probe must find what a scan finds, and the float
   row must replace the int row under one primary key, not sit beside
   it. *)
let test_index_float_identity () =
  let table = Table.create ~keys:[ 1; 2 ] "t" in
  ignore (Table.insert table ~now:0. (Tuple.make "t" [ Value.VAddr "a"; Value.VInt 1 ]));
  let probe = Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VFloat 1. ] in
  let scan =
    List.filter
      (fun tu -> Value.equal (Tuple.field tu 2) (Value.VFloat 1.))
      (Table.tuples table ~now:0.)
  in
  Alcotest.(check (list string)) "probe = scan"
    (List.map Tuple.to_string scan) (List.map Tuple.to_string probe);
  Alcotest.(check int) "float probe finds int row" 1 (List.length probe);
  ignore (Table.insert table ~now:0. (Tuple.make "t" [ Value.VAddr "a"; Value.VFloat 1. ]));
  Alcotest.(check int) "one row for one key" 1 (Table.size table ~now:0.)

(* A replaced row keeps its seq: when the replacement changes the
   indexed field, the row moves to another bucket and must land in seq
   position there, not at its end, so probes stay in insertion order. *)
let test_replace_moves_bucket () =
  let table = Table.create ~keys:[ 1; 2 ] "t" in
  let put k v = ignore (Table.insert table ~now:0. (mk_tuple k v)) in
  let probe v =
    Table.probe table ~now:0. ~positions:[ 3 ] ~values:[ Value.VInt v ]
    |> List.map (fun tu -> Value.as_int (Tuple.field tu 2))
  in
  List.iter (fun (k, v) -> put k v) [ (0, 7); (1, 8); (2, 7); (3, 8); (4, 7) ];
  Alcotest.(check (list int)) "bucket 7" [ 0; 2; 4 ] (probe 7);
  put 3 7;
  Alcotest.(check (list int)) "row 3 lands mid-bucket" [ 0; 2; 3; 4 ] (probe 7);
  Alcotest.(check (list int)) "row 3 left bucket 8" [ 1 ] (probe 8);
  put 0 8;
  Alcotest.(check (list int)) "row 0 lands first" [ 0; 1 ] (probe 8);
  Alcotest.(check (list int)) "row 0 left bucket 7" [ 2; 3; 4 ] (probe 7);
  put 5 8;
  Alcotest.(check (list int)) "new row appends" [ 0; 1; 5 ] (probe 8);
  Alcotest.(check (list int)) "tuples agree"
    [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun tu -> Value.as_int (Tuple.field tu 2)) (Table.tuples table ~now:0.))

(* An immortal single-key table never expires and never evicts, so
   nothing pops its age heap: without compaction every refresh and
   replace would leave one more stale entry behind. *)
let test_heap_bounded () =
  let table = Table.create ~max_size:1 ~keys:[ 1; 2 ] "t" in
  let churn n =
    for i = 1 to n do
      (* v changes on every second insert: alternately a replace and a
         refresh *)
      ignore (Table.insert table ~now:(float_of_int i) (mk_tuple 1 (i / 2 mod 3)))
    done
  in
  churn 1_000;
  let words_small = Obj.reachable_words (Obj.repr table) in
  churn 100_000;
  let words = Obj.reachable_words (Obj.repr table) in
  Alcotest.(check int) "one row" 1 (Table.size table ~now:1e6);
  if words > 2 * words_small then
    Alcotest.failf "table grew from %d to %d words under churn" words_small words

(* Compaction rebuilds the heap from the rows; the eviction victim must
   still be the exact (stamp, seq) minimum. *)
let test_eviction_after_compaction () =
  let table = Table.create ~max_size:3 ~keys:[ 1; 2 ] "t" in
  let evicted = ref [] in
  Table.subscribe table (function
    | Table.Delete tu -> evicted := Value.as_int (Tuple.field tu 2) :: !evicted
    | Table.Insert _ | Table.Refresh _ -> ());
  let now = ref 0. in
  let put k v =
    now := !now +. 1.;
    ignore (Table.insert table ~now:!now (mk_tuple k v))
  in
  put 0 0;
  put 1 0;
  put 2 0;
  for i = 1 to 500 do
    put (1 + (i mod 2)) (i mod 3)
  done;
  put 3 0;
  Alcotest.(check (list int)) "never-refreshed row evicted" [ 0 ] !evicted;
  (* rows 1 and 3 churn; 2 (last touched before 3 arrived) is oldest *)
  for i = 1 to 500 do
    put (if i mod 2 = 0 then 1 else 3) (i mod 3)
  done;
  put 4 0;
  Alcotest.(check (list int)) "oldest survivor evicted next" [ 2; 0 ] !evicted

let () =
  Alcotest.run "table_index"
    [
      ( "probe",
        [
          QCheck_alcotest.to_alcotest prop_indexed_probe_equals_scan;
          QCheck_alcotest.to_alcotest prop_lazy_index_equals_scan;
          Alcotest.test_case "index creation" `Quick test_index_created;
          Alcotest.test_case "index key identity" `Quick test_index_key_identity;
          Alcotest.test_case "integral float key identity" `Quick
            test_index_float_identity;
          Alcotest.test_case "replace moves bucket in seq order" `Quick
            test_replace_moves_bucket;
        ] );
      ( "heap",
        [
          Alcotest.test_case "bounded under churn" `Quick test_heap_bounded;
          Alcotest.test_case "eviction after compaction" `Quick
            test_eviction_after_compaction;
        ] );
    ]
