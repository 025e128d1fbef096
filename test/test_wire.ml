(* Wire codec: frame encode/decode round trips (v2 transport header),
   version rejection, malformed input, duplicate/reorder suppression at
   the transport layer, and qcheck properties over random tuples. *)

open Overlog

let v = Alcotest.testable Value.pp Value.equal

let data_of frame =
  match frame.Wire.kind with
  | Wire.Data m -> m
  | Wire.Batch _ | Wire.Ack | Wire.Heartbeat ->
      Alcotest.failf "expected a data frame"

let batch_of frame =
  match frame.Wire.kind with
  | Wire.Batch ms -> ms
  | Wire.Data _ | Wire.Ack | Wire.Heartbeat ->
      Alcotest.failf "expected a delta-batch frame"

let roundtrip ?(delete = false) ?(seq = 0) ?(ack = 0) tuple =
  let frame = Wire.decode (Wire.encode ~delete ~seq ~ack tuple) in
  Alcotest.(check int) "seq" seq frame.Wire.seq;
  Alcotest.(check int) "ack" ack frame.Wire.ack;
  let m = data_of frame in
  Alcotest.(check string) "name" (Tuple.name tuple) m.Wire.name;
  Alcotest.(check bool) "delete" delete m.Wire.delete;
  Alcotest.(check int) "src id" (Tuple.id tuple) m.Wire.src_tuple_id;
  Alcotest.(check (list v)) "fields" (Tuple.fields tuple) m.Wire.fields

let test_simple () =
  roundtrip
    (Tuple.make ~id:42 "succ" [ Value.VAddr "n1"; Value.VId 12345; Value.VAddr "n2" ])

let test_all_types () =
  roundtrip
    (Tuple.make ~id:7 "everything"
       [
         Value.VAddr "node-17";
         Value.VInt (-123456789);
         Value.VFloat 3.14159;
         Value.VStr "hello \x00 world";
         Value.VBool true;
         Value.VBool false;
         Value.VId (Value.Ring.space - 1);
         Value.VNull;
         Value.VList [ Value.VInt 1; Value.VStr "x"; Value.VList [ Value.VBool true ] ];
       ])

let test_delete_flag () = roundtrip ~delete:true (Tuple.make ~id:1 "t" [ Value.VNull ])

let test_empty_fields () = roundtrip (Tuple.make ~id:1 "ping" [])

let test_transport_header () =
  roundtrip ~seq:7 ~ack:3 (Tuple.make ~id:1 "t" [ Value.VInt 5 ]);
  roundtrip ~seq:0xffffffff ~ack:0xfffffffe (Tuple.make ~id:1 "t" [])

let test_control_frames () =
  (match Wire.decode (Wire.encode_ack ~ack:12) with
  | { Wire.seq = 0; ack = 12; kind = Wire.Ack } -> ()
  | _ -> Alcotest.failf "bad ack frame");
  match Wire.decode (Wire.encode_heartbeat ~ack:99) with
  | { Wire.seq = 0; ack = 99; kind = Wire.Heartbeat } -> ()
  | _ -> Alcotest.failf "bad heartbeat frame"

let test_old_version_rejected () =
  (* A version-1 frame starts with byte 0x01 and has no transport
     header; the decoder must refuse it with a clean error, naming the
     version, rather than misparsing or crashing. *)
  let v1 = "\x01\x2a\x00\x00\x00\x00\x01t\x00\x00" in
  match Wire.decode v1 with
  | exception Wire.Error msg ->
      let mentions_version =
        try
          ignore (Str.search_forward (Str.regexp_string "version") msg 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) "mentions version" true mentions_version
  | _ -> Alcotest.failf "expected decode failure for version-1 input"

let test_malformed () =
  let bad data =
    match Wire.decode data with
    | exception Wire.Error _ -> ()
    | _ -> Alcotest.failf "expected decode failure"
  in
  bad "";
  bad "\x01" (* old version byte *);
  bad "\x03" (* future version byte *);
  bad "\x02\x00\x00" (* truncated header *);
  bad "\x02\x09\x00\x00\x00\x00\x00\x00\x00\x00" (* unknown frame kind *);
  let good = Wire.encode (Tuple.make ~id:1 "t" [ Value.VInt 5 ]) in
  bad (good ^ "zz") (* trailing bytes *);
  bad (String.sub good 0 (String.length good - 1)) (* cut short *);
  bad (Wire.encode_ack ~ack:3 ^ "x") (* trailing bytes on a control frame *)

let test_size_matches_encoding () =
  let t = Tuple.make ~id:9 "x" [ Value.VAddr "a"; Value.VInt 1 ] in
  Alcotest.(check int) "size = encoded length"
    (String.length (Wire.encode t)) (Wire.size t)

(* --- duplicate / reorder suppression at the transport layer --- *)

(* A transport endpoint with stub hooks: manual clock, captured timers
   (never fired — irrelevant to receive-side dedup), captured output. *)
let make_transport () =
  let clock = ref 0. in
  let tr =
    P2_runtime.Transport.create ~addr:"n0" ~rng:(Sim.Rng.create 7)
      ~now:(fun () -> !clock)
      ~schedule:(fun _ _ -> ())
      ~raw_send:(fun _ _ -> ())
      ~on_dirty:ignore
      ~active:(fun () -> true)
      ()
  in
  tr

let test_duplicate_suppressed_exactly_once () =
  let tr = make_transport () in
  let delivered = ref [] in
  P2_runtime.Transport.set_deliver tr (fun ~src:_ ~bytes:_ m ->
      delivered := m.Wire.name :: !delivered);
  let frame seq name = Wire.encode ~seq (Tuple.make ~id:seq name []) in
  (* in-order, then an exact duplicate *)
  P2_runtime.Transport.receive tr ~src:"peer" (frame 1 "t1");
  P2_runtime.Transport.receive tr ~src:"peer" (frame 1 "t1");
  (* reordered: seq 3 arrives before seq 2, then 3 again (duplicate in
     the reorder buffer), then the gap-filler 2 *)
  P2_runtime.Transport.receive tr ~src:"peer" (frame 3 "t3");
  P2_runtime.Transport.receive tr ~src:"peer" (frame 3 "t3");
  P2_runtime.Transport.receive tr ~src:"peer" (frame 2 "t2");
  (* stale retransmission of an already-delivered frame *)
  P2_runtime.Transport.receive tr ~src:"peer" (frame 2 "t2");
  Alcotest.(check (list string))
    "each delivered exactly once, in order" [ "t1"; "t2"; "t3" ]
    (List.rev !delivered);
  Alcotest.(check int) "duplicates counted" 3
    (P2_runtime.Transport.duplicate_count tr)

(* random value generator for the property *)
let gen_value =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun i -> Value.VInt i) int;
            map (fun f -> Value.VFloat (Int64.float_of_bits (Int64.of_int f))) int;
            map (fun s -> Value.VStr s) (string_size (int_bound 40));
            map (fun b -> Value.VBool b) bool;
            map (fun i -> Value.VId i) (int_bound (Value.Ring.space - 1));
            map (fun s -> Value.VAddr s) (string_size (int_bound 12));
            return Value.VNull;
          ]
      in
      if n = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            (1, map (fun vs -> Value.VList vs) (list_size (int_bound 4) (self (n / 2))));
          ])

let arb_tuple =
  QCheck.make
    QCheck.Gen.(
      map3
        (fun name fields id ->
          Tuple.make ~id ("t" ^ name) fields)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 10))
        (list_size (int_bound 8) gen_value)
        (int_bound 0xfffffff))

(* NaN-aware structural equality, recursing into lists: the generators
   can produce NaN bit patterns, and Value.equal would reject a NaN
   that round-tripped perfectly — including one buried in a VList. *)
let rec value_eq a b =
  match (a, b) with
  | Value.VFloat x, Value.VFloat y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Value.VList xs, Value.VList ys ->
      List.length xs = List.length ys && List.for_all2 value_eq xs ys
  | _ -> Value.equal a b

let prop_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip" ~count:500 arb_tuple (fun tuple ->
      let m = data_of (Wire.decode (Wire.encode tuple)) in
      m.Wire.name = Tuple.name tuple
      && List.length m.Wire.fields = Tuple.arity tuple
      && List.for_all2 value_eq m.Wire.fields (Tuple.fields tuple))

(* --- the full-message property: flags, source id, edge values --- *)

(* Deeper nesting than [gen_value], plus adversarial leaves: extreme
   ints, NaN / infinities / signed zero, empty and binary strings. *)
let gen_edge_value =
  let open QCheck.Gen in
  sized_size (int_bound 12) @@ fix (fun self n ->
      let leaf =
        oneof
          [
            oneofl
              [
                Value.VInt max_int;
                Value.VInt min_int;
                Value.VInt 0;
                Value.VFloat Float.nan;
                Value.VFloat Float.infinity;
                Value.VFloat Float.neg_infinity;
                Value.VFloat (-0.);
                Value.VFloat Float.min_float;
                Value.VStr "";
                Value.VStr "\x00\xff\x7f";
                Value.VAddr "";
                Value.VId 0;
                Value.VId (Value.Ring.space - 1);
                Value.VList [];
                Value.VNull;
              ];
            map (fun i -> Value.VInt i) int;
            map (fun f -> Value.VFloat (Int64.float_of_bits (Int64.of_int f))) int;
            map (fun s -> Value.VStr s) (string_size (int_bound 60));
          ]
      in
      if n = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map (fun vs -> Value.VList vs) (list_size (int_bound 6) (self (n / 2))));
          ])

let arb_message =
  QCheck.make
    QCheck.Gen.(
      map3
        (fun (name, delete) fields (id, seq, ack) ->
          (Tuple.make ~id ("t" ^ name) fields, delete, seq, ack))
        (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 10)) bool)
        (list_size (int_bound 8) gen_edge_value)
        (triple (int_bound 0xffffffff) (int_bound 0xffffffff) (int_bound 0xffffffff)))

let prop_message_roundtrip =
  QCheck.Test.make ~name:"wire frame roundtrip (flags, id, seq/ack, edges)"
    ~count:1000 arb_message (fun (tuple, delete, seq, ack) ->
      let frame = Wire.decode (Wire.encode ~delete ~seq ~ack tuple) in
      let m = data_of frame in
      frame.Wire.seq = seq
      && frame.Wire.ack = ack
      && m.Wire.name = Tuple.name tuple
      && m.Wire.delete = delete
      && m.Wire.src_tuple_id = Tuple.id tuple
      && List.length m.Wire.fields = Tuple.arity tuple
      && List.for_all2 value_eq m.Wire.fields (Tuple.fields tuple))

let prop_size_matches =
  QCheck.Test.make ~name:"wire size = encoded length" ~count:300 arb_message
    (fun (tuple, delete, _, _) ->
      Wire.size ~delete tuple = String.length (Wire.encode ~delete tuple))

(* --- delta-batch frames (kind 3) --- *)

let check_message (delete, tuple) (m : Wire.message) =
  m.Wire.name = Tuple.name tuple
  && m.Wire.delete = delete
  && m.Wire.src_tuple_id = Tuple.id tuple
  && List.length m.Wire.fields = Tuple.arity tuple
  && List.for_all2 value_eq m.Wire.fields (Tuple.fields tuple)

let test_batch_roundtrip () =
  let items =
    [
      (false, Tuple.make ~id:1 "path" [ Value.VAddr "n1"; Value.VAddr "n0" ]);
      (true, Tuple.make ~id:2 "link" [ Value.VAddr "n1"; Value.VAddr "n2" ]);
      (false, Tuple.make ~id:3 "ping" []);
    ]
  in
  let frame = Wire.decode (Wire.encode_batch ~seq:9 ~ack:4 items) in
  Alcotest.(check int) "seq" 9 frame.Wire.seq;
  Alcotest.(check int) "ack" 4 frame.Wire.ack;
  let ms = batch_of frame in
  Alcotest.(check int) "count" (List.length items) (List.length ms);
  Alcotest.(check bool) "items preserved in order" true
    (List.for_all2 check_message items ms)

let test_batch_singleton_and_empty () =
  (* the codec is total on the edge sizes even though the transport
     never emits them: a 1-batch and a 0-batch both round-trip *)
  let one = [ (false, Tuple.make ~id:5 "t" [ Value.VInt 1 ]) ] in
  Alcotest.(check int) "singleton" 1
    (List.length (batch_of (Wire.decode (Wire.encode_batch one))));
  Alcotest.(check int) "empty" 0
    (List.length (batch_of (Wire.decode (Wire.encode_batch []))))

let test_batch_malformed () =
  let bad data =
    match Wire.decode data with
    | exception Wire.Error _ -> ()
    | _ -> Alcotest.failf "expected decode failure"
  in
  let good =
    Wire.encode_batch
      [ (false, Tuple.make ~id:1 "t" [ Value.VInt 5 ]) ]
  in
  bad (good ^ "z") (* trailing bytes *);
  bad (String.sub good 0 (String.length good - 1)) (* truncated item *);
  (* count larger than the items present *)
  bad "\x02\x03\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00"

let arb_batch =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 1 20)
           (map3
              (fun name fields (delete, id) ->
                (delete, Tuple.make ~id ("t" ^ name) fields))
              (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
              (list_size (int_bound 6) gen_edge_value)
              (pair bool (int_bound 0xfffffff))))
        (pair (int_bound 0xffffffff) (int_bound 0xffffffff)))

let prop_batch_roundtrip =
  QCheck.Test.make ~name:"batch roundtrip preserves count, order, content"
    ~count:300 arb_batch (fun (items, (seq, ack)) ->
      let frame = Wire.decode (Wire.encode_batch ~seq ~ack items) in
      let ms = batch_of frame in
      frame.Wire.seq = seq
      && frame.Wire.ack = ack
      && List.length ms = List.length items
      && List.for_all2 check_message items ms)

(* --- mutation: damaged frames decode or raise Wire.Error --- *)

type mutation =
  | Flip of int * int  (* byte index (mod length), bit *)
  | Truncate of int  (* keep a prefix of this length (mod length + 1) *)
  | Lying_count  (* make it a batch claiming 0xFFFF items *)
  | Splice of int * string * int
      (* a prefix of this frame, then another valid frame from an offset *)

let gen_valid_frame =
  let open QCheck.Gen in
  let tuple =
    map3
      (fun name fields id -> Tuple.make ~id ("t" ^ name) fields)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
      (list_size (int_bound 4) gen_edge_value)
      (int_bound 0xffff)
  in
  let header = pair (int_bound 0xffffffff) (int_bound 0xffffffff) in
  oneof
    [
      map3 (fun t delete (seq, ack) -> Wire.encode ~delete ~seq ~ack t) tuple bool header;
      map2
        (fun items (seq, ack) -> Wire.encode_batch ~seq ~ack items)
        (list_size (int_bound 4) (pair bool tuple))
        header;
      map (fun ack -> Wire.encode_ack ~ack) (int_bound 0xffffffff);
      map (fun ack -> Wire.encode_heartbeat ~ack) (int_bound 0xffffffff);
    ]

let apply_mutation frame = function
  | Flip (i, bit) when frame <> "" ->
      let b = Bytes.of_string frame in
      let i = i mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Bytes.to_string b
  | Flip _ -> frame
  | Truncate n -> String.sub frame 0 (n mod (String.length frame + 1))
  | Lying_count when String.length frame >= 12 ->
      let b = Bytes.of_string frame in
      Bytes.set b 1 '\x03';
      Bytes.set b 10 '\xff';
      Bytes.set b 11 '\xff';
      Bytes.to_string b
  | Lying_count -> frame
  | Splice (i, other, j) ->
      String.sub frame 0 (i mod (String.length frame + 1))
      ^ String.sub other (j mod (String.length other + 1))
          (String.length other - (j mod (String.length other + 1)))

let arb_mutated_frame =
  let open QCheck.Gen in
  let mutation =
    frequency
      [
        (4, map2 (fun i bit -> Flip (i, bit)) nat (int_bound 7));
        (2, map (fun n -> Truncate n) nat);
        (1, return Lying_count);
        (2, map3 (fun i other j -> Splice (i, other, j)) nat gen_valid_frame nat);
      ]
  in
  QCheck.make ~print:String.escaped
    (map2 (List.fold_left apply_mutation) gen_valid_frame
       (list_size (int_range 1 4) mutation))

let prop_mutated_frames_fail_typed =
  QCheck.Test.make ~name:"mutated frames decode or raise Wire.Error" ~count:5000
    arb_mutated_frame (fun frame ->
      match Wire.decode frame with
      | _ -> true
      | exception Wire.Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "Wire.decode raised %s" (Printexc.to_string e))

let test_batch_transport_unbatches_in_order () =
  let tr = make_transport () in
  let delivered = ref [] in
  P2_runtime.Transport.set_deliver tr (fun ~src:_ ~bytes:_ m ->
      delivered := m.Wire.name :: !delivered);
  let tuple name = Tuple.make ~id:1 name [] in
  let batch seq names =
    Wire.encode_batch ~seq (List.map (fun n -> (false, tuple n)) names)
  in
  P2_runtime.Transport.receive tr ~src:"peer" (batch 1 [ "a"; "b"; "c" ]);
  Alcotest.(check (list string))
    "batch items delivered in item order" [ "a"; "b"; "c" ]
    (List.rev !delivered)

let test_batch_duplicate_suppressed_exactly_once () =
  let tr = make_transport () in
  let delivered = ref [] in
  P2_runtime.Transport.set_deliver tr (fun ~src:_ ~bytes:_ m ->
      delivered := m.Wire.name :: !delivered);
  let tuple name = Tuple.make ~id:1 name [] in
  let batch seq names =
    Wire.encode_batch ~seq (List.map (fun n -> (false, tuple n)) names)
  in
  (* a duplicated batch must not re-deliver any of its items *)
  P2_runtime.Transport.receive tr ~src:"peer" (batch 1 [ "a"; "b" ]);
  P2_runtime.Transport.receive tr ~src:"peer" (batch 1 [ "a"; "b" ]);
  Alcotest.(check (list string))
    "delivered exactly once" [ "a"; "b" ]
    (List.rev !delivered);
  Alcotest.(check int) "duplicate counted" 1
    (P2_runtime.Transport.duplicate_count tr)

let test_batch_reorder_buffered () =
  let tr = make_transport () in
  let delivered = ref [] in
  P2_runtime.Transport.set_deliver tr (fun ~src:_ ~bytes:_ m ->
      delivered := m.Wire.name :: !delivered);
  let tuple name = Tuple.make ~id:1 name [] in
  let batch seq names =
    Wire.encode_batch ~seq (List.map (fun n -> (false, tuple n)) names)
  in
  let data seq name = Wire.encode ~seq (tuple name) in
  (* seq 2 (a batch) arrives before seq 1 (plain data): the batch is
     buffered whole, then released — after the gap filler, in item
     order — mirroring the PR-5 reorder cases *)
  P2_runtime.Transport.receive tr ~src:"peer" (batch 2 [ "x"; "y" ]);
  Alcotest.(check (list string)) "gap holds the batch back" [] (List.rev !delivered);
  P2_runtime.Transport.receive tr ~src:"peer" (data 1 "w");
  (* duplicate of the already-delivered batch, now below cum_ack *)
  P2_runtime.Transport.receive tr ~src:"peer" (batch 2 [ "x"; "y" ]);
  Alcotest.(check (list string))
    "in-order release, batch delivered once" [ "w"; "x"; "y" ]
    (List.rev !delivered)

let test_oversize_rejected () =
  let huge = Tuple.make ~id:1 "t" [ Value.VStr (String.make 70_000 'x') ] in
  (match Wire.encode huge with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.failf "expected Wire.Error for an oversize string");
  let wide = Tuple.make ~id:1 "t" [ Value.VList (List.init 70_000 (fun i -> Value.VInt i)) ] in
  match Wire.encode wide with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.failf "expected Wire.Error for an oversize list"

(* [Wire.size] is computed without encoding, but must fail exactly
   where [encode] fails, with the same error, the first offending
   field deciding. *)
let test_size_raises_as_encode () =
  let error_of f = match f () with exception Wire.Error m -> Some m | _ -> None in
  let long = String.make 70_000 'x' in
  let wide = Value.VList (List.init 70_000 (fun i -> Value.VInt i)) in
  List.iter
    (fun (what, t) ->
      let expected = error_of (fun () -> Wire.encode t) in
      Alcotest.(check bool) (what ^ ": encode raises") true (expected <> None);
      Alcotest.(check (option string)) what expected (error_of (fun () -> Wire.size t)))
    [
      ("oversize string", Tuple.make ~id:1 "t" [ Value.VStr long ]);
      ("oversize address", Tuple.make ~id:1 "t" [ Value.VAddr long ]);
      ("oversize list", Tuple.make ~id:1 "t" [ wide ]);
      ("oversize name", Tuple.make ~id:1 long [ Value.VInt 1 ]);
      ("too many fields", Tuple.make ~id:1 "t" (List.init 70_000 (fun i -> Value.VInt i)));
      ("list before string", Tuple.make ~id:1 "t" [ wide; Value.VStr long ]);
      ("string before list", Tuple.make ~id:1 "t" [ Value.VStr long; wide ]);
      ("nested", Tuple.make ~id:1 "t" [ Value.VList [ Value.VInt 1; Value.VStr long ] ]);
    ]

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "simple" `Quick test_simple;
          Alcotest.test_case "all types" `Quick test_all_types;
          Alcotest.test_case "delete flag" `Quick test_delete_flag;
          Alcotest.test_case "no fields" `Quick test_empty_fields;
          Alcotest.test_case "transport header" `Quick test_transport_header;
          Alcotest.test_case "control frames" `Quick test_control_frames;
          Alcotest.test_case "old version rejected" `Quick test_old_version_rejected;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "size" `Quick test_size_matches_encoding;
          Alcotest.test_case "oversize rejected" `Quick test_oversize_rejected;
          Alcotest.test_case "size raises as encode" `Quick test_size_raises_as_encode;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_message_roundtrip;
          QCheck_alcotest.to_alcotest prop_size_matches;
        ] );
      ( "batch",
        [
          Alcotest.test_case "roundtrip" `Quick test_batch_roundtrip;
          Alcotest.test_case "singleton and empty" `Quick
            test_batch_singleton_and_empty;
          Alcotest.test_case "malformed" `Quick test_batch_malformed;
          QCheck_alcotest.to_alcotest prop_batch_roundtrip;
          QCheck_alcotest.to_alcotest prop_mutated_frames_fail_typed;
        ] );
      ( "transport",
        [
          Alcotest.test_case "duplicates suppressed exactly once" `Quick
            test_duplicate_suppressed_exactly_once;
          Alcotest.test_case "batch unbatches in order" `Quick
            test_batch_transport_unbatches_in_order;
          Alcotest.test_case "batch duplicate suppressed exactly once" `Quick
            test_batch_duplicate_suppressed_exactly_once;
          Alcotest.test_case "batch reorder buffered" `Quick
            test_batch_reorder_buffered;
        ] );
    ]
