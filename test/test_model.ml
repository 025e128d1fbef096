(* Heavier property suites:
   - model-based checking of Table against a reference implementation
     under random operation sequences;
   - Chord ring convergence across seeds. *)

open Overlog

(* --- model-based table test --- *)

(* Reference model: assoc list keyed by canonical key, storing
   (tuple, inserted_at). Mirrors lifetime + key semantics (no caps). *)
module Model = struct
  type t = { lifetime : float; mutable rows : (string * (Tuple.t * float)) list }

  let create lifetime = { lifetime; rows = [] }

  let key tuple =
    String.concat "\x00" (List.map Value.canonical_key (Tuple.key_of tuple [ 1; 2 ]))

  let expire m now =
    m.rows <- List.filter (fun (_, (_, t0)) -> now -. t0 <= m.lifetime) m.rows

  let insert m now tuple =
    expire m now;
    m.rows <- (key tuple, (tuple, now)) :: List.remove_assoc (key tuple) m.rows

  let delete m now tuple =
    expire m now;
    m.rows <- List.remove_assoc (key tuple) m.rows

  let contents m now =
    expire m now;
    List.map (fun (_, (t, _)) -> Tuple.to_string t) m.rows |> List.sort compare
end

type op = Insert of int * int | Delete of int | Advance of float

let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 60)
      (frequency
         [
           (5, map2 (fun k v -> Insert (k, v)) (int_bound 8) (int_bound 20));
           (2, map (fun k -> Delete k) (int_bound 8));
           (2, map (fun dt -> Advance (float_of_int dt /. 2.)) (int_bound 12));
         ]))

let mk_tuple k v = Tuple.make "t" [ Value.VAddr "n"; Value.VInt k; Value.VInt v ]

let prop_table_matches_model =
  QCheck.Test.make ~name:"table = reference model" ~count:300 (QCheck.make gen_ops)
    (fun ops ->
      let table = Store.Table.create ~lifetime:5. ~keys:[ 1; 2 ] "t" in
      let model = Model.create 5. in
      let now = ref 0. in
      List.iter
        (fun op ->
          match op with
          | Insert (k, v) ->
              ignore (Store.Table.insert table ~now:!now (mk_tuple k v));
              Model.insert model !now (mk_tuple k v)
          | Delete k ->
              (* pattern delete on the key field *)
              ignore
                (Store.Table.delete_where table ~now:!now (fun t ->
                     Value.equal (Tuple.field t 2) (Value.VInt k)));
              Model.delete model !now (mk_tuple k 0)
          | Advance dt -> now := !now +. dt)
        ops;
      let actual =
        Store.Table.tuples table ~now:!now
        |> List.map Tuple.to_string |> List.sort compare
      in
      actual = Model.contents model !now)

(* --- chord convergence across seeds --- *)

let test_chord_converges_across_seeds () =
  List.iter
    (fun seed ->
      let engine = P2_runtime.Engine.create ~seed () in
      let net = Chord.boot engine 8 in
      P2_runtime.Engine.run_for engine 150.;
      Alcotest.(check bool) (Fmt.str "seed %d converges" seed) true
        (Chord.ring_correct net))
    [ 2; 4; 6; 8; 10 ]

let test_chord_converges_with_loss () =
  (* with 5% message loss, occasional triple ping losses cause spurious
     faulty declarations and transient churn; the ring must keep
     returning to a correct state *)
  let engine = P2_runtime.Engine.create ~seed:5 ~loss_rate:0.05 () in
  let net = Chord.boot engine 8 in
  P2_runtime.Engine.run_for engine 150.;
  let correct_epochs = ref 0 in
  for _ = 1 to 20 do
    P2_runtime.Engine.run_for engine 10.;
    if Chord.ring_correct net then incr correct_epochs
  done;
  Alcotest.(check bool)
    (Fmt.str "ring mostly correct under loss (%d/20 epochs)" !correct_epochs)
    true
    (!correct_epochs >= 12)

let () =
  Alcotest.run "model"
    [
      ("table", [ QCheck_alcotest.to_alcotest prop_table_matches_model ]);
      ( "chord",
        [
          Alcotest.test_case "multi-seed convergence" `Slow
            test_chord_converges_across_seeds;
          Alcotest.test_case "converges with loss" `Slow test_chord_converges_with_loss;
        ] );
    ]
