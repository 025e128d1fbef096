(* Flight-recorder segment log: framing round-trips, rotation,
   retention, CRC damage containment, and torn-tail crash recovery.
   Everything runs in throwaway directories under the system temp
   dir; each case gets a fresh one. *)

open Overlog

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "p2sl_test_%d_%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let tuple ?(name = "obs") i =
  Tuple.make ~id:i name
    [ Value.VAddr "n1"; Value.VInt i; Value.VStr (Fmt.str "payload-%d" i) ]

let read_all dir =
  let out = ref [] in
  Seglog.iter ~dir (fun r -> out := r :: !out);
  List.rev !out

(* --- round trip --- *)

let test_round_trip () =
  with_dir @@ fun dir ->
  let w = Seglog.create ~dir () in
  for i = 0 to 9 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:(i mod 3 = 0) (tuple i)
  done;
  Seglog.close w;
  let records = read_all dir in
  Alcotest.(check int) "all records back" 10 (List.length records);
  List.iteri
    (fun i (r : Seglog.record) ->
      Alcotest.(check (float 0.)) "stamp" (float_of_int i) r.stamp;
      Alcotest.(check int) "seq" i r.seq;
      Alcotest.(check bool) "delete" (i mod 3 = 0) r.delete;
      Alcotest.(check string) "name" "obs" (Tuple.name r.tuple);
      Alcotest.(check int) "tuple id" i (Tuple.id r.tuple);
      Alcotest.(check bool) "fields" true
        (List.for_all2 Value.equal (Tuple.fields (tuple i))
           (Tuple.fields r.tuple)))
    records

let test_time_window () =
  with_dir @@ fun dir ->
  let w = Seglog.create ~dir () in
  for i = 0 to 99 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:false (tuple i)
  done;
  Seglog.close w;
  let seen = ref [] in
  Seglog.iter ~from_:10. ~to_:19. ~dir (fun r -> seen := r.stamp :: !seen);
  Alcotest.(check (list (float 0.)))
    "window [10,19]"
    (List.init 10 (fun i -> float_of_int (10 + i)))
    (List.rev !seen)

(* --- rotation + retention --- *)

let small_config =
  { Seglog.default_config with segment_bytes = 512; buffer_bytes = 128 }

let test_rotation () =
  with_dir @@ fun dir ->
  let w = Seglog.create ~config:small_config ~dir () in
  for i = 0 to 199 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:false (tuple i)
  done;
  Seglog.close w;
  let segs = Seglog.segments ~dir in
  Alcotest.(check bool) "rotated" true (List.length segs > 1);
  List.iter
    (fun (s : Seglog.segment) ->
      Alcotest.(check bool) "sealed" true s.sealed;
      Alcotest.(check bool) "intact" true (Seglog.intact s);
      Alcotest.(check (option int)) "declared = scanned" (Some s.records)
        s.declared)
    segs;
  Alcotest.(check int) "no records lost across rotation" 200
    (List.fold_left (fun a (s : Seglog.segment) -> a + s.records) 0 segs);
  (* base sequences chain across segments *)
  ignore
    (List.fold_left
       (fun expect (s : Seglog.segment) ->
         Alcotest.(check int) "seq chains" expect s.base_seq;
         expect + s.records)
       0 segs)

let test_retention_by_count () =
  with_dir @@ fun dir ->
  let config = { small_config with retain_segments = Some 2 } in
  let w = Seglog.create ~config ~dir () in
  for i = 0 to 399 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:false (tuple i)
  done;
  Seglog.close w;
  let segs = Seglog.segments ~dir in
  (* <= 2 sealed survivors at every rotation, + the final sealed tail *)
  Alcotest.(check bool) "old segments dropped" true (List.length segs <= 3);
  let stats = Seglog.stats w in
  Alcotest.(check bool) "drops counted" true (stats.retention_drops > 0);
  Alcotest.(check int) "all records were written" 400 stats.records_written;
  (* the survivors hold the newest records *)
  let records = read_all dir in
  Alcotest.(check bool) "tail preserved" true
    (match List.rev records with last :: _ -> last.seq = 399 | [] -> false)

let test_retention_by_age () =
  with_dir @@ fun dir ->
  let config = { small_config with retain_age = Some 50. } in
  let w = Seglog.create ~config ~dir () in
  for i = 0 to 399 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:false (tuple i)
  done;
  Seglog.close w;
  Alcotest.(check bool) "drops counted" true
    ((Seglog.stats w).retention_drops > 0);
  List.iter
    (fun (r : Seglog.record) ->
      (* age is judged against the recorded clock at rotation time;
         anything older than the window by a whole segment is gone *)
      Alcotest.(check bool) "old records dropped" true (r.stamp > 250.))
    (read_all dir)

(* --- damage --- *)

let patch_byte path off f =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (f (Bytes.get b 0));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let flip c = Char.chr (Char.code c lxor 0xff)

let test_crc_corruption_skipped () =
  with_dir @@ fun dir ->
  let w = Seglog.create ~dir () in
  for i = 0 to 9 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:false (tuple i)
  done;
  Seglog.close w;
  let seg =
    match Seglog.segments ~dir with [ s ] -> s | _ -> Alcotest.fail "one segment"
  in
  (* flip one byte in the middle of the file, past the header and the
     first few records: exactly one record's CRC stops matching *)
  patch_byte seg.path (seg.bytes / 2) flip;
  let segs = Seglog.segments ~dir in
  let s = List.hd segs in
  Alcotest.(check int) "one bad record" 1 s.bad_records;
  Alcotest.(check bool) "not intact" false (Seglog.intact s);
  Alcotest.(check int) "other records survive" 9 (List.length (read_all dir))

let test_header_corruption () =
  with_dir @@ fun dir ->
  let w = Seglog.create ~dir () in
  Seglog.append w ~stamp:1. ~delete:false (tuple 1);
  Seglog.close w;
  let seg = List.hd (Seglog.segments ~dir) in
  patch_byte seg.path 0 flip;
  let s = List.hd (Seglog.segments ~dir) in
  Alcotest.(check bool) "header rejected" false s.header_ok;
  Alcotest.(check bool) "not intact" false (Seglog.intact s)

(* --- torn-tail crash recovery --- *)

let test_torn_tail_recovery () =
  with_dir @@ fun dir ->
  let w = Seglog.create ~dir () in
  for i = 0 to 9 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:false (tuple i)
  done;
  Seglog.flush w;
  (* crash: the writer never seals. Tear the last record's tail off. *)
  let seg = List.hd (Seglog.segments ~dir) in
  Alcotest.(check bool) "unsealed before recovery" false seg.sealed;
  let fd = Unix.openfile seg.path [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd (seg.bytes - 3);
  Unix.close fd;
  Alcotest.(check bool) "tail is torn" true
    (List.hd (Seglog.segments ~dir)).torn;
  (* re-opening recovers: truncates the torn record, seals in place *)
  let w2 = Seglog.create ~dir () in
  let recovered = List.hd (Seglog.segments ~dir) in
  Alcotest.(check bool) "sealed by recovery" true recovered.sealed;
  Alcotest.(check bool) "intact after recovery" true (Seglog.intact recovered);
  Alcotest.(check int) "one record truncated" 9 recovered.records;
  (* appends continue in a fresh segment with the next sequence *)
  Seglog.append w2 ~stamp:100. ~delete:false (tuple 100);
  Seglog.close w2;
  let records = read_all dir in
  Alcotest.(check int) "9 recovered + 1 new" 10 (List.length records);
  Alcotest.(check int) "seq continues after recovery" 9
    (List.nth records 9).seq

let test_empty_unsealed_deleted () =
  with_dir @@ fun dir ->
  (* a crash right after rotation leaves a header-only segment *)
  let w = Seglog.create ~dir () in
  Seglog.append w ~stamp:1. ~delete:false (tuple 1);
  Seglog.flush w;
  let seg = List.hd (Seglog.segments ~dir) in
  let fd = Unix.openfile seg.path [ Unix.O_RDWR ] 0o644 in
  (* tear off everything but the header *)
  Unix.ftruncate fd 37;
  Unix.close fd;
  (* closing the recovered writer also deletes its fresh empty segment *)
  Seglog.close (Seglog.create ~dir ());
  Alcotest.(check int) "empty segment deleted on recovery" 0
    (List.length (Seglog.segments ~dir))

(* --- wire framing property --- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.VInt i) int;
        map (fun f -> Value.VFloat f) (float_bound_inclusive 1e9);
        map (fun s -> Value.VStr s) (string_size (int_bound 40));
        map (fun b -> Value.VBool b) bool;
        map (fun s -> Value.VAddr s) (string_size (int_bound 10));
        return Value.VNull;
      ])

let record_gen =
  QCheck.Gen.(
    map3
      (* ids travel in the wire frame's u32 id field (node-local
         counters never outgrow it), so generate within it *)
      (fun id fields (stamp, delete) ->
        (stamp, delete, Tuple.make ~id:(id land 0xffffffff) "t" fields))
      int
      (list_size (int_bound 8) value_gen)
      (pair (map abs_float (float_bound_inclusive 1e6)) bool))

let prop_round_trip =
  QCheck.Test.make ~count:100 ~name:"seglog round-trips arbitrary tuples"
    (QCheck.make
       ~print:(fun recs ->
         String.concat "; "
           (List.map
              (fun (stamp, delete, t) ->
                Fmt.str "%h %b %a" stamp delete Tuple.pp t)
              recs))
       QCheck.Gen.(list_size (int_bound 50) record_gen))
    (fun recs ->
      with_dir @@ fun dir ->
      let w = Seglog.create ~config:small_config ~dir () in
      List.iter (fun (stamp, delete, t) -> Seglog.append w ~stamp ~delete t) recs;
      Seglog.close w;
      let back = read_all dir in
      if List.length back <> List.length recs then begin
        Fmt.epr "LENGTH %d vs %d@." (List.length recs) (List.length back);
        false
      end
      else
        List.for_all2
           (fun (stamp, delete, t) (r : Seglog.record) ->
             let ok = r.stamp = stamp && r.delete = delete
             && Tuple.id r.tuple = Tuple.id t
             && Tuple.name r.tuple = Tuple.name t
             && List.for_all2 Value.equal (Tuple.fields t) (Tuple.fields r.tuple) in
             if not ok then
               Fmt.epr "MISMATCH stamp %h/%h delete %b/%b id %d/%d in=%a out=%a@."
                 stamp r.stamp delete r.delete (Tuple.id t) (Tuple.id r.tuple)
                 Tuple.pp t Tuple.pp r.tuple;
             ok)
           recs back)

(* --- on-disk format pin --- *)

(* A fixed input written with small segments must leave exactly these
   files: name, length and MD5 of the full bytes. The values were
   captured from the format as first shipped (version 1); a change to
   the header layout, record framing or rotation shows up here. *)
let test_format_pinned () =
  with_dir @@ fun dir ->
  let config =
    { Seglog.default_config with segment_bytes = 256; buffer_bytes = 64 }
  in
  let w = Seglog.create ~config ~dir () in
  for i = 0 to 11 do
    Seglog.append w ~stamp:(float_of_int i *. 0.5) ~delete:(i mod 4 = 0)
      (tuple i)
  done;
  Seglog.close w;
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (fun f ->
           let s =
             In_channel.with_open_bin (Filename.concat dir f)
               In_channel.input_all
           in
           (f, String.length s, Digest.to_hex (Digest.string s)))
  in
  Alcotest.(check (list (triple string int string)))
    "segment files"
    [
      ("seg-00000001.p2sl", 293, "abf9ef0d0e26633a61a183ad86dab99d");
      ("seg-00000002.p2sl", 293, "d9dde432ad186e6a2118c5abd1454759");
      ("seg-00000003.p2sl", 295, "39e99a32e00f715f2bce01107e138fd7");
    ]
    files

let () =
  Alcotest.run "seglog"
    [
      ( "framing",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "time window" `Quick test_time_window;
          Alcotest.test_case "format pinned" `Quick test_format_pinned;
          QCheck_alcotest.to_alcotest prop_round_trip;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "rotation" `Quick test_rotation;
          Alcotest.test_case "retention by count" `Quick test_retention_by_count;
          Alcotest.test_case "retention by age" `Quick test_retention_by_age;
        ] );
      ( "damage",
        [
          Alcotest.test_case "crc corruption skipped" `Quick
            test_crc_corruption_skipped;
          Alcotest.test_case "header corruption" `Quick test_header_corruption;
          Alcotest.test_case "torn tail recovery" `Quick test_torn_tail_recovery;
          Alcotest.test_case "empty unsealed deleted" `Quick
            test_empty_unsealed_deleted;
        ] );
    ]
