(* The file layer shared by the segment log and checkpoints
   (lib/core/framed): CRC-32 vectors, typed header checks, numbered
   files, retention, and a mutation property over both formats' read
   paths — damaged files must be reported, never raise. *)

open Overlog

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "p2framed_test_%d_%d" (Unix.getpid ()) !dir_counter)

let with_dir f =
  let dir = fresh_dir () in
  Framed.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Framed.rm_rf dir) (fun () -> f dir)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- crc32 reference vectors --- *)

let test_crc32_vectors () =
  (* IEEE 802.3 reflected CRC-32 check values *)
  Alcotest.(check int) "crc32(\"\")" 0 (Framed.crc32 "");
  Alcotest.(check int)
    "crc32(\"123456789\")" 0xCBF43926
    (Framed.crc32 "123456789");
  Alcotest.(check int) "crc32_sub = crc32 of the substring" 0xCBF43926
    (Framed.crc32_sub "xx123456789yy" 2 9)

(* --- headers --- *)

let fmt =
  { Framed.magic = "TEST"; version = 3; header_len = 17; prefix = "seg"; ext = "p2sl" }

let valid = Framed.encode_header fmt (fun b -> Buffer.add_int64_le b 42L)

let header_error =
  Alcotest.testable Framed.pp_header_error ( = )

let check_reason name expect image =
  Alcotest.(check (result unit header_error)) name expect
    (Framed.check_header fmt image)

let patch s off c =
  let b = Bytes.of_string s in
  Bytes.set b off c;
  Bytes.to_string b

let test_header_reasons () =
  Alcotest.(check int) "encoded length" 17 (String.length valid);
  check_reason "valid header" (Ok ()) valid;
  check_reason "image may run past the header" (Ok ()) (valid ^ "body");
  check_reason "short file" (Error Framed.Short_file) (String.sub valid 0 16);
  check_reason "bad magic" (Error Framed.Bad_magic) (patch valid 0 'X');
  check_reason "version" (Error (Framed.Unsupported_version 4))
    (patch valid 4 '\004');
  check_reason "field damage" (Error Framed.Crc_mismatch) (patch valid 6 '\255');
  check_reason "crc damage" (Error Framed.Crc_mismatch) (patch valid 16 '\000')

(* --- numbered files and retention --- *)

let test_numbered_files () =
  with_dir @@ fun dir ->
  Alcotest.(check string) "name" "seg-00000007.p2sl" (Framed.file_name fmt 7);
  Alcotest.(check int) "empty dir starts at first" 1
    (Framed.next_index fmt ~dir ~first:1);
  List.iter
    (fun f -> write_file (Filename.concat dir f) "")
    [
      "seg-00000003.p2sl"; "seg-00000001.p2sl"; "seg-00000002.p2sl.tmp";
      "ckpt-00000007.p2ck"; "seg-0000007.p2sl"; "seg-0000000x.p2sl"; "notes.txt";
    ];
  Alcotest.(check (list int)) "listing skips other names, oldest first" [ 1; 3 ]
    (List.map fst (Framed.files fmt ~dir));
  Alcotest.(check int) "next index" 4 (Framed.next_index fmt ~dir ~first:1);
  Alcotest.(check (list int)) "missing dir lists nothing" []
    (List.map fst (Framed.files fmt ~dir:(Filename.concat dir "absent")))

let test_retain () =
  with_dir @@ fun dir ->
  for i = 0 to 4 do
    write_file (Filename.concat dir (Framed.file_name fmt i)) ""
  done;
  Alcotest.(check int) "drops counted" 3
    (Framed.retain ~keep:2 (Framed.files fmt ~dir));
  Alcotest.(check (list int)) "newest kept" [ 3; 4 ]
    (List.map fst (Framed.files fmt ~dir));
  Alcotest.(check int) "nothing to drop" 0
    (Framed.retain ~keep:5 (Framed.files fmt ~dir))

let test_dirs () =
  let root = fresh_dir () in
  let deep = Filename.concat (Filename.concat root "a") "b" in
  Framed.mkdir_p deep;
  Framed.mkdir_p deep;
  write_file (Filename.concat deep "f") "x";
  Alcotest.(check (result string string)) "read back" (Ok "x")
    (Framed.read_file (Filename.concat deep "f"));
  Alcotest.(check (result string string)) "prefix of a short file" (Ok "x")
    (Framed.read_file ~max:8 (Filename.concat deep "f"));
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Framed.read_file (Filename.concat deep "nope")));
  Framed.rm_rf root;
  Alcotest.(check bool) "tree removed" false (Sys.file_exists root);
  Framed.rm_rf root

(* --- mutation property over both read paths --- *)

let tuple i =
  Tuple.make ~id:i "obs"
    [ Value.VAddr "n1"; Value.VInt i; Value.VStr (Fmt.str "payload-%d" i) ]

(* Sealed segment images from a small-segment log, and snapshot
   images from two checkpoint writes. *)
let segment_images, snapshot_images =
  with_dir @@ fun dir ->
  let log = Filename.concat dir "log" and ckpt = Filename.concat dir "ckpt" in
  let w =
    Seglog.create
      ~config:{ Seglog.default_config with segment_bytes = 256; buffer_bytes = 64 }
      ~dir:log ()
  in
  for i = 0 to 11 do
    Seglog.append w ~stamp:(float_of_int i) ~delete:(i mod 5 = 0) (tuple i)
  done;
  Seglog.close w;
  let c = Checkpoint.create ~dir:ckpt () in
  ignore (Checkpoint.write c ~stamp:1. ~tables:[ ("obs", List.init 3 tuple) ]);
  ignore
    (Checkpoint.write c ~stamp:2.
       ~tables:[ ("a", [ tuple 7 ]); ("obs", List.init 5 tuple) ]);
  Checkpoint.close c;
  let images ls = Array.of_list (List.map (fun (_, p) -> read_file p) ls) in
  ( images (Framed.files fmt ~dir:log),
    images (Checkpoint.files ~dir:ckpt) )

(* Offsets of the u32 length and count fields in a valid image. *)
let segment_length_fields s =
  let rec go off acc =
    if off + 8 > String.length s then List.rev acc
    else go (off + 8 + Framed.u32_at s off) (off :: acc)
  in
  29 :: go 37 []

let snapshot_length_fields s =
  let pos = ref 41 and acc = ref [ 21; 25; 29 ] in
  for _ = 1 to Framed.u32_at s 21 do
    pos := !pos + 2 + String.get_uint16_le s !pos;
    acc := !pos :: !acc;
    let rows = Framed.u32_at s !pos in
    pos := !pos + 4;
    for _ = 1 to rows do
      acc := !pos :: !acc;
      pos := !pos + 4 + Framed.u32_at s !pos
    done
  done;
  List.rev !acc

(* Recompute a snapshot's body and header CRCs, so a lying length
   reaches the body decoder instead of stopping at a checksum. *)
let reseal_snapshot s =
  let b = Bytes.of_string s in
  let body_crc = Framed.crc32_sub s 41 (String.length s - 41) in
  Bytes.set_int32_le b 33 (Int32.of_int body_crc);
  let header_crc = Framed.crc32_sub (Bytes.to_string b) 0 37 in
  Bytes.set_int32_le b 37 (Int32.of_int header_crc);
  Bytes.to_string b

type target = Segment | Snapshot

type mutation =
  | Flip of int * int  (** byte offset, bit *)
  | Truncate of int  (** new length *)
  | Huge_length of int * int  (** field offset, value *)
  | Splice of int * int * int  (** other image, cut in this, cut in other *)

let pp_mutation ppf = function
  | Flip (off, bit) -> Fmt.pf ppf "flip bit %d of byte %d" bit off
  | Truncate n -> Fmt.pf ppf "truncate to %d bytes" n
  | Huge_length (off, v) -> Fmt.pf ppf "u32 at %d := %#x" off v
  | Splice (j, a, b) -> Fmt.pf ppf "splice [0,%d) with image %d from %d" a j b

let case_gen =
  let open QCheck.Gen in
  let* target = oneofl [ Segment; Snapshot ] in
  let images = match target with Segment -> segment_images | Snapshot -> snapshot_images in
  let* i = int_bound (Array.length images - 1) in
  let s = images.(i) in
  let len = String.length s in
  let+ m =
    oneof
      [
        map2 (fun off bit -> Flip (off, bit)) (int_bound (len - 1)) (int_bound 7);
        map (fun n -> Truncate n) (int_bound (len - 1));
        map2
          (fun off v -> Huge_length (off, v))
          (oneofl
             (match target with
             | Segment -> segment_length_fields s
             | Snapshot -> snapshot_length_fields s))
          (oneofl [ 0xFFFFFFFF; 0x7FFFFFFF; 0x80000000; 0x01000001; len + 1 ]);
        (let* j = int_bound (Array.length images - 1) in
         let+ a = int_bound len and+ b = int_bound (String.length images.(j)) in
         Splice (j, a, b));
      ]
  in
  (target, i, m)

let mutate target i m =
  let images = match target with Segment -> segment_images | Snapshot -> snapshot_images in
  let s = images.(i) in
  match m with
  | Flip (off, bit) ->
      patch s off (Char.chr (Char.code s.[off] lxor (1 lsl bit)))
  | Truncate n -> String.sub s 0 n
  | Huge_length (off, v) ->
      let b = Bytes.of_string s in
      Bytes.set_int32_le b off (Int32.of_int v);
      let s = Bytes.to_string b in
      if target = Snapshot then reseal_snapshot s else s
  | Splice (j, a, b) ->
      let o = images.(j) in
      String.sub s 0 a ^ String.sub o b (String.length o - b)

(* Reading the damaged file must not raise; every flip, truncation and
   lying length must be reported as damage (splices may happen to
   form a valid file). *)
let survives (target, i, m) =
  with_dir @@ fun dir ->
  let image = mutate target i m in
  let must_detect = match m with Splice _ -> false | _ -> true in
  match target with
  | Segment ->
      write_file (Filename.concat dir "seg-00000001.p2sl") image;
      let segs = Seglog.segments ~dir in
      Seglog.iter ~dir ignore;
      Seglog.iter ~from_:3. ~to_:5. ~dir ignore;
      (not must_detect) || List.for_all (fun s -> not (Seglog.intact s)) segs
  | Snapshot ->
      let path = Filename.concat dir "ckpt-00000000.p2ck" in
      write_file path image;
      let read = Checkpoint.read path in
      let latest = Checkpoint.latest ~dir in
      (not must_detect) || (Result.is_error read && latest = None)

let prop_mutations =
  QCheck.Test.make ~count:1000
    ~name:"damaged segments and snapshots are reported, never raise"
    (QCheck.make
       ~print:(fun (target, i, m) ->
         Fmt.str "%s %d: %a"
           (match target with Segment -> "segment" | Snapshot -> "snapshot")
           i pp_mutation m)
       case_gen)
    survives

let () =
  Alcotest.run "framed"
    [
      ( "framing",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "header reasons" `Quick test_header_reasons;
        ] );
      ( "files",
        [
          Alcotest.test_case "numbered files" `Quick test_numbered_files;
          Alcotest.test_case "retention by count" `Quick test_retain;
          Alcotest.test_case "mkdir_p, rm_rf, read_file" `Quick test_dirs;
        ] );
      ("mutation", [ QCheck_alcotest.to_alcotest prop_mutations ]);
    ]
