(** Append-only binary segment log for trace records (see
    seglog.mli and docs/FORENSICS.md for the on-disk format spec). *)

open Overlog

(* --- Framing constants ---------------------------------------------

   Segment header (37 bytes, little-endian):
     0   "P2SL"                magic
     4   u8   format version   (1)
     5   f64  base stamp       (first record's stamp; nan while open)
     13  u64  base seq         (log-wide seq of the first record)
     21  f64  last stamp       (newest record's stamp; nan while open)
     29  u32  record count     (0xFFFFFFFF while open)
     33  u32  CRC-32 of bytes [0,33)

   Record:
     u32  payload length
     u32  CRC-32 of the payload
     payload = f64 stamp | Wire data frame (Wire.encode) *)

let format =
  { Framed.magic = "P2SL"; version = 1; header_len = 37; prefix = "seg"; ext = "p2sl" }
let count_sentinel = 0xFFFFFFFF

(* Length sanity bound during scans: a frame longer than this means
   the length prefix itself is damaged, so treat the tail as torn. *)
let max_record_len = 1 lsl 24

(* --- Config -------------------------------------------------------- *)

type config = {
  segment_bytes : int;
  retain_segments : int option;
  retain_age : float option;
  buffer_bytes : int;
}

let default_config =
  {
    segment_bytes = 4 * 1024 * 1024;
    retain_segments = None;
    retain_age = None;
    buffer_bytes = 256 * 1024;
  }

let seg_files dir = Framed.files format ~dir

(* --- Header codec -------------------------------------------------- *)

let encode_header ~base_stamp ~base_seq ~last_stamp ~count =
  Framed.encode_header format (fun b ->
      Buffer.add_int64_le b (Int64.bits_of_float base_stamp);
      Buffer.add_int64_le b (Int64.of_int base_seq);
      Buffer.add_int64_le b (Int64.bits_of_float last_stamp);
      Buffer.add_int32_le b (Int32.of_int count))

type header = {
  h_base_stamp : float;
  h_base_seq : int;
  h_last_stamp : float;
  h_count : int;
}

let decode_header s =
  match Framed.check_header format s with
  | Error _ -> None
  | Ok () ->
      Some
        {
          h_base_stamp = Int64.float_of_bits (String.get_int64_le s 5);
          h_base_seq = Int64.to_int (String.get_int64_le s 13);
          h_last_stamp = Int64.float_of_bits (String.get_int64_le s 21);
          h_count = Framed.u32_at s 29;
        }

(* --- Record framing ------------------------------------------------ *)

let frame_record ~stamp ~delete tuple =
  let frame = Wire.encode ~delete tuple in
  let plen = 8 + String.length frame in
  let b = Bytes.create (8 + plen) in
  Bytes.set_int32_le b 0 (Int32.of_int plen);
  Bytes.set_int64_le b 8 (Int64.bits_of_float stamp);
  Bytes.blit_string frame 0 b 16 (String.length frame);
  let crc = Framed.crc32_sub (Bytes.unsafe_to_string b) 8 plen in
  Bytes.set_int32_le b 4 (Int32.of_int crc);
  Bytes.unsafe_to_string b

(* Visit every CRC-good record payload in a segment image as
   [visit image offset length]; returns (good count, end offset of the
   last complete record, torn?, CRC-bad count). CRC-bad records with
   intact framing are skipped and the scan continues; incomplete
   framing at the tail stops it. *)
let scan_payloads s visit =
  let len = String.length s in
  let rec go off good bad =
    if off + 8 > len then (good, off, off < len, bad)
    else
      let plen = Framed.u32_at s off in
      if plen = 0 || plen > max_record_len || off + 8 + plen > len then
        (good, off, true, bad)
      else if Framed.crc32_sub s (off + 8) plen <> Framed.u32_at s (off + 4)
      then go (off + 8 + plen) good (bad + 1)
      else begin
        visit s (off + 8) plen;
        go (off + 8 + plen) (good + 1) bad
      end
  in
  go format.header_len 0 0

let stamp_at s off = Int64.float_of_bits (String.get_int64_le s off)

(* First and last record stamps of a segment image, by scanning. *)
let scan_stamps s =
  let first = ref Float.nan and last = ref Float.nan in
  let scan =
    scan_payloads s (fun s off plen ->
        if plen >= 8 then begin
          let st = stamp_at s off in
          if Float.is_nan !first then first := st;
          last := st
        end)
  in
  (!first, !last, scan)

(* The (delete, tuple) of a payload at least 8 bytes long. *)
let decode_payload s off plen =
  match Wire.decode (String.sub s (off + 8) (plen - 8)) with
  | { Wire.kind = Wire.Data m; _ } ->
      Some (m.Wire.delete, Tuple.make ~id:m.Wire.src_tuple_id m.Wire.name m.Wire.fields)
  | _ -> None
  | exception Wire.Error _ -> None

let read_file path = Result.value (Framed.read_file path) ~default:""

(* --- Writer -------------------------------------------------------- *)

type stats = {
  segments_sealed : int;
  records_written : int;
  bytes_written : int;
  flush_ns : int;
  retention_drops : int;
}

type writer = {
  config : config;
  w_dir : string;
  mutable chan : out_channel;
  mutable cur_index : int;
  mutable cur_base_seq : int;
  mutable cur_first_stamp : float;  (* nan until the first record *)
  mutable cur_last_stamp : float;
  mutable cur_records : int;
  mutable cur_bytes : int;  (* file bytes including the header *)
  mutable pending : (float * string) list;  (* newest first *)
  mutable pending_bytes : int;
  mutable next_seq : int;  (* log-wide seq of the next append *)
  mutable closed : bool;
  mutable stats : stats;
}

let dir w = w.w_dir

let stats w = w.stats

(* Patch a header in place through a raw fd (also used by recovery,
   which may need to truncate a torn tail with the same handle). *)
let rewrite_header ?truncate_at path header =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Option.iter (Unix.ftruncate fd) truncate_at;
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let b = Bytes.of_string header in
      let n = Unix.write fd b 0 (Bytes.length b) in
      if n <> Bytes.length b then failwith "Seglog: short header write")

let cur_path w = Filename.concat w.w_dir (Framed.file_name format w.cur_index)

let open_segment w =
  let chan = open_out_bin (cur_path w) in
  output_string chan
    (encode_header ~base_stamp:Float.nan ~base_seq:w.next_seq
       ~last_stamp:Float.nan ~count:count_sentinel);
  Stdlib.flush chan;
  w.chan <- chan;
  w.cur_base_seq <- w.next_seq;
  w.cur_first_stamp <- Float.nan;
  w.cur_last_stamp <- Float.nan;
  w.cur_records <- 0;
  w.cur_bytes <- format.header_len

(* Seal the current segment: patch the header with the real stamps and
   count. An empty segment is deleted instead. *)
let seal_current w =
  Stdlib.flush w.chan;
  close_out w.chan;
  if w.cur_records = 0 then Sys.remove (cur_path w)
  else begin
    rewrite_header (cur_path w)
      (encode_header ~base_stamp:w.cur_first_stamp ~base_seq:w.cur_base_seq
         ~last_stamp:w.cur_last_stamp ~count:w.cur_records);
    w.stats <- { w.stats with segments_sealed = w.stats.segments_sealed + 1 }
  end

(* Read just the header of a sealed segment (37 bytes). *)
let read_header path =
  match Framed.read_file ~max:format.header_len path with
  | Ok s -> decode_header s
  | Error _ -> None

(* Drop sealed segments beyond the count / age horizons. [now_stamp]
   is the node-local stamp of the newest record (ages are measured on
   the recorded clock, not wall time). *)
let apply_retention w ~now_stamp =
  let sealed () =
    List.filter (fun (ix, _) -> ix <> w.cur_index) (seg_files w.w_dir)
  in
  let by_count =
    match w.config.retain_segments with
    | Some keep when keep >= 0 -> Framed.retain ~keep (sealed ())
    | _ -> 0
  in
  let by_age =
    match w.config.retain_age with
    | Some age ->
        Framed.retain ~keep:0
          (List.filter
             (fun (_, path) ->
               match read_header path with
               | Some h when h.h_count <> count_sentinel ->
                   h.h_last_stamp < now_stamp -. age
               | _ -> false)
             (sealed ()))
    | None -> 0
  in
  let drops = w.stats.retention_drops + by_count + by_age in
  w.stats <- { w.stats with retention_drops = drops }

let roll w ~now_stamp =
  seal_current w;
  w.cur_index <- w.cur_index + 1;
  open_segment w;
  (* after the index advance, so the freshly sealed segment is part of
     the retention census *)
  apply_retention w ~now_stamp

let flush w =
  if w.pending <> [] then begin
    let t0 = Unix.gettimeofday () in
    let items = List.rev w.pending in
    let bytes = w.pending_bytes in
    w.pending <- [];
    w.pending_bytes <- 0;
    List.iter
      (fun (stamp, framed) ->
        if w.cur_bytes >= w.config.segment_bytes && w.cur_records > 0 then
          roll w ~now_stamp:stamp;
        output_string w.chan framed;
        if w.cur_records = 0 then w.cur_first_stamp <- stamp;
        w.cur_last_stamp <- stamp;
        (* seq advances as records reach the segment, not as they are
           buffered — rolling mid-flush must hand the new segment the
           seq of the next record it will actually hold *)
        w.next_seq <- w.next_seq + 1;
        w.cur_records <- w.cur_records + 1;
        w.cur_bytes <- w.cur_bytes + String.length framed)
      items;
    Stdlib.flush w.chan;
    let s = w.stats in
    w.stats <-
      {
        s with
        records_written = s.records_written + List.length items;
        bytes_written = s.bytes_written + bytes;
        flush_ns = s.flush_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
      }
  end

let append w ~stamp ~delete tuple =
  if w.closed then invalid_arg "Seglog.append: writer is closed";
  let framed = frame_record ~stamp ~delete tuple in
  w.pending <- (stamp, framed) :: w.pending;
  w.pending_bytes <- w.pending_bytes + String.length framed;
  if w.pending_bytes >= w.config.buffer_bytes then flush w

let close w =
  if not w.closed then begin
    flush w;
    seal_current w;
    w.closed <- true
  end

(* Crash recovery for one unsealed (or torn) segment: scan, truncate
   the torn tail, and seal in place with the recovered stamps/count.
   Returns the seq one past the segment's last record, or [None] when
   the header itself is unreadable (the file is left untouched). *)
let recover_segment path =
  let contents = read_file path in
  match decode_header contents with
  | None -> None
  | Some h ->
      let first, last, (count, end_off, torn, _bad) = scan_stamps contents in
      if count = 0 then begin
        Sys.remove path;
        Some h.h_base_seq
      end
      else begin
        if torn || h.h_count = count_sentinel then
          rewrite_header path
            ?truncate_at:(if torn then Some end_off else None)
            (encode_header ~base_stamp:first ~base_seq:h.h_base_seq
               ~last_stamp:last ~count);
        Some (h.h_base_seq + count)
      end

let create ?(config = default_config) ~dir () =
  Framed.mkdir_p dir;
  (* Numbering continues past every segment on disk, including an
     empty one that recovery is about to delete. *)
  let next_index = Framed.next_index format ~dir ~first:1 in
  (* Recover every unsealed segment (normally just the last one a
     crash left behind); sealed headers are trusted for the sequence
     handoff without rescanning their records. *)
  let next_seq =
    List.fold_left
      (fun next_seq (_, path) ->
        let seg_next =
          match read_header path with
          | Some h when h.h_count <> count_sentinel ->
              Some (h.h_base_seq + h.h_count)
          | Some _ -> recover_segment path
          | None -> None
        in
        max next_seq (Option.value seg_next ~default:0))
      0 (seg_files dir)
  in
  let w =
    {
      config;
      w_dir = dir;
      chan = stdout;  (* replaced by open_segment below *)
      cur_index = next_index;
      cur_base_seq = next_seq;
      cur_first_stamp = Float.nan;
      cur_last_stamp = Float.nan;
      cur_records = 0;
      cur_bytes = 0;
      pending = [];
      pending_bytes = 0;
      next_seq;
      closed = false;
      stats =
        {
          segments_sealed = 0;
          records_written = 0;
          bytes_written = 0;
          flush_ns = 0;
          retention_drops = 0;
        };
    }
  in
  open_segment w;
  w

(* --- Reading ------------------------------------------------------- *)

type record = { stamp : float; seq : int; delete : bool; tuple : Tuple.t }

let iter ?(from_ = neg_infinity) ?(to_ = infinity) ~dir f =
  List.iter
    (fun (_, path) ->
      match read_header path with
      | None -> ()
      | Some h ->
          let sealed = h.h_count <> count_sentinel in
          (* Sealed segments wholly outside the window need only their
             headers. *)
          if not (sealed && (h.h_base_stamp > to_ || h.h_last_stamp < from_))
          then begin
            let contents = read_file path in
            let next = ref h.h_base_seq in
            ignore
              (scan_payloads contents (fun s off plen ->
                   let seq = !next in
                   incr next;
                   if plen >= 8 then
                     let stamp = stamp_at s off in
                     if from_ <= stamp && stamp <= to_ then
                       match decode_payload s off plen with
                       | Some (delete, tuple) -> f { stamp; seq; delete; tuple }
                       | None -> ()))
          end)
    (seg_files dir)

type segment = {
  path : string;
  header_ok : bool;
  sealed : bool;
  base_stamp : float;
  base_seq : int;
  last_stamp : float;
  records : int;
  declared : int option;
  bytes : int;
  torn : bool;
  bad_records : int;
}

(* What [segments] reports for a file whose header does not check. *)
let no_header =
  {
    h_base_stamp = Float.nan;
    h_base_seq = -1;
    h_last_stamp = Float.nan;
    h_count = count_sentinel;
  }

let segments ~dir =
  List.map
    (fun (_, path) ->
      let contents = read_file path in
      let header_ok, h =
        match decode_header contents with Some h -> (true, h) | None -> (false, no_header)
      in
      let first, last, (records, _end_off, torn, bad_records) =
        if header_ok then scan_stamps contents else (Float.nan, Float.nan, (0, 0, true, 0))
      in
      let sealed = h.h_count <> count_sentinel in
      {
        path;
        header_ok;
        sealed;
        base_stamp = (if sealed then h.h_base_stamp else first);
        base_seq = h.h_base_seq;
        last_stamp = (if sealed then h.h_last_stamp else last);
        records;
        declared = (if sealed then Some h.h_count else None);
        bytes = String.length contents;
        torn;
        bad_records;
      })
    (seg_files dir)

let intact s =
  s.header_ok && (not s.torn) && s.bad_records = 0
  && match s.declared with None -> true | Some n -> n = s.records
