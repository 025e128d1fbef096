(** Durable table checkpoints (see checkpoint.mli for the on-disk
    format contract). *)

open Overlog

(* --- Framing constants ---------------------------------------------

   Snapshot header (41 bytes, little-endian):
     0   "P2CK"                magic
     4   u8   format version   (1)
     5   f64  stamp            (virtual time of the snapshot)
     13  u64  snapshot index
     21  u32  table count
     25  u32  total row count
     29  u32  body length
     33  u32  CRC-32 of the body
     37  u32  CRC-32 of bytes [0,37)

   Body, one section per table:
     u16  name length | name | u32 row count
     then per row: u32 frame length | Wire data frame (Wire.encode) *)

let format =
  { Framed.magic = "P2CK"; version = 1; header_len = 41; prefix = "ckpt"; ext = "p2ck" }

let header_len = format.header_len

(* Length sanity bound while decoding: a frame longer than this means
   the length prefix itself is damaged. *)
let max_frame_len = 1 lsl 24

type config = { interval : float; retain : int option }

let default_config = { interval = 10.; retain = Some 3 }
let files ~dir = Framed.files format ~dir

(* --- Writer -------------------------------------------------------- *)

type stats = {
  snapshots : int;
  rows : int;
  bytes : int;
  write_ns : int;
  retention_drops : int;
  last_stamp : float;
}

type writer = {
  w_dir : string;
  config : config;
  mutable next_index : int;
  mutable closed : bool;
  mutable stats : stats;
}

(* A write that died between creating its temp file and renaming it
   (a crash, or an exception) leaves [ckpt-N.p2ck.tmp]; opening the
   writer clears them, since no reader ever looks at one. *)
let remove_stale_tmp dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".p2ck.tmp" then Framed.rm_rf (Filename.concat dir f))
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ?(config = default_config) ~dir () =
  Framed.mkdir_p dir;
  remove_stale_tmp dir;
  {
    w_dir = dir;
    config;
    next_index = Framed.next_index format ~dir ~first:0;
    closed = false;
    stats =
      {
        snapshots = 0;
        rows = 0;
        bytes = 0;
        write_ns = 0;
        retention_drops = 0;
        last_stamp = Float.nan;
      };
  }

let dir w = w.w_dir
let stats w = w.stats

let encode_header ~stamp ~index ~tables ~rows ~body =
  Framed.encode_header format (fun b ->
      Buffer.add_int64_le b (Int64.bits_of_float stamp);
      Buffer.add_int64_le b (Int64.of_int index);
      Buffer.add_int32_le b (Int32.of_int tables);
      Buffer.add_int32_le b (Int32.of_int rows);
      Buffer.add_int32_le b (Int32.of_int (String.length body));
      Buffer.add_int32_le b (Int32.of_int (Framed.crc32 body)))

let encode_body tables =
  let b = Buffer.create 4096 in
  let rows = ref 0 in
  List.iter
    (fun (name, tuples) ->
      Buffer.add_uint16_le b (String.length name);
      Buffer.add_string b name;
      Buffer.add_int32_le b (Int32.of_int (List.length tuples));
      List.iter
        (fun tuple ->
          incr rows;
          (* Tuple ids reflect allocation order, which varies across
             shard counts; snapshots carry none so seeded runs are
             byte-identical however they were executed (restores mint
             fresh ids anyway). *)
          let frame = Wire.encode (Tuple.with_id tuple 0) in
          Buffer.add_int32_le b (Int32.of_int (String.length frame));
          Buffer.add_string b frame)
        tuples)
    tables;
  (Buffer.contents b, !rows)

let write w ~stamp ~tables =
  if w.closed then invalid_arg "Checkpoint.write: closed writer";
  let t0 = Unix.gettimeofday () in
  let index = w.next_index in
  let body, rows = encode_body tables in
  let header =
    encode_header ~stamp ~index ~tables:(List.length tables) ~rows ~body
  in
  let path = Filename.concat w.w_dir (Framed.file_name format index) in
  let tmp = path ^ ".tmp" in
  (* The rename is the commit point: readers either see the previous
     set of snapshots or the complete new one, never a torn file. A
     write that raises closes its channel and leaves no temp file. *)
  Fun.protect
    ~finally:(fun () -> Framed.rm_rf tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc header;
          output_string oc body);
      Sys.rename tmp path);
  w.next_index <- index + 1;
  let drops =
    match w.config.retain with
    | Some keep -> Framed.retain ~keep (files ~dir:w.w_dir)
    | None -> 0
  in
  let s = w.stats in
  w.stats <-
    {
      snapshots = s.snapshots + 1;
      rows = s.rows + rows;
      bytes = s.bytes + String.length header + String.length body;
      write_ns = s.write_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
      retention_drops = s.retention_drops + drops;
      last_stamp = stamp;
    };
  path

let close w = w.closed <- true

(* --- Reader -------------------------------------------------------- *)

type table = { name : string; rows : Wire.message list }

type snapshot = { path : string; index : int; stamp : float; tables : table list }

let u16_at s off = String.get_uint16_le s off
let u32_at = Framed.u32_at

let decode_body ~tables body =
  let len = String.length body in
  let pos = ref 0 in
  let fail fmt = Fmt.kstr (fun m -> raise (Wire.Error m)) fmt in
  let need n what = if !pos + n > len then fail "truncated %s" what in
  let out = ref [] in
  for _ = 1 to tables do
    need 2 "table name length";
    let nlen = u16_at body !pos in
    pos := !pos + 2;
    need nlen "table name";
    let name = String.sub body !pos nlen in
    pos := !pos + nlen;
    need 4 "row count";
    let count = u32_at body !pos in
    pos := !pos + 4;
    let rows = ref [] in
    for _ = 1 to count do
      need 4 "row length";
      let flen = u32_at body !pos in
      pos := !pos + 4;
      if flen > max_frame_len then fail "row frame length %d out of range" flen;
      need flen "row frame";
      let frame = String.sub body !pos flen in
      pos := !pos + flen;
      match (Wire.decode frame).kind with
      | Wire.Data m -> rows := m :: !rows
      | _ -> fail "row frame is not a data frame"
    done;
    out := { name; rows = List.rev !rows } :: !out
  done;
  if !pos <> len then fail "trailing bytes after last table";
  List.rev !out

let row_count tables =
  List.fold_left (fun acc t -> acc + List.length t.rows) 0 tables

(* Fully verify a snapshot image: header, body length and CRC, every
   row frame, and the header's row count. *)
let decode ~path s =
  match Framed.check_header format s with
  | Error e -> Error (Fmt.str "%a" Framed.pp_header_error e)
  | Ok () -> (
      let body_len = u32_at s 29 in
      if String.length s - header_len <> body_len then
        Error
          (Fmt.str "body length %d does not match header %d"
             (String.length s - header_len) body_len)
      else if Framed.crc32_sub s header_len body_len <> u32_at s 33 then
        Error "body CRC mismatch"
      else
        match decode_body ~tables:(u32_at s 21) (String.sub s header_len body_len) with
        | exception Wire.Error e -> Error e
        | tables ->
            let rows = row_count tables and declared = u32_at s 25 in
            if rows <> declared then
              Error (Fmt.str "row count %d does not match header %d" rows declared)
            else
              Ok
                {
                  path;
                  index = Int64.to_int (String.get_int64_le s 13);
                  stamp = Int64.float_of_bits (String.get_int64_le s 5);
                  tables;
                })

let read path = Result.bind (Framed.read_file path) (decode ~path)

let latest ~dir =
  let rec scan = function
    | [] -> None
    | (_, path) :: older -> (
        match read path with Ok s -> Some s | Error _ -> scan older)
  in
  scan (List.rev (files ~dir))

(* --- Inventory ------------------------------------------------------ *)

type info = {
  i_path : string;
  i_index : int;
  i_ok : bool;
  i_error : string option;
  i_stamp : float;
  i_tables : int;
  i_rows : int;
  i_bytes : int;
}

let inventory ~dir =
  List.map
    (fun (ix, path) ->
      let contents = Framed.read_file path in
      let info =
        {
          i_path = path;
          i_index = ix;
          i_ok = false;
          i_error = None;
          i_stamp = Float.nan;
          i_tables = 0;
          i_rows = 0;
          i_bytes = Result.fold ~ok:String.length ~error:(Fun.const 0) contents;
        }
      in
      match Result.bind contents (decode ~path) with
      | Ok s ->
          let i_tables = List.length s.tables and i_rows = row_count s.tables in
          { info with i_ok = true; i_stamp = s.stamp; i_tables; i_rows }
      | Error e -> (
          let info = { info with i_error = Some e } in
          (* a damaged file still shows its stamp when the magic holds *)
          match contents with
          | Ok s when String.length s >= 13 && String.sub s 0 4 = format.magic ->
              { info with i_stamp = Int64.float_of_bits (String.get_int64_le s 5) }
          | _ -> info))
    (files ~dir)
