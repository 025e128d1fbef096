(* Shared file layer under Seglog and Checkpoint (see framed.mli). *)

(* CRC-32 (IEEE 802.3, reflected), table-driven. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Framed.crc32_sub";
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)
let u32_at s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

type format = {
  magic : string;
  version : int;
  header_len : int;
  prefix : string;
  ext : string;
}

type header_error =
  | Short_file
  | Bad_magic
  | Unsupported_version of int
  | Crc_mismatch

let pp_header_error ppf = function
  | Short_file -> Fmt.string ppf "file shorter than header"
  | Bad_magic -> Fmt.string ppf "bad magic"
  | Unsupported_version v -> Fmt.pf ppf "unsupported version %d" v
  | Crc_mismatch -> Fmt.string ppf "header CRC mismatch"

let encode_header f fields =
  let b = Buffer.create f.header_len in
  Buffer.add_string b f.magic;
  Buffer.add_uint8 b f.version;
  fields b;
  Buffer.add_int32_le b (Int32.of_int (crc32 (Buffer.contents b)));
  Buffer.contents b

let check_header f s =
  let m = String.length f.magic in
  if String.length s < f.header_len then Error Short_file
  else if String.sub s 0 m <> f.magic then Error Bad_magic
  else if Char.code s.[m] <> f.version then
    Error (Unsupported_version (Char.code s.[m]))
  else if u32_at s (f.header_len - 4) <> crc32_sub s 0 (f.header_len - 4) then
    Error Crc_mismatch
  else Ok ()

let file_name f ix = Fmt.str "%s-%08d.%s" f.prefix ix f.ext

let index_of f name =
  let p = String.length f.prefix in
  if
    String.length name = p + 10 + String.length f.ext
    && String.sub name 0 (p + 1) = f.prefix ^ "-"
    && Filename.check_suffix name ("." ^ f.ext)
  then int_of_string_opt (String.sub name (p + 1) 8)
  else None

let files f ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun n ->
             Option.map (fun ix -> (ix, Filename.concat dir n)) (index_of f n))
      |> List.sort compare

let next_index f ~dir ~first =
  match List.rev (files f ~dir) with (ix, _) :: _ -> ix + 1 | [] -> first

let remove path = try Sys.remove path with Sys_error _ -> ()

let retain ~keep files =
  let excess = List.length files - keep in
  List.iteri (fun i (_, path) -> if i < excess then remove path) files;
  max 0 excess

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> remove path

let read_file ?max path =
  match
    In_channel.with_open_bin path (fun ic ->
        match max with
        | None -> In_channel.input_all ic
        | Some n ->
            let n = min n (Int64.to_int (In_channel.length ic)) in
            Option.value ~default:"" (In_channel.really_input_string ic n))
  with
  | s -> Ok s
  | exception Sys_error e -> Error e
