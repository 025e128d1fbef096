(** The file layer shared by the flight recorder ({!Seglog}) and
    durable checkpoints ({!Checkpoint}): CRC-32, the CRC'd header,
    numbered files, retention by count, and directory and whole-file
    helpers. Each format keeps only its schema on top: header fields,
    record or body codec, and writer policy (DESIGN.md §15). *)

(** CRC-32 (IEEE 802.3, reflected): [crc32 "123456789" = 0xCBF43926]. *)
val crc32 : string -> int

(** CRC-32 of the [len] bytes of a string from offset [off]. *)
val crc32_sub : string -> int -> int -> int

(** Unsigned little-endian 32-bit field at a byte offset. *)
val u32_at : string -> int -> int

(** One on-disk format. Its files are named [<prefix>-%08d.<ext>] and
    start with a header of [header_len] bytes, little-endian:
    [magic | u8 version | fields | u32 CRC-32 of all preceding bytes]. *)
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

val pp_header_error : header_error Fmt.t

(** Magic and version, the bytes [fields] appends, then the CRC. *)
val encode_header : format -> (Buffer.t -> unit) -> string

(** Check the header at the start of a file image (which may run on
    past it). *)
val check_header : format -> string -> (unit, header_error) result

val file_name : format -> int -> string

(** (index, path) of the format's files in [dir], oldest first; []
    for a missing directory. *)
val files : format -> dir:string -> (int * string) list

(** One past the newest index in [dir], or [first] if there is none. *)
val next_index : format -> dir:string -> first:int -> int

(** Delete all but the newest [keep] of [files] (oldest first, as
    {!files} lists them); returns how many were dropped. *)
val retain : keep:int -> (int * string) list -> int

val mkdir_p : string -> unit

(** Delete a file or directory tree; a missing path is fine. *)
val rm_rf : string -> unit

(** A file's contents, or at most its first [max] bytes. *)
val read_file : ?max:int -> string -> (string, string) result
