(** Durable table checkpoints — the crash-restart half of the fault
    model (docs/OPERATIONS.md "Durable checkpoints").

    A checkpoint directory (one per node, beside its flight-recorder
    seglog) holds numbered snapshot files named [ckpt-NNNNNNNN.p2ck].
    Each file is a complete image of the node's hard-state tables at
    one virtual instant: a CRC'd header followed by per-table sections
    whose rows are {!Overlog.Wire}-encoded data frames, so external
    tools can parse a checkpoint with nothing but this spec and the
    wire codec. Files are written to a temporary name and atomically
    renamed into place — a crash mid-write never leaves a damaged
    checkpoint visible, only (at worst) a stale [.tmp] that readers
    ignore and the next writer deletes. Retention keeps the newest N
    snapshots. Header checks, file numbering and retention come from
    {!Framed}, the file layer shared with the segment log.

    Determinism: the byte image is a pure function of (stamp, index,
    table contents in catalog order, row order, tuple ids). Because
    the engine only writes checkpoints from single-threaded host
    context and sharded runs reproduce table state bit-for-bit, seeded
    runs yield byte-identical checkpoint files for every shard count
    (DESIGN.md §16). *)

open Overlog

(** Writer tuning. [interval] is consumed by the engine's periodic
    scheduler ({!P2_runtime.Engine.set_checkpoint}), not by this
    module; it lives here so one record configures the subsystem. *)
type config = {
  interval : float;  (** virtual seconds between periodic snapshots *)
  retain : int option;
      (** keep at most this many snapshot files; the oldest are
          deleted after each successful write ([None]: unbounded) *)
}

(** 10-second cadence, newest 3 snapshots retained. *)
val default_config : config

(** {1 Writing} *)

type writer

(** Open (or re-open) a node's checkpoint directory, creating it if
    needed, and delete any stale [*.p2ck.tmp] an interrupted write
    left; numbering continues after the highest existing snapshot,
    so a restarted process never overwrites history it might still
    need to fall back to. *)
val create : ?config:config -> dir:string -> unit -> writer

val dir : writer -> string

(** Write one complete snapshot: [tables] in the order given (the
    engine passes catalog order — sorted by name — with rows in
    insertion order). Returns the path of the new snapshot file.
    The write is atomic (temp file + rename) and applies retention
    afterwards; if it raises, the temp file is closed and removed.
    Raises [Invalid_argument] on a closed writer. *)
val write : writer -> stamp:float -> tables:(string * Tuple.t list) list -> string

(** Release the writer. Snapshot files stay on disk. *)
val close : writer -> unit

(** Cumulative writer counters (the [ckpt.*] metrics). *)
type stats = {
  snapshots : int;  (** snapshot files written *)
  rows : int;  (** table rows written across all snapshots *)
  bytes : int;  (** file bytes written across all snapshots *)
  write_ns : int;  (** cumulative wall time spent inside {!write} *)
  retention_drops : int;  (** snapshot files deleted by retention *)
  last_stamp : float;  (** stamp of the newest snapshot (nan if none) *)
}

val stats : writer -> stats

(** {1 Reading} *)

(** One decoded snapshot. Rows come back as wire messages — name,
    fields and the recorded source-tuple id — ready to re-mint on a
    restarted node. *)
type table = { name : string; rows : Wire.message list }

type snapshot = { path : string; index : int; stamp : float; tables : table list }

(** Decode and fully verify one snapshot file: magic, version, header
    CRC, body CRC, and per-row wire decoding. [Error] carries a
    human-readable reason. *)
val read : string -> (snapshot, string) result

(** (index, path) of every snapshot file in the directory, oldest
    first; [] for a missing directory. *)
val files : dir:string -> (int * string) list

(** The newest snapshot that passes full verification, scanning
    backwards past damaged files — the restart path's fallback chain.
    [None] when the directory holds no intact snapshot (cold boot). *)
val latest : dir:string -> snapshot option

(** Per-file inventory, as reported by [p2ql inventory]. *)
type info = {
  i_path : string;
  i_index : int;
  i_ok : bool;
  i_error : string option;  (** verification failure, when not ok *)
  i_stamp : float;  (** nan when the header is unreadable *)
  i_tables : int;
  i_rows : int;
  i_bytes : int;  (** file size *)
}

val inventory : dir:string -> info list
