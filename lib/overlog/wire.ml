(** Binary wire format for transport frames.

    P2 marshals tuples onto UDP; the simulator does not need real
    sockets, but encoding messages for real gives honest on-the-wire
    byte counts for the bandwidth metrics and guarantees that
    everything a program sends is actually serializable.

    Version 2 adds the reliable-transport header: every frame carries a
    kind (data / ack / heartbeat), a per-channel sequence number and a
    cumulative acknowledgement, so the runtime's transport layer can
    retransmit, suppress duplicates and piggyback acks on reverse
    traffic. Version-1 frames (no transport header) are rejected with a
    clean {!Error}.

    Format (all integers little-endian):
    {v
      frame     := u8 version | u8 kind | u32 seq | u32 ack | payload
      payload   := data                  (kind 0)
                 | (empty)               (kind 1: ack, kind 2: heartbeat)
                 | u16 count | data*     (kind 3: delta batch)
      data      := u32 src_tuple_id | u8 flags | str name | u16 nfields | field*
      field     := u8 tag | payload
      str       := u16 length | bytes
    v}
    Flags bit 0 marks delete-pattern messages.

    A delta batch (kind 3) coalesces the tuples one event ships to one
    peer into one frame consuming one sequence number; the receiver unbatches it and delivers the
    messages in item order, so batching is invisible above the
    transport. *)

exception Error of string

let version = 2

let flag_delete = 1

(* --- encoding --- *)

let put_u8 buf i = Buffer.add_char buf (Char.chr (i land 0xff))

let check_u16 i = if i < 0 || i > 0xffff then raise (Error "u16 out of range")

let put_u16 buf i =
  check_u16 i;
  Buffer.add_uint16_le buf i

(* The low 32 bits of [i]: [Int32.of_int] wraps modulo 2^32. *)
let put_u32 buf i = Buffer.add_int32_le buf (Int32.of_int i)
let put_int64 buf i = Buffer.add_int64_le buf i

let put_i64 buf i = put_int64 buf (Int64.of_int i)

(* float bits use all 64 bits: they must never pass through OCaml's
   63-bit int *)
let put_f64 buf f = put_int64 buf (Int64.bits_of_float f)

let check_str s = if String.length s > 0xffff then raise (Error "string too long")

let put_str buf s =
  check_str s;
  put_u16 buf (String.length s);
  Buffer.add_string buf s

let rec put_value buf v =
  match v with
  | Value.VInt i ->
      put_u8 buf 0;
      put_i64 buf i
  | Value.VFloat f ->
      put_u8 buf 1;
      put_f64 buf f
  | Value.VStr s ->
      put_u8 buf 2;
      put_str buf s
  | Value.VBool b ->
      put_u8 buf 3;
      put_u8 buf (if b then 1 else 0)
  | Value.VId i ->
      put_u8 buf 4;
      put_i64 buf (Value.Ring.norm i)
  | Value.VAddr a ->
      put_u8 buf 5;
      put_str buf a
  | Value.VList vs ->
      put_u8 buf 6;
      put_u16 buf (List.length vs);
      List.iter (put_value buf) vs
  | Value.VNull -> put_u8 buf 7

let kind_data = 0
let kind_ack = 1
let kind_heartbeat = 2
let kind_batch = 3

let put_header buf ~kind ~seq ~ack =
  put_u8 buf version;
  put_u8 buf kind;
  put_u32 buf (seq land 0xffffffff);
  put_u32 buf (ack land 0xffffffff)

let put_data buf ~delete tuple =
  put_u32 buf (Tuple.id tuple land 0xffffffff);
  put_u8 buf (if delete then flag_delete else 0);
  put_str buf (Tuple.name tuple);
  let fields = Tuple.fields tuple in
  put_u16 buf (List.length fields);
  List.iter (put_value buf) fields

(** Encode a tuple as a data frame. [delete] marks delete patterns; the
    source tuple id travels with the message so the receiver's tracer
    can record the cross-node link (paper §2.1.3). [seq] is the
    channel sequence number, [ack] the piggybacked cumulative
    acknowledgement (both default 0 for unsequenced sends). *)
let encode ?(delete = false) ?(seq = 0) ?(ack = 0) tuple =
  let buf = Buffer.create 64 in
  put_header buf ~kind:kind_data ~seq ~ack;
  put_data buf ~delete tuple;
  Buffer.contents buf

(** Encode a list of tuple shipments as one delta-batch frame occupying
    a single sequence number. Raises {!Error} on more than 65535
    items. *)
let encode_batch ?(seq = 0) ?(ack = 0) items =
  let buf = Buffer.create 256 in
  put_header buf ~kind:kind_batch ~seq ~ack;
  put_u16 buf (List.length items);
  List.iter (fun (delete, tuple) -> put_data buf ~delete tuple) items;
  Buffer.contents buf

(** Standalone cumulative-acknowledgement frame. *)
let encode_ack ~ack =
  let buf = Buffer.create 16 in
  put_header buf ~kind:kind_ack ~seq:0 ~ack;
  Buffer.contents buf

(** Liveness-probe frame; the receiver answers with an ack. *)
let encode_heartbeat ~ack =
  let buf = Buffer.create 16 in
  put_header buf ~kind:kind_heartbeat ~seq:0 ~ack;
  Buffer.contents buf

(* --- decoding --- *)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then raise (Error "truncated message")

let get_u8 r =
  need r 1;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_u16 r =
  let lo = get_u8 r in
  let hi = get_u8 r in
  lo lor (hi lsl 8)

let get_u32 r =
  let lo = get_u16 r in
  let hi = get_u16 r in
  lo lor (hi lsl 16)

let get_int64 r =
  let v = ref 0L in
  for b = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (get_u8 r)) (8 * b))
  done;
  !v

let get_i64 r = Int64.to_int (get_int64 r)

let get_f64 r = Int64.float_of_bits (get_int64 r)

let get_str r =
  let n = get_u16 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let rec get_value r =
  match get_u8 r with
  | 0 -> Value.VInt (get_i64 r)
  | 1 -> Value.VFloat (get_f64 r)
  | 2 -> Value.VStr (get_str r)
  | 3 -> Value.VBool (get_u8 r <> 0)
  | 4 -> Value.VId (get_i64 r)
  | 5 -> Value.VAddr (get_str r)
  | 6 ->
      let n = get_u16 r in
      Value.VList (List.init n (fun _ -> get_value r))
  | 7 -> Value.VNull
  | t -> raise (Error (Fmt.str "unknown value tag %d" t))

type message = { src_tuple_id : int; delete : bool; name : string; fields : Value.t list }

type kind = Data of message | Batch of message list | Ack | Heartbeat

type frame = { seq : int; ack : int; kind : kind }

let get_data r =
  let src_tuple_id = get_u32 r in
  let flags = get_u8 r in
  let name = get_str r in
  let nfields = get_u16 r in
  let fields = List.init nfields (fun _ -> get_value r) in
  { src_tuple_id; delete = flags land flag_delete <> 0; name; fields }

(** Decode a wire frame. Raises [Error] on malformed input, including
    the pre-transport version-1 layout. *)
let decode data =
  let r = { data; pos = 0 } in
  let v = get_u8 r in
  if v <> version then
    raise (Error (Fmt.str "unsupported version %d (expected %d)" v version));
  let k = get_u8 r in
  let seq = get_u32 r in
  let ack = get_u32 r in
  let kind =
    if k = kind_data then Data (get_data r)
    else if k = kind_batch then begin
      let count = get_u16 r in
      Batch (List.init count (fun _ -> get_data r))
    end
    else if k = kind_ack then Ack
    else if k = kind_heartbeat then Heartbeat
    else raise (Error (Fmt.str "unknown frame kind %d" k))
  in
  if r.pos <> String.length data then raise (Error "trailing bytes");
  { seq; ack; kind }

(* --- sizing --- *)

let header_size = 10  (* version, kind, seq, ack *)

(* The bytes [put_value] writes, raising the same errors in the same
   order. *)
let rec value_size = function
  | Value.VInt _ | Value.VFloat _ | Value.VId _ -> 9
  | Value.VStr s | Value.VAddr s ->
      check_str s;
      3 + String.length s
  | Value.VBool _ -> 2
  | Value.VList vs ->
      let n = List.length vs in
      check_u16 n;
      List.fold_left (fun acc v -> acc + value_size v) 3 vs
  | Value.VNull -> 1

(** Wire size of a tuple's data frame without materializing the
    encoding: [String.length (encode ~delete tuple)], raising {!Error}
    exactly when [encode] would. [delete] does not change the size. *)
let size ?delete:_ tuple =
  let name = Tuple.name tuple in
  check_str name;
  let fields = Tuple.fields tuple in
  check_u16 (List.length fields);
  List.fold_left
    (fun acc v -> acc + value_size v)
    (header_size + 4 + 1 + 2 + String.length name + 2)
    fields
