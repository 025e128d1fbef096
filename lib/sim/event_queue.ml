(** Priority queue of timestamped events.

    Ties are broken by insertion order, making the simulation fully
    deterministic and making same-time deliveries on one channel FIFO.

    A binary min-heap on (time, seq) held as three parallel arrays:
    unboxed times, insertion seqs and payloads. Sifts move a hole
    instead of swapping, and the minimum is read through accessors
    that allocate nothing but the float a caller asks for. *)

type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : 'a array;
      (* [||] while empty, so a drained queue keeps no payload alive *)
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = Float.Array.create 0; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Make room for one more entry. [filler] is the payload about to be
   scheduled: live anyway, so spare slots pin nothing. *)
let grow t filler =
  let cap = Array.length t.seqs in
  let cap = if cap > t.size then cap else max 16 (2 * cap) in
  if cap > Array.length t.seqs then begin
    let times = Float.Array.create cap in
    Float.Array.blit t.times 0 times 0 t.size;
    t.times <- times;
    let seqs = Array.make cap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs
  end;
  let payloads = Array.make cap filler in
  Array.blit t.payloads 0 payloads 0 t.size;
  t.payloads <- payloads

let schedule t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.schedule: NaN time";
  if t.size = Array.length t.payloads then grow t payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the hole at the end up. The newcomer has the largest seq, so
     it only passes parents with strictly later times. *)
  let i = ref t.size in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    time < Float.Array.unsafe_get t.times p
  do
    let p = (!i - 1) / 2 in
    Float.Array.unsafe_set t.times !i (Float.Array.unsafe_get t.times p);
    t.seqs.(!i) <- t.seqs.(p);
    t.payloads.(!i) <- t.payloads.(p);
    i := p
  done;
  Float.Array.unsafe_set t.times !i time;
  t.seqs.(!i) <- seq;
  t.payloads.(!i) <- payload;
  t.size <- t.size + 1

let fail_empty fn = invalid_arg ("Event_queue." ^ fn ^ ": empty queue")

let top_time t =
  if t.size = 0 then fail_empty "top_time" else Float.Array.unsafe_get t.times 0

let top_seq t = if t.size = 0 then fail_empty "top_seq" else t.seqs.(0)
let top t = if t.size = 0 then fail_empty "top" else t.payloads.(0)

let drop_top t =
  if t.size = 0 then fail_empty "drop_top";
  let n = t.size - 1 in
  t.size <- n;
  if n = 0 then t.payloads <- [||]
  else begin
    (* Sift the last entry down from the root's hole. *)
    let time = Float.Array.unsafe_get t.times n and seq = t.seqs.(n) in
    let payload = t.payloads.(n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c =
          let r = l + 1 in
          if r < n
             && (let rt = Float.Array.unsafe_get t.times r
                 and lt = Float.Array.unsafe_get t.times l in
                 rt < lt || (rt = lt && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ct = Float.Array.unsafe_get t.times c in
        if ct < time || (ct = time && t.seqs.(c) < seq) then begin
          Float.Array.unsafe_set t.times !i ct;
          t.seqs.(!i) <- t.seqs.(c);
          t.payloads.(!i) <- t.payloads.(c);
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.unsafe_set t.times !i time;
    t.seqs.(!i) <- seq;
    t.payloads.(!i) <- payload;
    (* the vacated slot must not keep the moved payload alive *)
    t.payloads.(n) <- t.payloads.(0)
  end

let pop t =
  if t.size = 0 then None
  else begin
    let time = top_time t and payload = top t in
    drop_top t;
    Some (time, payload)
  end
