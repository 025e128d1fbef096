(* Wall-clock spans recorded from the benchmark's own calls into the
   libraries. A recorder that is off still times (callers need the
   durations for the end-to-end metrics) but keeps nothing, so the
   spans-off run pays only the clock reads. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

type span = {
  id : int;
  parent : int;  (* 0 for the root *)
  name : string;
  start_ns : int64;
  mutable end_ns : int64;
  mutable attrs : (string * float) list;
}

type t = {
  on : bool;
  run_id : string;
  origin : int64;
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;  (* open spans, innermost first *)
  mutable next : int;
}

let create ~on ~run_id =
  { on; run_id; origin = now_ns (); spans = []; stack = []; next = 1 }

(* Run [f] inside a span named [name]; returns its result and the wall
   seconds it took. *)
let time t name f =
  let t0 = now_ns () in
  if not t.on then begin
    let r = f () in
    (r, seconds_between t0 (now_ns ()))
  end
  else begin
    let parent = match t.stack with s :: _ -> s.id | [] -> 0 in
    let s = { id = t.next; parent; name; start_ns = t0; end_ns = t0; attrs = [] } in
    t.next <- t.next + 1;
    t.spans <- s :: t.spans;
    t.stack <- s :: t.stack;
    let finish () =
      s.end_ns <- now_ns ();
      t.stack <- List.tl t.stack
    in
    let r = Fun.protect ~finally:finish f in
    (r, seconds_between s.start_ns s.end_ns)
  end

let run t name f = fst (time t name f)

(* Attach counter deltas to the most recent span called [name]. *)
let annotate t name attrs =
  if t.on then
    match List.find_opt (fun s -> s.name = name) t.spans with
    | Some s -> s.attrs <- s.attrs @ attrs
    | None -> ()

let spans t = List.rev t.spans
let duration_ns s = Int64.to_int (Int64.sub s.end_ns s.start_ns)

(* Self time in ns: a span's duration minus the part its children
   cover. Children of one parent run one after another, never
   overlapping. *)
let self_times t =
  let child_total = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_total s.parent
          (duration_ns s + Option.value ~default:0 (Hashtbl.find_opt child_total s.parent)))
    t.spans;
  List.map
    (fun s -> (s, duration_ns s - Option.value ~default:0 (Hashtbl.find_opt child_total s.id)))
    (spans t)

(* Spans properly nest: each child lies within its parent's interval. *)
let well_nested t =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  List.for_all
    (fun s ->
      Int64.compare s.start_ns s.end_ns <= 0
      &&
      match Hashtbl.find_opt by_id s.parent with
      | None -> s.parent = 0
      | Some p ->
          Int64.compare p.start_ns s.start_ns <= 0 && Int64.compare s.end_ns p.end_ns <= 0)
    t.spans

(* Per span name: instances, total and self seconds, in first-seen
   order. *)
let summary t =
  let order = ref [] and acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt acc s.name with
      | Some (n, total, selft) -> Hashtbl.replace acc s.name (n + 1, total + duration_ns s, selft + self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace acc s.name (1, duration_ns s, self))
    (self_times t);
  List.rev_map
    (fun name ->
      let n, total, self = Hashtbl.find acc name in
      (name, (n, float_of_int total /. 1e9, float_of_int self /. 1e9)))
    !order

let to_json t =
  let rel ns = Int64.sub ns t.origin in
  Json.Obj
    [
      ("run_id", Json.Str t.run_id);
      ( "spans",
        Json.Arr
          (List.map
             (fun (s, self) ->
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("parent", Json.Int s.parent);
                   ("name", Json.Str s.name);
                   ("start_ns", Json.Int (Int64.to_int (rel s.start_ns)));
                   ("end_ns", Json.Int (Int64.to_int (rel s.end_ns)));
                   ("self_ns", Json.Int self);
                   ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.attrs));
                 ])
             (self_times t)) );
    ]
