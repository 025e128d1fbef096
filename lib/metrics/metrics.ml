(** Runtime self-metrics: cheap counters, gauges and fixed-bucket
    histograms, plus a per-node registry that snapshots them as a
    deterministic, sorted name/value list.

    The paper's thesis is that a P2 node's own state should be
    queryable like application state (§2.1); this module supplies the
    raw numbers that [P2_runtime.P2stats] reflects back into the
    node's catalog as [p2Stats] tuples. Everything here is synchronous
    and allocation-free on the update path — a counter bump is a
    single unboxed int increment — so instrumentation can stay
    always-on in the hot paths (agenda execution, table probes, wire
    send/receive) without moving the calibrated work-unit model.

    Nothing in this module reads the OS clock or any other ambient
    state: values change only when the runtime explicitly updates
    them, so metric snapshots are bit-for-bit reproducible across
    runs, exactly like the rest of the simulation. *)

(** Monotone event counter. *)
module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let value t = t.n
end

(** Instantaneous level; also usable as a high-water mark via
    {!max_of}. *)
module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0. }
  let set t v = t.v <- v
  let add t dv = t.v <- t.v +. dv

  (** Raise the gauge to [v] if [v] exceeds the current value. *)
  let max_of t v = if v > t.v then t.v <- v

  let value t = t.v
end

(** Fixed-bucket histogram: cumulative-free bucket counts over strictly
    increasing upper bounds, plus count/sum/max. Observations above the
    last bound land in an implicit overflow bucket. The default bounds
    are powers of two from 1 to 2{^20}, which covers agenda drain sizes
    and microsecond-scale work latencies with 21 buckets. *)
module Histogram = struct
  type t = {
    bounds : float array;  (* strictly increasing upper bounds *)
    counts : int array;  (* length bounds + 1; last = overflow *)
    mutable count : int;
    mutable sum : float;
    mutable max : float;
  }

  let default_bounds = Array.init 21 (fun i -> Float.of_int (1 lsl i))

  let create ?(bounds = default_bounds) () =
    if Array.length bounds = 0 then invalid_arg "Histogram.create: no buckets";
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Histogram.create: bounds must increase strictly")
      bounds;
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      count = 0;
      sum = 0.;
      max = 0.;
    }

  (* First bucket whose upper bound admits [v], by binary search; the
     overflow bucket is [Array.length bounds]. *)
  let bucket_of t v =
    let n = Array.length t.bounds in
    if v > t.bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= t.bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let observe t v =
    let b = bucket_of t v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v > t.max then t.max <- v

  let count t = t.count
  let sum t = t.sum
  let max_value t = t.max
  let mean t = if t.count = 0 then 0. else t.sum /. Float.of_int t.count

  (** Upper bound of the smallest bucket at or past quantile [q] of the
      observations (0 for an empty histogram). Overflow observations
      report the exact maximum seen rather than infinity, so the answer
      is always a value that actually bounds the data. *)
  let quantile t q =
    if t.count = 0 then 0.
    else begin
      let rank = Float.to_int (ceil (q *. Float.of_int t.count)) in
      let rank = if rank < 1 then 1 else rank in
      let acc = ref 0 and answer = ref t.max in
      (try
         Array.iteri
           (fun i c ->
             acc := !acc + c;
             if !acc >= rank then begin
               (if i < Array.length t.bounds then answer := t.bounds.(i));
               raise Exit
             end)
           t.counts
       with Exit -> ());
      !answer
    end

  (** (upper bound, observations in bucket) pairs, overflow last with
      bound [infinity]. *)
  let buckets t =
    Array.to_list
      (Array.mapi
         (fun i c ->
           ((if i < Array.length t.bounds then t.bounds.(i) else infinity), c))
         t.counts)
end

(* Summary statistics over repeated measurements (bench seeds). *)
let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Population standard deviation; 0 for fewer than two values. *)
let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      sqrt (mean (List.map (fun x -> (x -. m) ** 2.) xs))

type kind = KCounter | KGauge

type sample = { name : string; kind : kind; value : float }

(* Registered metrics are (name, kind, reader) rows; readers are
   closures so gauges can report live values (agenda depth, table
   sizes) without the registry polling anything eagerly. *)
type t = { mutable entries : (string * kind * (unit -> float)) list }

let create () = { entries = [] }

let register t name kind read =
  if List.exists (fun (n, _, _) -> String.equal n name) t.entries then
    invalid_arg (Fmt.str "Metrics.register: duplicate metric %s" name);
  t.entries <- (name, kind, read) :: t.entries

let counter t name =
  let c = Counter.create () in
  register t name KCounter (fun () -> Float.of_int (Counter.value c));
  c

let attach_counter t name c =
  register t name KCounter (fun () -> Float.of_int (Counter.value c))

let gauge t name read = register t name KGauge read

(** Register one histogram as five derived scalars:
    [name.count], [name.sum], [name.max], [name.p50], [name.p99]. *)
let attach_histogram t name h =
  register t (name ^ ".count") KCounter (fun () ->
      Float.of_int (Histogram.count h));
  register t (name ^ ".sum") KCounter (fun () -> Histogram.sum h);
  gauge t (name ^ ".max") (fun () -> Histogram.max_value h);
  gauge t (name ^ ".p50") (fun () -> Histogram.quantile h 0.50);
  gauge t (name ^ ".p99") (fun () -> Histogram.quantile h 0.99)

let names t =
  List.sort String.compare (List.map (fun (n, _, _) -> n) t.entries)

(** Evaluate every registered metric, sorted by name — the registry's
    canonical, deterministic order. *)
let snapshot t =
  t.entries
  |> List.map (fun (name, kind, read) -> { name; kind; value = read () })
  |> List.sort (fun a b -> String.compare a.name b.name)

let value t name =
  List.find_map
    (fun (n, _, read) -> if String.equal n name then Some (read ()) else None)
    t.entries

(* --- JSON ----------------------------------------------------------- *)

(* Counters and most gauges are integral; print them without a
   fractional part so the output is friendly to strict JSON parsers
   and to humans diffing two dumps. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Fmt.str "%.0f" v
  else Fmt.str "%.17g" v

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** One flat JSON object mapping metric names to numbers, in snapshot
    (sorted) order. *)
let json_of_samples samples =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i { name; value; _ } ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Fmt.str "\"%s\": %s" (json_escape name) (json_float value)))
    samples;
  Buffer.add_char buf '}';
  Buffer.contents buf
