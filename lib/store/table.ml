(** Soft-state tables implementing the paper's [materialize] semantics:

    - per-tuple maximum lifetime (tuples expire silently),
    - maximum table size with FIFO eviction of the oldest tuple,
    - primary keys: inserting a tuple whose key matches an existing row
      replaces it (refreshing its insertion time),
    - delta subscriptions: the runtime's planner registers callbacks to
      trigger delta rule strands on insertion and deletion,
    - lazily-created secondary hash indexes ([probe]) so join stages
      pay O(matches), not O(table), per lookup.

    Time is supplied by the caller (the simulation clock), never read
    from the OS, so runs are deterministic.

    Expiry and eviction are incremental: rows are tracked in a min-heap
    ordered by (insertion time, seq) with lazy invalidation (a refresh
    or replace pushes a fresh entry; stale entries are discarded when
    they surface). Reads therefore cost O(expired now) instead of a full
    O(N) sweep, and the eviction victim is found in amortized O(log N).
    Expiry deltas fire in (insertion time, seq) order — deterministic
    and independent of hash-table layout. The heap is rebuilt from the
    live rows once stale entries outnumber them, and the byte total is
    kept as a running sum, so neither grows nor costs with churn. *)

open Overlog

type delta = Insert of Tuple.t | Delete of Tuple.t | Refresh of Tuple.t

type row = { tuple : Tuple.t; mutable inserted_at : float; mutable seq : int }

(* Heap entries are snapshots of a row's (inserted_at, seq) at push
   time. An entry is exact while the row still carries that stamp; any
   refresh/replace/delete leaves it stale, to be dropped lazily. Every
   live row always has one exact entry, so the heap minimum over exact
   entries equals the oldest live row. *)
type hent = { stamp : float; hseq : int; hkey : string }

module Heap = struct
  type t = { mutable a : hent array; mutable len : int }

  let dummy = { stamp = 0.; hseq = 0; hkey = "" }
  let create () = { a = Array.make 16 dummy; len = 0 }

  let lt x y = x.stamp < y.stamp || (x.stamp = y.stamp && x.hseq < y.hseq)

  let push h e =
    if h.len = Array.length h.a then begin
      let a = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 a 0 h.len;
      h.a <- a
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    (* sift up *)
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt h.a.(!i) h.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let peek h = if h.len = 0 then None else Some h.a.(0)

  let sift_down h i =
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && lt h.a.(l) h.a.(!smallest) then smallest := l;
      if r < h.len && lt h.a.(r) h.a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done

  let pop h =
    if h.len = 0 then ()
    else begin
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      h.a.(h.len) <- dummy;
      sift_down h 0
    end

  let clear h =
    h.a <- Array.make 16 dummy;
    h.len <- 0

  (* Replace the contents with [es], restoring the heap property
     bottom-up in O(|es|). *)
  let rebuild h es =
    let n = List.length es in
    h.a <- Array.make (max 16 (2 * n)) dummy;
    List.iteri (fun i e -> h.a.(i) <- e) es;
    h.len <- n;
    for i = (n / 2) - 1 downto 0 do
      sift_down h i
    done
end

(* A secondary index over a set of 1-indexed field positions: probe
   key -> the bucket of rows with those field values, ordered by row
   seq. Buckets are keyed by the same canonical-value strings as
   primary keys, so index identity follows [Value.equal] exactly like
   the main table. Seq is unique among live rows, so it also finds a
   row inside its bucket. *)
type bucket = { mutable brows : row array; mutable blen : int }

type index = {
  ipositions : int list;
  buckets : bucket Strtbl.t;
}

type t = {
  name : string;
  lifetime : float;
  max_size : int option;
  keys : int list;  (** 1-indexed field positions; [] = whole tuple *)
  rows : row Strtbl.t;  (** key-string -> row *)
  mutable next_seq : int;
  mutable subs_rev : (delta -> unit) list;  (* newest first *)
  mutable subs_arr : (delta -> unit) array option;  (* install order *)
  heap : Heap.t;
  mutable bytes : int;  (** sum of [Tuple.size_bytes] over [rows] *)
  mutable indexes : index list;
  mutable insert_count : int;
  mutable delete_count : int;
  mutable expire_count : int;
  mutable evict_count : int;
  mutable probe_count : int;
}

let create ?(lifetime = infinity) ?max_size ?(keys = []) name =
  {
    name;
    lifetime;
    max_size;
    keys;
    rows = Strtbl.create 16;
    next_seq = 0;
    subs_rev = [];
    subs_arr = None;
    heap = Heap.create ();
    bytes = 0;
    indexes = [];
    insert_count = 0;
    delete_count = 0;
    expire_count = 0;
    evict_count = 0;
    probe_count = 0;
  }

let of_materialize (m : Ast.materialize) =
  create ~lifetime:m.mlifetime ?max_size:m.msize ~keys:m.mkeys m.mname

let name t = t.name
let keys t = t.keys
let lifetime t = t.lifetime

(* Only tables that can lose rows by age or capacity need the
   (inserted_at, seq) heap; unbounded immortal tables skip it. *)
let tracks_age t = t.lifetime <> infinity || t.max_size <> None

let canonical_cat parts = String.concat "\x00" (List.map Value.canonical_key parts)

let key_string t tuple =
  let parts =
    match t.keys with
    | [] -> Tuple.fields tuple
    | ks -> Tuple.key_of tuple ks
  in
  canonical_cat parts

(* Subscribers run in subscription order (rule-install order), keeping
   delta-strand firing deterministic. The reversed list + cached array
   makes [subscribe] O(1) per rule install instead of O(installed). *)
let subscribe t f =
  t.subs_rev <- f :: t.subs_rev;
  t.subs_arr <- None

let subscriber_array t =
  match t.subs_arr with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.subs_rev) in
      t.subs_arr <- Some a;
      a

let notify t delta = Array.iter (fun f -> f delta) (subscriber_array t)

let is_expired t ~now row = now -. row.inserted_at > t.lifetime

(* --- index and heap maintenance ------------------------------------ *)

let bucket_key idx tuple = canonical_cat (Tuple.key_of tuple idx.ipositions)

(* The first position in [b] whose row seq is not below [seq]. *)
let seq_position b seq =
  let lo = ref 0 and hi = ref b.blen in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if b.brows.(mid).seq < seq then lo := mid + 1 else hi := mid
  done;
  !lo

(* A new row has the largest seq and lands at the end; a replaced row
   keeps its seq and is slotted back into seq order. *)
let index_add idx row =
  let bk = bucket_key idx row.tuple in
  match Strtbl.find_opt idx.buckets bk with
  | None -> Strtbl.replace idx.buckets bk { brows = Array.make 4 row; blen = 1 }
  | Some b ->
      let n = b.blen in
      if n = Array.length b.brows then begin
        let a = Array.make (2 * n) row in
        Array.blit b.brows 0 a 0 n;
        b.brows <- a
      end;
      let i = if b.brows.(n - 1).seq < row.seq then n else seq_position b row.seq in
      Array.blit b.brows i b.brows (i + 1) (n - i);
      b.brows.(i) <- row;
      b.blen <- n + 1

let index_remove idx row =
  let bk = bucket_key idx row.tuple in
  match Strtbl.find_opt idx.buckets bk with
  | Some b ->
      let i = seq_position b row.seq in
      if i < b.blen && b.brows.(i) == row then begin
        let n = b.blen - 1 in
        Array.blit b.brows (i + 1) b.brows i (n - i);
        (* the vacated slot must not keep a removed row alive *)
        if n > 0 then b.brows.(n) <- b.brows.(0);
        b.blen <- n;
        if n = 0 then Strtbl.remove idx.buckets bk
      end
  | None -> ()

(* Push the row's current stamp. Stale entries only leave the heap
   when they surface at the minimum, so a table whose rows are
   refreshed or replaced far more often than they expire or are
   evicted (an immortal capped table never expires, and a single-key
   one never evicts) would grow its heap without bound. Once stale
   entries outnumber live rows, rebuild from the rows: one exact entry
   each, so the minimum (and every later pop) is unchanged and the
   amortized cost per push stays O(log N). *)
let push_stamp t k row =
  Heap.push t.heap { stamp = row.inserted_at; hseq = row.seq; hkey = k };
  let live = Strtbl.length t.rows in
  if t.heap.len > (2 * live) + 16 then
    Heap.rebuild t.heap
      (Strtbl.fold
         (fun k row acc -> { stamp = row.inserted_at; hseq = row.seq; hkey = k } :: acc)
         t.rows [])

(* Attach/detach keep rows, every index, the age heap and the byte
   total in sync; all row addition/removal must go through them. *)
let attach t k row =
  Strtbl.replace t.rows k row;
  t.bytes <- t.bytes + Tuple.size_bytes row.tuple;
  List.iter (fun idx -> index_add idx row) t.indexes;
  if tracks_age t then push_stamp t k row

let detach t k row =
  Strtbl.remove t.rows k;
  t.bytes <- t.bytes - Tuple.size_bytes row.tuple;
  List.iter (fun idx -> index_remove idx row) t.indexes

let touch t k row ~now =
  row.inserted_at <- now;
  if tracks_age t then push_stamp t k row

(* The heap minimum, after lazily discarding entries whose row is gone
   or was refreshed since the entry was pushed. The surviving minimum
   is exact: every live row keeps an entry carrying its current stamp. *)
let rec heap_min t =
  match Heap.peek t.heap with
  | None -> None
  | Some e -> (
      match Strtbl.find_opt t.rows e.hkey with
      | Some row when row.seq = e.hseq && row.inserted_at = e.stamp ->
          Some (e.hkey, row)
      | _ ->
          Heap.pop t.heap;
          heap_min t)

(* Remove expired rows; called before reads so expiry is precise
   without a background sweeper, but incremental: cost is O(rows that
   expired since the last call), not O(N). Removal is atomic with
   respect to delta notifications: subscribers (delta-triggered
   aggregates) must never observe a half-swept table. Deltas fire in
   (insertion time, seq) order. *)
let expire t ~now =
  if t.lifetime <> infinity then begin
    let dead = ref [] in
    let rec sweep () =
      match heap_min t with
      | Some (k, row) when is_expired t ~now row ->
          Heap.pop t.heap;
          detach t k row;
          t.expire_count <- t.expire_count + 1;
          dead := row :: !dead;
          sweep ()
      | _ -> ()
    in
    sweep ();
    List.iter (fun row -> notify t (Delete row.tuple)) (List.rev !dead)
  end

let size t ~now =
  expire t ~now;
  Strtbl.length t.rows

(* Eviction victim: least recently inserted/refreshed (soft-state
   semantics: live state keeps getting refreshed and survives). The
   heap minimum is exactly that row. *)
let oldest t = heap_min t

type insert_result = Added | Replaced | Refreshed

(** Insert [tuple] at time [now]. Returns what happened. Triggers
    subscriber deltas for the insertion (and for any eviction). *)
let insert t ~now tuple =
  expire t ~now;
  let k = key_string t tuple in
  let result =
    match Strtbl.find_opt t.rows k with
    | Some row when Tuple.equal_contents row.tuple tuple ->
        (* Same contents: refresh the soft state's lifetime only. *)
        touch t k row ~now;
        Refreshed
    | Some row ->
        detach t k row;
        attach t k { tuple; inserted_at = now; seq = row.seq };
        Replaced
    | None ->
        (match t.max_size with
        | Some cap when Strtbl.length t.rows >= cap -> (
            match oldest t with
            | Some (ok, orow) ->
                detach t ok orow;
                t.evict_count <- t.evict_count + 1;
                notify t (Delete orow.tuple)
            | None -> ())
        | _ -> ());
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        attach t k { tuple; inserted_at = now; seq };
        Added
  in
  t.insert_count <- t.insert_count + 1;
  (match result with
  | Added | Replaced -> notify t (Insert tuple)
  | Refreshed -> notify t (Refresh tuple));
  result

(* [insert]'s [Refreshed] case alone: no row is added or replaced. *)
let refresh t ~now tuple =
  expire t ~now;
  let k = key_string t tuple in
  match Strtbl.find_opt t.rows k with
  | Some row when Tuple.equal_contents row.tuple tuple ->
      touch t k row ~now;
      t.insert_count <- t.insert_count + 1;
      notify t (Refresh tuple);
      true
  | _ -> false

(** Delete every row whose contents equal [tuple]'s key. *)
let delete t ~now tuple =
  expire t ~now;
  let k = key_string t tuple in
  match Strtbl.find_opt t.rows k with
  | Some row ->
      detach t k row;
      t.delete_count <- t.delete_count + 1;
      notify t (Delete row.tuple);
      true
  | None -> false

let rows_in_seq_order t =
  Strtbl.fold (fun k row acc -> (k, row) :: acc) t.rows []
  |> List.sort (fun (_, a) (_, b) -> Stdlib.compare a.seq b.seq)

(** Delete all rows matching a predicate, atomically with respect to
    delta notifications (see [expire]). Victims are removed and
    notified in insertion (seq) order. Returns removed tuples. *)
let delete_where t ~now pred =
  expire t ~now;
  let victims =
    List.filter (fun (_, row) -> pred row.tuple) (rows_in_seq_order t)
  in
  List.iter
    (fun (k, row) ->
      detach t k row;
      t.delete_count <- t.delete_count + 1)
    victims;
  List.iter (fun (_, row) -> notify t (Delete row.tuple)) victims;
  List.map (fun (_, row) -> row.tuple) victims

(** All live tuples, in insertion order (stable for tests). *)
let tuples t ~now =
  expire t ~now;
  List.map (fun (_, row) -> row.tuple) (rows_in_seq_order t)

let fold t ~now f init =
  List.fold_left f init (tuples t ~now)

let iter t ~now f = List.iter f (tuples t ~now)

let mem t ~now tuple =
  expire t ~now;
  match Strtbl.find_opt t.rows (key_string t tuple) with
  | Some row -> Tuple.equal_contents row.tuple tuple
  | None -> false

let clear t =
  Strtbl.reset t.rows;
  t.bytes <- 0;
  List.iter (fun idx -> Strtbl.reset idx.buckets) t.indexes;
  Heap.clear t.heap

(* --- secondary-index probes ---------------------------------------- *)

let find_index t positions =
  List.find_opt (fun idx -> idx.ipositions = positions) t.indexes

(* Create (and backfill) the index on first use; thereafter it is
   maintained incrementally by attach/detach. *)
let ensure_index t positions =
  match find_index t positions with
  | Some idx -> idx
  | None ->
      let idx = { ipositions = positions; buckets = Strtbl.create 64 } in
      Strtbl.iter (fun _ row -> index_add idx row) t.rows;
      t.indexes <- idx :: t.indexes;
      idx

let indexed_positions t = List.map (fun idx -> idx.ipositions) t.indexes

(** Live rows whose fields at [positions] (1-indexed) equal [values]
    under {!Value.equal}, in insertion (seq) order — the same subset
    and order a scan-and-filter would produce, at O(matches) instead
    of O(N): the bucket is kept in seq order. An empty [positions] is
    a full scan. *)
let probe t ~now ~positions ~values =
  if List.length positions <> List.length values then
    invalid_arg "Table.probe: positions/values length mismatch";
  if positions = [] then tuples t ~now
  else begin
    expire t ~now;
    t.probe_count <- t.probe_count + 1;
    let idx = ensure_index t positions in
    match Strtbl.find_opt idx.buckets (canonical_cat values) with
    | None -> []
    | Some b ->
        let acc = ref [] in
        for i = b.blen - 1 downto 0 do
          acc := b.brows.(i).tuple :: !acc
        done;
        !acc
  end

(* Expire first, exactly as a fold over the rows would, so sampling
   the size fires the same expiry deltas at the same time. *)
let bytes t ~now =
  expire t ~now;
  t.bytes

type stats = {
  live : int;
  inserts : int;
  deletes : int;
  expirations : int;
  evictions : int;
  probes : int;
}

let stats t ~now =
  {
    live = size t ~now;
    inserts = t.insert_count;
    deletes = t.delete_count;
    expirations = t.expire_count;
    evictions = t.evict_count;
    probes = t.probe_count;
  }

(* Raw lifetime counters, readable without touching expiry: metric
   gauges sample these from arbitrary host contexts, where triggering
   an expiry sweep (and its delta notifications) would be a surprising
   side effect. *)
let insert_count t = t.insert_count
let probe_count t = t.probe_count
