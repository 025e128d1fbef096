(** Per-node catalog of materialized tables.

    A predicate is a table iff it appears here; everything else is an
    event stream (transient tuples). *)

type t = {
  tables : Table.t Strtbl.t;
  mutable names_cache : string list option;
      (* sorted; rebuilt on the first [names] after an [add] rather
         than re-sorting on every call *)
}

let create () = { tables = Strtbl.create 16; names_cache = None }

let add t table =
  let name = Table.name table in
  if Strtbl.mem t.tables name then
    invalid_arg (Fmt.str "Catalog.add: table %s already materialized" name);
  Strtbl.replace t.tables name table;
  t.names_cache <- None

let find t name = Strtbl.find_opt t.tables name

let find_exn t name =
  match find t name with
  | Some table -> table
  | None -> invalid_arg (Fmt.str "Catalog.find_exn: no table %s" name)

let is_table t name = Strtbl.mem t.tables name

let names t =
  match t.names_cache with
  | Some ns -> ns
  | None ->
      let ns =
        Strtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort compare
      in
      t.names_cache <- Some ns;
      ns

let iter t f = List.iter (fun n -> f (find_exn t n)) (names t)

let total_live t ~now =
  Strtbl.fold (fun _ table acc -> acc + Table.size table ~now) t.tables 0

let total_bytes t ~now =
  Strtbl.fold (fun _ table acc -> acc + Table.bytes table ~now) t.tables 0
