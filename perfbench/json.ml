(* Just enough JSON to write results and span files. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool

let rec to_buffer buf j =
  let add = Buffer.add_string buf in
  let sep f l =
    List.iteri
      (fun i x ->
        if i > 0 then add ", ";
        f x)
      l
  in
  match j with
  | Obj kvs ->
      add "{";
      sep
        (fun (k, v) ->
          to_buffer buf (Str k);
          add ": ";
          to_buffer buf v)
        kvs;
      add "}"
  | Arr l ->
      add "[";
      sep (to_buffer buf) l;
      add "]"
  | Str s ->
      add "\"";
      String.iter
        (function
          | '"' -> add "\\\""
          | '\\' -> add "\\\\"
          | c when Char.code c < 0x20 -> add (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      add "\""
  (* JSON has no NaN or infinity; a metric that is not finite is a bug
     the smoke test catches, so write it as null rather than hide it. *)
  | Num f -> if Float.is_finite f then add (Printf.sprintf "%.17g" f) else add "null"
  | Int i -> add (string_of_int i)
  | Bool b -> add (string_of_bool b)

let to_string j =
  let buf = Buffer.create 1024 in
  to_buffer buf j;
  Buffer.contents buf

let write_file path j =
  let oc = open_out path in
  output_string oc (to_string j);
  output_char oc '\n';
  close_out oc
