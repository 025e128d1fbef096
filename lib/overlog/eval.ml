(** Expression evaluation over variable bindings.

    Built-in functions needing ambient state ([f_now], [f_rand],
    [f_randID]) are resolved through a [context] supplied by the
    runtime, keeping this module pure and the simulation deterministic. *)

open Ast

exception Error of string

(** Run [f], tagging any {!Error} it raises with the rule id and head
    predicate so runtime failures ("unbound variable X", "division by
    zero") say which rule raised them. Already-tagged errors pass
    through untouched — execution nests (a head emission can trigger
    downstream strands) and the innermost rule is the one to blame. *)
let in_rule ~rule ~pred f =
  try f ()
  with Error msg ->
    if String.length msg >= 5 && String.sub msg 0 5 = "rule " then raise (Error msg)
    else raise (Error (Fmt.str "rule %s (%s): %s" rule pred msg))

module Env = struct
  type t = (string * Value.t) list

  let empty : t = []

  (* [List.assoc_opt] would compare names polymorphically; the first
     (innermost) binding wins either way. *)
  let rec find env v =
    match env with
    | [] -> None
    | (k, x) :: rest -> if String.equal k v then Some x else find rest v

  let bind env v x =
    if v = "_" then env else (v, x) :: env

  (* Bind or check: Datalog unification of a variable against a value. *)
  let unify env v x =
    if v = "_" then Some env
    else
      match find env v with
      | None -> Some (bind env v x)
      | Some existing -> if Value.equal existing x then Some env else None

  let pp ppf env =
    Fmt.pf ppf "{%a}"
      (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%a" k Value.pp v))
      env
end

type context = {
  now : unit -> float;          (* f_now *)
  rand : unit -> float;         (* f_rand: uniform [0,1) *)
  rand_id : unit -> int;        (* f_randID: uniform ring identifier *)
  local_addr : string;          (* f_localAddr *)
}

let null_context =
  { now = (fun () -> 0.); rand = (fun () -> 0.); rand_id = (fun () -> 0); local_addr = "?" }

let num_binop op a b =
  let open Value in
  match (a, b) with
  | VInt x, VInt y -> (
      match op with
      | Add -> VInt (x + y)
      | Sub -> VInt (x - y)
      | Mul -> VInt (x * y)
      | Div -> if y = 0 then raise (Error "division by zero") else VInt (x / y)
      | Mod -> if y = 0 then raise (Error "mod by zero") else VInt (x mod y)
      | _ -> assert false)
  | (VFloat _ | VInt _), (VFloat _ | VInt _) -> (
      let x = Value.as_float a and y = Value.as_float b in
      match op with
      | Add -> VFloat (x +. y)
      | Sub -> VFloat (x -. y)
      | Mul -> VFloat (x *. y)
      | Div -> VFloat (x /. y)
      | Mod -> VFloat (Float.rem x y)
      | _ -> assert false)
  (* Ring identifiers: arithmetic stays in the identifier space, which
     is what Chord's [D := K - FID - 1] relies on. *)
  | (VId _ | VInt _), (VId _ | VInt _) -> (
      let x = Value.as_int a and y = Value.as_int b in
      match op with
      | Add -> VId (Value.Ring.norm (x + y))
      | Sub -> VId (Value.Ring.norm (x - y))
      | Mul -> VId (Value.Ring.norm (x * y))
      | Div -> if y = 0 then raise (Error "division by zero") else VId (x / y)
      | Mod -> if y = 0 then raise (Error "mod by zero") else VId (x mod y)
      | _ -> assert false)
  | VStr x, VStr y when op = Add -> VStr (x ^ y)
  | VList x, VList y when op = Add -> VList (x @ y)
  | VList x, y when op = Add -> VList (x @ [ y ])
  | _ ->
      raise
        (Error (Fmt.str "bad operands: %a %s %a" Value.pp a (binop_name op) Value.pp b))

let rec eval ctx env expr =
  match expr with
  | Const v -> v
  | Var "_" -> raise (Error "wildcard _ used in expression position")
  | Var v -> (
      match Env.find env v with
      | Some x -> x
      | None -> raise (Error (Fmt.str "unbound variable %s" v)))
  | Neg e -> (
      match eval ctx env e with
      | Value.VInt i -> Value.VInt (-i)
      | Value.VFloat f -> Value.VFloat (-.f)
      | v -> raise (Error (Fmt.str "cannot negate %a" Value.pp v)))
  | Unop_not e -> Value.VBool (not (Value.truthy (eval ctx env e)))
  | ListExpr es -> Value.VList (List.map (eval ctx env) es)
  | Binop (And, a, b) ->
      Value.VBool (Value.truthy (eval ctx env a) && Value.truthy (eval ctx env b))
  | Binop (Or, a, b) ->
      Value.VBool (Value.truthy (eval ctx env a) || Value.truthy (eval ctx env b))
  | Binop (Eq, a, b) -> Value.VBool (Value.equal (eval ctx env a) (eval ctx env b))
  | Binop (Neq, a, b) -> Value.VBool (not (Value.equal (eval ctx env a) (eval ctx env b)))
  | Binop (Lt, a, b) -> Value.VBool (Value.compare (eval ctx env a) (eval ctx env b) < 0)
  | Binop (Le, a, b) -> Value.VBool (Value.compare (eval ctx env a) (eval ctx env b) <= 0)
  | Binop (Gt, a, b) -> Value.VBool (Value.compare (eval ctx env a) (eval ctx env b) > 0)
  | Binop (Ge, a, b) -> Value.VBool (Value.compare (eval ctx env a) (eval ctx env b) >= 0)
  | Binop (op, a, b) -> num_binop op (eval ctx env a) (eval ctx env b)
  | InRange (x, a, b, kind) ->
      let x = Value.as_int (eval ctx env x)
      and a = Value.as_int (eval ctx env a)
      and b = Value.as_int (eval ctx env b) in
      let test =
        match kind with
        | Open_open -> Value.Ring.between_oo
        | Open_closed -> Value.Ring.between_oc
        | Closed_open -> Value.Ring.between_co
        | Closed_closed -> Value.Ring.between_cc
      in
      Value.VBool (test a b x)
  | Call (f, args) -> eval_call ctx env f args

and eval_call ctx env f args =
  let arg i = eval ctx env (List.nth args i) in
  match (f, List.length args) with
  | "f_now", 0 -> Value.VFloat (ctx.now ())
  | "f_rand", 0 -> Value.VInt (int_of_float (ctx.rand () *. 1_000_000_000.))
  | "f_randID", 0 -> Value.VId (ctx.rand_id ())
  | "f_localAddr", 0 -> Value.VAddr ctx.local_addr
  | "f_coinFlip", 1 -> Value.VBool (ctx.rand () < Value.as_float (arg 0))
  | "f_size", 1 -> Value.VInt (List.length (Value.as_list (arg 0)))
  | "f_first", 1 -> (
      match Value.as_list (arg 0) with
      | [] -> Value.VNull
      | x :: _ -> x)
  | "f_last", 1 -> (
      match List.rev (Value.as_list (arg 0)) with
      | [] -> Value.VNull
      | x :: _ -> x)
  | "f_member", 2 -> Value.VBool (List.exists (Value.equal (arg 1)) (Value.as_list (arg 0)))
  | "f_pow2", 1 -> Value.VInt (1 lsl min 62 (Value.as_int (arg 0)))
  | "f_float", 1 -> Value.VFloat (Value.as_float (arg 0))
  | "f_int", 1 -> (
      match arg 0 with
      | Value.VFloat f -> Value.VInt (int_of_float f)
      | v -> Value.VInt (Value.as_int v))
  | "f_id", 1 ->
      (* Deterministic identifier derived from a string — our stand-in
         for the SHA-1 hash real Chord uses. *)
      Value.VId (Hashtbl.hash (Value.to_string (arg 0)) land (Value.Ring.space - 1))
  | "f_str", 1 -> Value.VStr (Value.to_string (arg 0))
  | "f_min", 2 -> if Value.compare (arg 0) (arg 1) <= 0 then arg 0 else arg 1
  | "f_max", 2 -> if Value.compare (arg 0) (arg 1) >= 0 then arg 0 else arg 1
  | "f_abs", 1 -> (
      match arg 0 with
      | Value.VInt i -> Value.VInt (abs i)
      | Value.VFloat f -> Value.VFloat (Float.abs f)
      | v -> raise (Error (Fmt.str "f_abs: %a" Value.pp v)))
  | _, n -> raise (Error (Fmt.str "unknown builtin %s/%d" f n))

(** Evaluate a boolean condition. *)
let eval_bool ctx env expr = Value.truthy (eval ctx env expr)

(** Match a body-atom argument expression against a tuple field.
    Variables unify; any other expression is evaluated (it must be
    closed under [env]) and checked for equality. Returns the extended
    environment, or [None] on mismatch. *)
let match_arg ctx env expr value =
  match expr with
  | Var v -> Env.unify env v value
  | e ->
      let expected = eval ctx env e in
      if Value.equal expected value then Some env else None

exception No_match

(** Match all arguments of a body atom against a tuple. The atom's
    arity must equal the tuple's (location included). Runs on the
    join hot path for every candidate tuple, so it walks both lists
    once and allocates nothing on mismatch (no per-field option
    boxing, no length precomputation). *)
let match_atom ctx env (atom : atom) (tuple : Tuple.t) =
  let n = Tuple.arity tuple in
  let rec go env i args =
    match args with
    | [] -> if i > n then env else raise_notrace No_match
    | _ when i > n -> raise_notrace No_match
    | Var "_" :: args -> go env (i + 1) args
    | Var v :: args -> (
        let x = Tuple.field tuple i in
        match Env.find env v with
        | None -> go ((v, x) :: env) (i + 1) args
        | Some existing ->
            if Value.equal existing x then go env (i + 1) args
            else raise_notrace No_match)
    | e :: args ->
        if Value.equal (eval ctx env e) (Tuple.field tuple i) then go env (i + 1) args
        else raise_notrace No_match
  in
  match go env 1 atom.args with
  | env -> Some env
  | exception No_match -> None

(** Match a body atom against a delta set of candidate tuples — a
    frontier in semi-naive evaluation (the newest tuple alone) or a
    whole relation in the naive re-enumeration — returning the
    extended environment for every tuple that unifies, in candidate
    order. [on_match] is invoked per hit before it is collected (the
    machine charges its per-match evaluation cost there). *)
let match_atom_all ?(on_match = fun _ -> ()) ctx env (atom : atom) tuples =
  List.filter_map
    (fun tuple ->
      match match_atom ctx env atom tuple with
      | Some env' ->
          on_match tuple;
          Some (env', tuple)
      | None -> None)
    tuples

(** True when any tuple in the delta set unifies with the atom — the
    negation probe ([Neg_join]) over the same candidate sets. *)
let match_atom_exists ctx env (atom : atom) tuples =
  List.exists (fun tuple -> match_atom ctx env atom tuple <> None) tuples
