(** Attribute values carried by IF tokens and translation-stack entries.

    Terminals of the intermediate form carry semantic values set by the
    shaping routine (displacements, lengths, counts, label numbers, CSE
    numbers, condition masks).  After a reduction the code generator pushes
    non-terminal tokens whose value is the register binding produced by the
    register allocator. *)

type t =
  | Unit            (** operators and value-free symbols *)
  | Int of int      (** displacement / length / count / shift / literal *)
  | Reg of int      (** a register number bound to a non-terminal *)
  | Label of int    (** label identifier, resolved by the loader generator *)
  | Cse of int      (** common-subexpression identifier *)
  | Cond of int     (** condition-code branch mask (IBM 370 BC mask) *)

let equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Int a, Int b -> a = b
  | Reg a, Reg b -> a = b
  | Label a, Label b -> a = b
  | Cse a, Cse b -> a = b
  | Cond a, Cond b -> a = b
  | (Unit | Int _ | Reg _ | Label _ | Cse _ | Cond _), _ -> false

(** [to_int v] extracts the numeric payload of any valued attribute.
    Raises [Invalid_argument] on [Unit]. *)
let to_int = function
  | Int n | Reg n | Label n | Cse n | Cond n -> n
  | Unit -> invalid_arg "Ifl.Value.to_int: Unit has no payload"

let pp ppf = function
  | Unit -> ()
  | Int n -> Fmt.pf ppf ":%d" n
  | Reg n -> Fmt.pf ppf ":r%d" n
  | Label n -> Fmt.pf ppf ":L%d" n
  | Cse n -> Fmt.pf ppf ":c%d" n
  | Cond n -> Fmt.pf ppf ":m%d" n
