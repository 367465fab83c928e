(** Attribute values carried by IF tokens and translation-stack entries.

    Terminals of the intermediate form carry semantic values set by the
    shaping routine (displacements, lengths, counts, label numbers, CSE
    numbers, condition masks).  After a reduction the code generator
    pushes non-terminal tokens whose value is the register binding
    produced by the register allocator. *)

type t =
  | Unit  (** operators and value-free symbols *)
  | Int of int  (** displacement / length / count / shift / literal *)
  | Reg of int  (** a register number bound to a non-terminal *)
  | Label of int  (** label identifier, resolved by the loader generator *)
  | Cse of int  (** common-subexpression identifier *)
  | Cond of int  (** condition-code branch mask (IBM 370 BC mask) *)

val equal : t -> t -> bool

val to_int : t -> int
(** [to_int v] extracts the numeric payload of any valued attribute.
    Raises [Invalid_argument] on [Unit]. *)

val pp : Format.formatter -> t -> unit
(** Prints the textual-syntax payload suffix ([:5], [:r13], [:L2], ...);
    prints nothing for [Unit]. *)
