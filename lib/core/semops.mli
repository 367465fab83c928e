(** Registry of the semantic operators understood by the code emission
    routine (paper section 4).  A specification may declare any subset in
    its [$Constants] section; using an identifier in template-opcode
    position requires it to be declared {e and} known here — "such type
    checking is of utmost importance" (paper, footnote 2). *)

val all : string list
val is_semantic : string -> bool

val common_type_operator : string -> string option
(** The IF type operator a CSE-definition operator corresponds to: when
    a common subexpression has been evicted to its temporary,
    [find_common] prefixes [<type-op> dsp base] to the input stream so
    the normal load productions reload it. *)
