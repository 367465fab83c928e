(** The skeletal LR parser driving the generated code generator
    (paper section 3).

    The parser consumes the linearized IF.  On a reduction it calls the
    code emission routine, which returns the tokens to prefix back onto
    the input stream (normally the production's LHS bound to the result
    register; possibly a converted odd register or a CSE's location).
    Because non-terminal tokens are shifted like any others, no separate
    GOTO table exists. *)

type dispatch =
  | Flat  (** index the uncompressed [action array array] directly *)
  | Comb
      (** probe the comb-packed table carried in {!Tables.t}
          ({!Compress.action_code}); the default, and the production
          configuration of the paper's Table 2 *)

type ptoken = { psym : Grammar.sym; pvalue : Ifl.Value.t }
(** A {e prepared} IF token: the grammar symbol id (interned once, at
    stream preparation or directly by the emitter) and the coerced
    attribute value.  The parse inner loop and the [reduce] callback
    trade exclusively in this representation — no string hashing and no
    token-record allocation on the shift path. *)

val ptok : ?value:Ifl.Value.t -> Grammar.sym -> ptoken
(** [ptok ?value sym] is [{ psym = sym; pvalue = value }] ([value]
    defaults to [Unit]). *)

type error = {
  position : int;
      (** index into the {e original} input of the offending token (the
          next original token still unconsumed when the parse blocked).
          Reduction-prefixed tokens do not advance it, so Flat and Comb
          dispatch agree on it even when default reductions delay the
          detection. *)
  state : int;
  token : Ifl.Token.t option;  (** [None] at end of input *)
  msg : string;
  expected : string list;
      (** symbols with an action in the blocked state, capped at 13
          entries during construction (the printer shows 12) *)
  bogus_reductions : int;
      (** reductions taken since the last {e original} input token was
          consumed: under Comb dispatch, how far default reductions
          (and the synthetic shifts they interleave) ran past the point
          where Flat dispatch would have stopped *)
}

val pp_error : Format.formatter -> error -> unit

type outcome = { reductions : int; shifts : int; max_stack : int }

val parse :
  ?dispatch:dispatch ->
  Tables.t ->
  reduce:
    (prod:int ->
    rhs:ptoken array ->
    remap:((ptoken -> ptoken) -> unit) ->
    ptoken list) ->
  Ifl.Token.t list ->
  (outcome, error) result
(** [parse ?dispatch tables ~reduce input] runs the table-driven parse.

    [dispatch] selects the action source (default [Comb]).  Both sources
    run the same skeleton over array-backed stacks and take identical
    actions on well-formed IF; comb dispatch may delay (never lose)
    error detection on malformed IF, because default reductions stand in
    for error entries.

    [input] is prepared in a single pass before the loop starts: each
    token's [sym] string is interned to its grammar id, the integer
    coercions are applied and the value discipline checked {e once}, so
    the inner loop works on int-indexed tokens.  Ill-formed tokens are
    still reported only when the skeleton reaches them, with the same
    position, state and message as per-step checking produced.

    [reduce ~prod ~rhs ~remap] is the code emission routine: [rhs] holds
    the popped translation-stack tokens; [remap] lets the emitter rewrite
    register bindings on the live stack and pending input (needed when a
    [need] directive transfers a busy register); the returned tokens are
    prefixed to the input (first element consumed first) and must carry
    interned symbol ids.

    Input tokens are type-checked against the specification: terminals
    must carry their declared value kind, register non-terminals a
    register binding (integer payloads are coerced for shaper
    convenience). *)
