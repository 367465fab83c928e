(** Grammar-size ablation support (paper section 6):

    "A language implementer can therefore control the size of the
    compiler by changing the complexity of the grammar.  This size
    change can be accomplished without losing the guarantee of
    generating correct code."

    {!filter} derives reduced specifications from a full one by dropping
    redundant productions — the addressing-mode/operand-size variants
    that only exist to improve code quality. *)

type level =
  | Full  (** the specification as written *)
  | No_fused
      (** drop memory-operand arithmetic: one register-register
          production per operator, loads happen explicitly *)
  | Int_only  (** additionally drop real, quad-real and set productions *)
  | Core
      (** additionally drop halfword/byte storage, checks and idioms:
          the smallest grammar that still compiles integer programs *)

val level_name : level -> string
val all_levels : level list

val keep : level -> Spec_ast.production -> bool
val filter : level -> Spec_ast.t -> Spec_ast.t

val build_levels :
  Spec_ast.t ->
  (level * (Tables.t, Cogg_build.error list) result) list
(** Build every level from a parsed specification. *)
