(** Grammar-size ablation support (paper section 6):

    "A language implementer can therefore control the size of the
    compiler by changing the complexity of the grammar.  This size change
    can be accomplished without losing the guarantee of generating
    correct code."

    [filter] derives reduced specifications from a full one by dropping
    redundant productions — the addressing-mode/operand-size variants
    that only exist to improve code quality.  Each level still generates
    correct code for programs within its reach. *)

type level =
  | Full  (** the specification as written *)
  | No_fused
      (** drop memory-operand arithmetic: one register-register
          production per operator, loads happen explicitly *)
  | Int_only
      (** additionally drop real, quad-real and set productions *)
  | Core
      (** additionally drop halfword/byte storage, checks, idioms:
          the smallest grammar that still compiles integer programs *)

let level_name = function
  | Full -> "full"
  | No_fused -> "no-fused"
  | Int_only -> "int-only"
  | Core -> "core"

let all_levels = [ Full; No_fused; Int_only; Core ]

let type_ops =
  [ "fullword"; "hlfword"; "byteword"; "realword"; "dblrealword"; "quadrealword" ]

let arith_heads =
  [
    "iadd"; "isub"; "imult"; "idiv"; "imod"; "icompare";
    "radd"; "rsub"; "rmult"; "rdiv"; "rcompare";
    "boolean_and"; "boolean_or"; "boolean_test";
  ]

let real_ops =
  [
    "realword"; "dblrealword"; "quadrealword"; "radd"; "rsub"; "rmult";
    "rdiv"; "rabs"; "rneg"; "rcompare"; "halve"; "rmin"; "rmax"; "qadd";
    "qsub"; "qmult"; "s_x_cnvrt"; "x_s_cnvrt"; "x_q_cnvrt"; "q_x_cnvrt";
  ]

let set_ops =
  [
    "test_bit_value"; "set_bit_value"; "clear_bit_value"; "set_union";
    "set_intersect"; "set_difference";
  ]

(* [incr] stays: the shaper's hidden write counters use it *)
let core_dropped =
  [
    "hlfword"; "byteword"; "imax"; "imin"; "iodd"; "iabs";
    "range_check"; "subscript_check"; "case_check"; "uninit_check";
    "long_assign"; "var_assign"; "name_param"; "clear"; "make_common";
    "use_common"; "boolean_not";
  ]

let head (p : Spec_ast.production) =
  match p.Spec_ast.p_rhs with
  | s :: _ -> s.Spec_ast.base
  | [] -> ""

let mentions (p : Spec_ast.production) names =
  List.exists (fun (s : Spec_ast.ssym) -> List.mem s.Spec_ast.base names)
    p.Spec_ast.p_rhs

(* a fused production: arithmetic head with a storage operand inline *)
let fused (p : Spec_ast.production) =
  List.mem (head p) arith_heads
  && List.exists
       (fun (s : Spec_ast.ssym) -> List.mem s.Spec_ast.base type_ops)
       (List.tl p.Spec_ast.p_rhs)

let keep (lvl : level) (p : Spec_ast.production) : bool =
  match lvl with
  | Full -> true
  | No_fused -> not (fused p)
  | Int_only -> (not (fused p)) && not (mentions p real_ops)
  | Core ->
      (not (fused p))
      && (not (mentions p real_ops))
      && (not (mentions p set_ops))
      && (not (mentions p core_dropped))
      && head p <> "icompare"
         (* keep only the register comparison *)
      || (head p = "icompare" && List.length p.Spec_ast.p_rhs = 3
         && not (fused p))

let filter (lvl : level) (spec : Spec_ast.t) : Spec_ast.t =
  { spec with Spec_ast.productions = List.filter (keep lvl) spec.Spec_ast.productions }

(** Build every level from a parsed specification. *)
let build_levels (spec : Spec_ast.t) :
    (level * (Tables.t, Cogg_build.error list) result) list =
  List.map (fun lvl -> (lvl, Cogg_build.build (filter lvl spec))) all_levels
