(** Typed symbol table for the specification.

    "This allows CoGG to build a symbol table which contains the type of
    each identifier used, enabling the table constructor to type check the
    use of each identifier" (paper section 2). *)

type reg_class = Gpr | Pair | Fpr | Fpair | Cc | Noclass

let reg_class_of_string = function
  | "gpr" | "register" -> Some Gpr
  | "pair" | "double" -> Some Pair
  | "fpr" | "real" -> Some Fpr
  | "fpair" | "quad" -> Some Fpair
  | "cc" | "condition" -> Some Cc
  | "none" -> Some Noclass
  | _ -> None

let reg_class_name = function
  | Gpr -> "gpr"
  | Pair -> "pair"
  | Fpr -> "fpr"
  | Fpair -> "fpair"
  | Cc -> "cc"
  | Noclass -> "none"

let pp_reg_class ppf c = Fmt.string ppf (reg_class_name c)

(** Value kind a terminal's token must carry (checked by the driver). *)
type value_kind = Kint | Klabel | Kcse | Kcond

let value_kind_of_string = function
  | "displacement" | "length" | "count" | "shift" | "value" | "element"
  | "error" | "stmt" | "int" ->
      Some Kint
  | "label" -> Some Klabel
  | "cse" -> Some Kcse
  | "condition" -> Some Kcond
  | _ -> None

let value_kind_name = function
  | Kint -> "int"
  | Klabel -> "label"
  | Kcse -> "cse"
  | Kcond -> "condition"

let pp_value_kind ppf k = Fmt.string ppf (value_kind_name k)

type info =
  | Nonterminal of reg_class
  | Terminal of value_kind
  | Operator
  | Opcode
  | Constant of int
  | Semantic

(** [add_info b info] appends the text [pp_info] prints, written straight
    into [b]: the spec hashes feed it for every symbol a production
    reads. *)
let add_info b info =
  let add = Buffer.add_string b in
  match info with
  | Nonterminal c ->
      add "non-terminal (";
      add (reg_class_name c);
      add ")"
  | Terminal k ->
      add "terminal (";
      add (value_kind_name k);
      add ")"
  | Operator -> add "operator"
  | Opcode -> add "opcode"
  | Constant v ->
      add "constant (= ";
      add (string_of_int v);
      add ")"
  | Semantic -> add "semantic operator"

let pp_info ppf info =
  let b = Buffer.create 32 in
  add_info b info;
  Fmt.string ppf (Buffer.contents b)

type t = {
  table : (string, info) Hashtbl.t;
  nonterminals : (string * reg_class) list;
  terminals : (string * value_kind) list;
  operators : string list;
  opcodes : string list;
  constants : (string * int) list;
  semantics : string list;
}

type error = { line : int; msg : string }

let pp_error ppf (e : error) = Fmt.pf ppf "spec:%d: %s" e.line e.msg

exception Fail of error

let fail line fmt = Fmt.kstr (fun msg -> raise (Fail { line; msg })) fmt

let find t name = Hashtbl.find_opt t.table name

(** Counts for the paper's Table 1. *)
let n_declared t =
  List.length t.nonterminals + List.length t.terminals
  + List.length t.operators + List.length t.opcodes
  + List.length t.constants + List.length t.semantics

(* -- per-production scopes ---------------------------------------------------

   The slice of the symbol table one production can observe: its LHS and
   RHS symbols, its template operator names, and every identifier its
   operand atoms mention.  Scopes compose by union — the table relevant
   to a set of productions is exactly the union of their scopes (the
   extended-symbol-table view of Nazari et al.) — which is what lets the
   incremental builder hash each production against its scope alone: an
   edit to a declaration invalidates only the productions whose scopes
   contain it, never the whole table. *)

let scope_names (p : Spec_ast.production) : string list =
  let acc = ref [] in
  let add name = acc := name :: !acc in
  let add_ssym (s : Spec_ast.ssym) = add s.Spec_ast.base in
  let add_atom = function
    | Spec_ast.Asym s -> add_ssym s
    | Spec_ast.Anum _ -> ()
  in
  add_ssym p.Spec_ast.p_lhs;
  List.iter add_ssym p.Spec_ast.p_rhs;
  List.iter
    (fun (tm : Spec_ast.template) ->
      (* opcodes and semantic operators are declared lowercased *)
      add (String.lowercase_ascii tm.Spec_ast.t_op);
      List.iter
        (fun (o : Spec_ast.operand) ->
          add_atom o.Spec_ast.o_base;
          List.iter add_atom o.Spec_ast.o_subs)
        tm.Spec_ast.t_operands)
    p.Spec_ast.p_templates;
  List.sort_uniq String.compare !acc

let scope_of_production (t : t) (p : Spec_ast.production) :
    (string * info option) list =
  List.map (fun n -> (n, find t n)) (scope_names p)

(** The union of several productions' scopes, deduplicated: the symbol
    table a sub-specification of exactly those productions would read. *)
let scope_union (t : t) (ps : Spec_ast.production list) :
    (string * info option) list =
  List.sort_uniq compare (List.concat_map (scope_of_production t) ps)

let of_spec ?(target = Machine.Targets.default) (spec : Spec_ast.t) :
    (t, error) result =
  let table = Hashtbl.create 256 in
  let declare line name info =
    match Hashtbl.find_opt table name with
    | Some prev ->
        fail line "%s is already declared as %s" name (Fmt.str "%a" pp_info prev)
    | None -> Hashtbl.replace table name info
  in
  try
    let nonterminals =
      List.map
        (fun (d : Spec_ast.decl) ->
          let cls =
            match d.d_value with
            | Dnone -> Gpr
            | Dkind k -> (
                match reg_class_of_string k with
                | Some c -> c
                | None -> fail d.d_line "unknown register class %S for %s" k d.d_name)
            | Dnum _ ->
                fail d.d_line "non-terminal %s cannot have a numeric value" d.d_name
          in
          declare d.d_line d.d_name (Nonterminal cls);
          (d.d_name, cls))
        spec.nonterminals
    in
    let terminals =
      List.map
        (fun (d : Spec_ast.decl) ->
          let kind =
            match d.d_value with
            | Dnone -> Kint
            | Dkind k -> (
                match value_kind_of_string k with
                | Some v -> v
                | None -> fail d.d_line "unknown value kind %S for %s" k d.d_name)
            | Dnum _ ->
                fail d.d_line "terminal %s cannot have a numeric value" d.d_name
          in
          declare d.d_line d.d_name (Terminal kind);
          (d.d_name, kind))
        spec.terminals
    in
    let operators =
      List.map
        (fun (d : Spec_ast.decl) ->
          (match d.d_value with
          | Spec_ast.Dnone -> ()
          | _ -> fail d.d_line "operator %s cannot have a value" d.d_name);
          declare d.d_line d.d_name Operator;
          d.d_name)
        spec.operators
    in
    let opcodes =
      List.map
        (fun (d : Spec_ast.decl) ->
          (match d.d_value with
          | Spec_ast.Dnone -> ()
          | _ -> fail d.d_line "opcode %s cannot have a value" d.d_name);
          let name = String.lowercase_ascii d.d_name in
          if not (target.Machine.Target.is_mnemonic name) then
            fail d.d_line "opcode %s is not a known %s instruction" d.d_name
              target.Machine.Target.name;
          declare d.d_line name Opcode;
          name)
        spec.opcodes
    in
    let constants, semantics =
      List.fold_left
        (fun (cs, ss) (d : Spec_ast.decl) ->
          match d.d_value with
          | Spec_ast.Dnum v ->
              declare d.d_line d.d_name (Constant v);
              ((d.d_name, v) :: cs, ss)
          | Spec_ast.Dnone ->
              let name = String.lowercase_ascii d.d_name in
              if not (Semops.is_semantic name) then
                fail d.d_line
                  "constant %s has no value and is not a known semantic operator"
                  d.d_name;
              declare d.d_line name Semantic;
              (cs, name :: ss)
          | Spec_ast.Dkind k ->
              fail d.d_line "constant %s: expected a number, got %S" d.d_name k)
        ([], []) spec.constants
    in
    Ok
      {
        table;
        nonterminals;
        terminals;
        operators;
        opcodes;
        constants = List.rev constants;
        semantics = List.rev semantics;
      }
  with Fail e -> Error e
