(** The measurements behind the paper's Table 1. *)

type table1 = {
  symbols_declared : int;  (** i.   Number of symbols declared *)
  x_dimension : int;  (** ii.  X dimension of parse table *)
  states : int;  (** iii. States in parsing automaton *)
  entries : int;  (** iv.  Parse table entries *)
  significant : int;  (** v.   Significant (non-error) entries *)
  productions : int;  (** vi.  Productions *)
  templates : int;  (** vii. SDT templates *)
  production_operators : int;  (** viii. Operators usable in productions *)
  semantic_operators : int;  (** ix.  Semantic operators *)
}

(** The paper's reported values, for side-by-side comparison. *)
let paper_table1 =
  {
    symbols_declared = 247;
    x_dimension = 87;
    states = 810;
    entries = 70470;
    significant = 30366;
    productions = 248;
    templates = 578;
    production_operators = 68;
    semantic_operators = 28;
  }

(** Compute Table 1 for a built code generator.  [spec] supplies the
    template count (templates live in the specification, not the
    grammar). *)
let table1 (spec : Spec_ast.t) (t : Tables.t) : table1 =
  let g = t.Tables.grammar in
  let st = t.Tables.symtab in
  (* the X dimension counts the symbols that can be encountered in the IF
     during a parse: terminals, operators and the register non-terminals
     (paper section 5, entry ii) *)
  let x_cols =
    List.filter
      (fun s -> g.Grammar.in_if.(s))
      (List.init (Grammar.n_syms g) Fun.id)
  in
  let states = Tables.n_states t in
  {
    symbols_declared = Symtab.n_declared st;
    x_dimension = List.length x_cols;
    states;
    entries = states * List.length x_cols;
    significant =
      Parse_table.significant_entries ~cols:(Some x_cols) (Tables.parse t);
    productions = t.Tables.n_user_prods;
    templates = Spec_ast.n_templates spec;
    production_operators = List.length st.Symtab.operators;
    semantic_operators = List.length st.Symtab.semantics;
  }

let pp_table1_row ppf (label, paper, ours) =
  Fmt.pf ppf "%-32s %10d %10d" label paper ours

let pp_table1 ppf (ours : table1) =
  let p = paper_table1 in
  Fmt.pf ppf "%-32s %10s %10s@." "Table 1" "paper" "measured";
  List.iter
    (fun row -> Fmt.pf ppf "%a@." pp_table1_row row)
    [
      ("i.   Number of symbols declared", p.symbols_declared, ours.symbols_declared);
      ("ii.  X dimension of parse table", p.x_dimension, ours.x_dimension);
      ("iii. States in parsing automaton", p.states, ours.states);
      ("iv.  Parse table entries", p.entries, ours.entries);
      ("v.   Significant entries", p.significant, ours.significant);
      ("vi.  Productions", p.productions, ours.productions);
      ("vii. SDT templates", p.templates, ours.templates);
      ("viii.Production operators", p.production_operators, ours.production_operators);
      ("ix.  Semantic operators", p.semantic_operators, ours.semantic_operators);
    ]
