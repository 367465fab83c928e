(** Content hashes over a specification at per-production granularity.

    Three digests drive the incremental table builder ({!Cogg_build}):

    - [decls] covers the names, in declaration order, of the three
      sections the grammar interns symbols from (non-terminals,
      terminals, operators).  Equal digests guarantee that the grammar
      assigns every symbol the same id, which is what makes a compiled
      template from a previous build splice-safe: template steps refer
      to symbols by id.
    - [shape] covers the (lhs, rhs) base-name sequence of every
      production — exactly the input LR(0) construction and conflict
      resolution see.  Equal [decls] and [shape] mean the automaton,
      the action table, the conflict log and the comb packing of the
      previous build are byte-for-byte what a fresh build would
      produce.
    - [prods.(i)] covers user production [i] in full: LHS/RHS symbol
      occurrences (with their [.n] indices), every template line, and
      the slice of the symbol table the production reads — its
      {!Symtab.scope_of_production}.  A production whose hash is
      unchanged compiles to an identical template (modulo the
      production id), so the previous build's compiled form is reused.

    Source line numbers are deliberately excluded everywhere: an edit
    that only shifts later productions down a line must not invalidate
    them. *)

type t = {
  decls : string;  (** id-assignment digest (hex) *)
  shape : string;  (** grammar-shape digest (hex) *)
  prods : string array;  (** per-user-production content digest (hex) *)
}

let feed_sep buf = Buffer.add_char buf '\x00'

let feed_ssym buf (s : Spec_ast.ssym) =
  Buffer.add_string buf s.Spec_ast.base;
  (match s.Spec_ast.idx with
  | None -> ()
  | Some i ->
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int i));
  feed_sep buf

let feed_atom buf = function
  | Spec_ast.Asym s -> feed_ssym buf s
  | Spec_ast.Anum n ->
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int n);
      feed_sep buf

let feed_operand buf (o : Spec_ast.operand) =
  feed_atom buf o.Spec_ast.o_base;
  Buffer.add_char buf '(';
  List.iter (feed_atom buf) o.Spec_ast.o_subs;
  Buffer.add_char buf ')'

let feed_template buf (tm : Spec_ast.template) =
  Buffer.add_string buf tm.Spec_ast.t_op;
  feed_sep buf;
  List.iter (feed_operand buf) tm.Spec_ast.t_operands;
  Buffer.add_char buf '\n'

let feed_info buf = function
  | None -> Buffer.add_char buf '?'
  | Some info -> Symtab.add_info buf info

let production_hash (symtab : Symtab.t) (p : Spec_ast.production) : string =
  let buf = Buffer.create 256 in
  feed_ssym buf p.Spec_ast.p_lhs;
  Buffer.add_string buf "::=";
  List.iter (feed_ssym buf) p.Spec_ast.p_rhs;
  Buffer.add_char buf '\n';
  List.iter (feed_template buf) p.Spec_ast.p_templates;
  Buffer.add_string buf "--scope--\n";
  List.iter
    (fun (name, info) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      feed_info buf info;
      feed_sep buf)
    (Symtab.scope_of_production symtab p);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let decls_digest (symtab : Symtab.t) : string =
  let buf = Buffer.create 512 in
  List.iter
    (fun (n, _) ->
      Buffer.add_string buf n;
      feed_sep buf)
    symtab.Symtab.nonterminals;
  Buffer.add_char buf '\n';
  List.iter
    (fun (n, _) ->
      Buffer.add_string buf n;
      feed_sep buf)
    symtab.Symtab.terminals;
  Buffer.add_char buf '\n';
  List.iter
    (fun n ->
      Buffer.add_string buf n;
      feed_sep buf)
    symtab.Symtab.operators;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let shape_digest (spec : Spec_ast.t) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (p : Spec_ast.production) ->
      Buffer.add_string buf p.Spec_ast.p_lhs.Spec_ast.base;
      Buffer.add_string buf "::=";
      List.iter
        (fun (s : Spec_ast.ssym) ->
          Buffer.add_string buf s.Spec_ast.base;
          feed_sep buf)
        p.Spec_ast.p_rhs;
      Buffer.add_char buf '\n')
    spec.Spec_ast.productions;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let of_spec (symtab : Symtab.t) (spec : Spec_ast.t) : t =
  {
    decls = decls_digest symtab;
    shape = shape_digest spec;
    prods =
      Array.of_list
        (List.map (production_hash symtab) spec.Spec_ast.productions);
  }
