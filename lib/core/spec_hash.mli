(** Content hashes over a specification at per-production granularity —
    the change-detection substrate of incremental table construction
    (DESIGN.md §12).

    [decls] digests the names, in declaration order, of the sections the
    grammar interns symbols from; equal digests guarantee stable symbol
    ids, which makes previously compiled templates splice-safe.
    [shape] digests the (lhs, rhs) base-name sequence of the productions
    — the exact input of LR(0) construction — so equal [decls] + [shape]
    license reusing the previous automaton, action table and comb
    packing wholesale.  [prods.(i)] digests production [i]'s symbol
    occurrences, template lines and {!Symtab.scope_of_production} slice;
    source line numbers are excluded throughout, so edits that merely
    shift later productions do not invalidate them. *)

type t = {
  decls : string;  (** id-assignment digest (hex) *)
  shape : string;  (** grammar-shape digest (hex) *)
  prods : string array;  (** per-user-production content digest (hex) *)
}

val of_spec : Symtab.t -> Spec_ast.t -> t

val production_hash : Symtab.t -> Spec_ast.production -> string
(** The content digest of one production: grammar signature, template
    body, and the symbol-table slice it reads. *)
