(** The complete table bundle produced by CoGG: the driving tables for the
    skeletal parser plus the compiled templates and the type information
    the runtime needs (paper section 2). *)

type t = {
  target : Machine.Target.t;
      (** the machine substrate this bundle's templates emit for *)
  grammar : Grammar.t;
  symtab : Symtab.t;
  parse : Parse_table.t;
  compressed : Compress.t;
      (** the comb-packed (defaults + row displacement) form of [parse],
          built once at table-construction time; the driver's default
          dispatch path probes this representation *)
  compiled : Template.compiled option array;
      (** per production id; [None] for the augmentation productions *)
  n_user_prods : int;
  class_of : Symtab.reg_class option array;  (** by grammar symbol *)
  kind_of : Symtab.value_kind option array;  (** by grammar symbol *)
  hashes : Spec_hash.t;
      (** per-production content hashes of the spec this bundle was
          built from — the partial-build state an incremental rebuild
          diffs against; persisted in the bundle (format v6) *)
}

let class_of t sym = t.class_of.(sym)
let kind_of t sym = t.kind_of.(sym)

let is_user_prod t p = p < t.n_user_prods

let compiled t p =
  if p < Array.length t.compiled then t.compiled.(p) else None

(** Register bank a grammar symbol's values live in. *)
let bank_of t sym : Regalloc.bank option =
  Option.map Regalloc.bank_of_class (class_of t sym)

let conflicts t = t.parse.Parse_table.conflicts
