(** CoGG's top level: specification text -> driving tables.

    [build] performs the whole pipeline: parse the specification, build
    the typed symbol table, construct the grammar and its LR automaton,
    resolve conflicts with the Graham-Glanville policy, and compile
    every template.  Errors carry specification line numbers. *)

type error = { line : int; msg : string }

val pp_error : Format.formatter -> error -> unit

val grammar_of_spec :
  Symtab.t -> Spec_ast.t -> (Grammar.t, error list) result
(** Build the augmented machine grammar from a checked specification. *)

val build :
  ?pool:Pool.t ->
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  Spec_ast.t ->
  (Tables.t, error list) result
(** Build the complete table bundle.  [mode] selects SLR(1) (the
    default, as in the paper) or LALR(1) lookaheads.  [pool] parallelizes
    lookahead computation, the per-state action-table fill, table
    compression prep and template compilation; the resulting bundle is
    byte-identical at any worker count.  [target] selects the machine
    substrate the spec's opcodes and template shapes are checked against
    (default: the Amdahl 470); it is recorded in [Tables.target] and
    drives emission, loading and simulation. *)

type incr_stats = {
  spliced_tables : bool;
  templates_reused : int;
  templates_recompiled : int;
}
(** What an incremental rebuild actually recomputed: [spliced_tables]
    means the LR(0) automaton, action table, conflict log and comb
    packing came from the previous build wholesale (the grammar shape
    and symbol ids were unchanged); the template counters split the
    user productions into hash-matched reuses and fresh compiles. *)

val pp_incr_stats : Format.formatter -> incr_stats -> unit

val build_incremental :
  ?pool:Pool.t ->
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  previous:Tables.t ->
  Spec_ast.t ->
  (Tables.t * incr_stats, error list) result
(** Rebuild the bundle for an edited spec, recomputing only the
    artifacts downstream of changed per-production content hashes
    ({!Spec_hash}) and splicing everything else in from [previous] — a
    build of an earlier revision of the same spec (same target, same
    lookahead mode; anything else falls back to a full {!build}).
    Splice rules: stable declaration structure transfers hash-matched
    compiled templates (rebound to their new production ids); an
    unchanged grammar shape additionally transfers the automaton,
    action rows, conflicts and comb packing.  The result is byte-identical
    to a from-scratch build of the same spec at any worker count —
    enforced by the randomized edit oracle in the test suite. *)

val build_incremental_string :
  ?pool:Pool.t ->
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  previous:Tables.t ->
  string ->
  (Tables.t * incr_stats, error list) result

val build_string :
  ?pool:Pool.t ->
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  string ->
  (Tables.t, error list) result

val build_file :
  ?pool:Pool.t ->
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  string ->
  (Tables.t, error list) result
