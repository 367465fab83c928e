(** Dependency map from user productions to the build artifacts they
    reach: LR(0) states carrying their items, states whose action rows
    reduce by them (their lookahead landing sites), and the comb rows
    those states share.  Reporting and auditing substrate for the
    incremental builder (DESIGN.md §12) and for [coggc check]. *)

type t = {
  n_user_prods : int;
  states_of_prod : int array array;
  reduce_states_of_prod : int array array;
  rows_of_prod : int array array;
}

val build : ?compressed:Compress.t -> n_user_prods:int -> Parse_table.t -> t
(** Build the map from a full parse table ({!Tables.parse}, which a
    loaded bundle rebuilds from its grammar).  Without [?compressed],
    [rows_of_prod] is all-empty. *)

val pp_prod : Format.formatter -> t -> int -> unit
(** One-line footprint summary for a production. *)
