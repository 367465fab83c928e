(** Parse-table compression.

    Two classical techniques, composable (the paper's "compressed" table
    of Table 2 notes its tables are "by no means minimally compressed"):

    - default reductions: the most common reduce action of a row becomes
      the row default, removing those entries (error detection is delayed
      by at most a few reductions, never lost);
    - row-displacement ("comb") packing with row sharing: identical rows
      collapse, and distinct rows overlay into one value array with a
      one-byte column-check array (sound because distinct rows take
      distinct offsets). *)

type method_ =
  | No_compression
  | Defaults_only
  | Comb_only
  | Defaults_and_comb

val encode_action : Parse_table.action -> int
(** 16-bit entry encoding: 0 = error, 1 = accept, even = shift, odd =
    reduce. *)

val decode_action : int -> Parse_table.action

type t = {
  n_states : int;
  n_syms : int;
  method_ : method_;
  row_index : int array;  (** state -> shared row id *)
  defaults : int array;  (** per-row default entry (encoded) *)
  offsets : int array;  (** per-row displacement into value/check *)
  value : int array;
  check : int array;
  size_bytes : int;  (** the Table-2 size accounting *)
}

val uncompressed_bytes : Parse_table.t -> int
(** One 16-bit entry per (state, symbol) pair: the flat table. *)

val compress : ?pool:Pool.t -> ?method_:method_ -> Parse_table.t -> t
(** [?pool] parallelizes the per-state row extraction and the per-row
    packing prep; the first-fit placement itself is sequential, so the
    packed table is byte-identical at any worker count. *)

val action_code : t -> int -> int -> int
(** [action_code c state sym] is the O(1) runtime probe: row_index ->
    offset -> value/check, falling back to the row default on a check
    miss.  Returns the raw encoded
    entry (no allocation); this is what {!Driver.parse} dispatches on. *)

val dispatcher : t -> int -> int -> int
(** [dispatcher c] is [action_code c] with the table's arrays and method
    dispatch resolved once, for the driver's inner loop. *)

val action : t -> int -> int -> Parse_table.action
(** [action c state sym] is [action_code] decoded: table lookup through
    the compressed representation. *)

val verify : t -> Parse_table.t -> (int, string) result
(** Check that the compressed table reproduces the original exactly,
    modulo default reductions replacing errors (which only delay error
    detection); returns the number of such softened entries. *)
