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
  row_index : Cells.t;  (** state -> shared row id *)
  defaults : Cells.t;  (** per-row default entry (encoded) *)
  offsets : Cells.t;  (** per-row displacement into value/check *)
  value : Cells.t;
  check : Cells.t;
  size_bytes : int;  (** the Table-2 size accounting *)
}
(** Each column holds its cells at the narrowest width that fits them;
    for a comb those are the widths [size_bytes] charges (16-bit
    actions, row ids and offsets, 8-bit checks).  The columns of a
    loaded bundle are views on the bundle's own bytes. *)

val cell_bytes : t -> int
(** Bytes the five columns' cells take: [size_bytes] for the comb of a
    full-size table. *)

val uncompressed_bytes : t -> int
(** One 16-bit entry per (state, symbol) pair: the flat table of the
    same dimensions. *)

val compress : ?method_:method_ -> Parse_table.t -> t

val rows : method_ -> Parse_table.t -> int array * (int * (int * int) list) array
(** [rows method_ pt] is what [compress] packs: each state's row as its
    default entry and its other non-error [(column, entry)] pairs in
    column order, with identical rows shared.  The result is the
    state -> row map and the distinct rows in the order first met. *)

val pack_rows : (int * int) list array -> int array * int array * int array
(** [pack_rows rows] is the comb: row [r] of [rows] lists its
    [(column, value)] entries, columns distinct and ascending, and the
    result is [(offsets, value, check)] with, for every entry [(s, v)]
    of row [r], [value.(offsets.(r) + s) = v] and
    [check.(offsets.(r) + s) = s + 1]; a cell no row owns has check 0.
    Rows are placed densest first (ties by row index), each at the
    lowest offset no earlier row took where all its columns fall on
    free cells; an empty row gets the offset one past the last cell.
    [value] and [check] end at the last cell any row owns. *)

val action_code : t -> int -> int -> int
(** [action_code c state sym] is the O(1) runtime probe: row_index ->
    offset -> value/check, falling back to the row default on a check
    miss.  Returns the raw encoded
    entry (no allocation); this is what {!Driver.parse} dispatches on. *)

val dispatcher : t -> int -> int -> int
(** [dispatcher c] is [action_code c] with the table's columns and
    method dispatch resolved once, for the driver's inner loop; it reads
    the cells in place. *)

val action : t -> int -> int -> Parse_table.action
(** [action c state sym] is [action_code] decoded: table lookup through
    the compressed representation. *)

val verify : t -> Parse_table.t -> (int, string) result
(** Check that the compressed table reproduces the original exactly,
    modulo default reductions replacing errors (which only delay error
    detection); returns the number of such softened entries. *)
