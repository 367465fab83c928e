(** The code buffer filled by the code emission routine.

    Most entries are finished machine instructions; branch and case-table
    sites stay symbolic ("while parsing the IF, label locations and
    branch instructions are kept in a dictionary", paper section 3)
    until the Loader Record Generator resolves them.

    Backed by a growable array with a cached instruction count: appends
    are O(1), [n_instructions] is O(1), and consumers read items in
    place. *)

(** Labels: [User] labels come from the IF ([label_def lbl.n]);
    [Internal] labels are invented by the code emitter for [skip]
    targets, so the shaper never has to allocate them (paper 4.2). *)
type label = User of int | Internal of int

val pp_label : Format.formatter -> label -> unit

type item =
  | Fixed of Machine.Insn.t
  | Branch_site of { mask : int; lbl : label; idx : int; x : int }
      (** conditional branch to [lbl]; [idx] is the register reserved for
          the long form; [x] an optional extra index register (0 = none) *)
  | Case_site of { reg : int; lbl : label; idx : int }
      (** load of the branch-table word at [lbl] indexed by [reg] *)
  | Label_def of label
  | Word_lit of int  (** literal data word in the instruction stream *)
  | Word_label of label  (** data word holding a label's offset *)

type t

val create : unit -> t
val add : t -> item -> unit
val length : t -> int

val get : t -> int -> item
(** [get t i] is the [i]th appended item; raises [Invalid_argument]
    outside [0..length-1]. *)

val contents : t -> item array
(** The appended items in order, as a fresh array. *)

val items : t -> item list
(** The appended items in order, as a list (prefer {!contents} on hot
    paths). *)

val n_instructions : t -> int
(** Count of machine instructions (sites count as one); O(1), cached on
    append. *)

val pp_item : Format.formatter -> item -> unit

val pp : Format.formatter -> t -> unit
(** Assembly-style listing in the manner of the paper's Appendix 1. *)

val to_listing : t -> string
