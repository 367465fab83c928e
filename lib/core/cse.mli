(** The code generator's common-subexpression symbol table (paper 4.4).

    Each CSE carries a unique number, a use count established by the IF
    optimizer, a shaper-allocated temporary (used only if the register
    copy must be given up) and its current residence. *)

type residence = In_reg of int | In_mem

type entry = {
  id : int;
  ty : Grammar.sym option;  (** IF type operator used to reload from memory *)
  fp : bool;
  temp_dsp : int;
  temp_base : int;
  mutable remaining : int;
  mutable residence : residence;
}

type t = { entries : (int, entry) Hashtbl.t }

val create : unit -> t

val define :
  t ->
  id:int ->
  ty:Grammar.sym option ->
  fp:bool ->
  count:int ->
  reg:int ->
  temp_dsp:int ->
  temp_base:int ->
  unit

val find : t -> int -> entry option

val to_memory : t -> int -> unit
(** The register lost its copy (eviction or [modifies]); subsequent uses
    reload from the temporary. *)

val consume : t -> int -> unit
(** Record one use consumed. *)
