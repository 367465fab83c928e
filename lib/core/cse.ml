(** The code generator's common-subexpression symbol table (paper
    section 4.4).

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

let create () = { entries = Hashtbl.create 16 }

let define t ~id ~ty ~fp ~count ~reg ~temp_dsp ~temp_base =
  Hashtbl.replace t.entries id
    {
      id;
      ty;
      fp;
      temp_dsp;
      temp_base;
      remaining = count;
      residence = In_reg reg;
    }

let find t id = Hashtbl.find_opt t.entries id

(** The register lost its copy (eviction or [modifies]); subsequent uses
    reload from the temporary. *)
let to_memory t id =
  match find t id with
  | Some e -> e.residence <- In_mem
  | None -> ()

(** Record one use consumed. *)
let consume t id =
  match find t id with
  | Some e -> e.remaining <- max 0 (e.remaining - 1)
  | None -> ()
