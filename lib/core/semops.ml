(** Registry of the semantic operators understood by the code emission
    routine (paper section 4).  A specification may declare any subset in
    its [$Constants] section; using an identifier in template-opcode
    position requires it to be declared *and* known here — "such type
    checking is of utmost importance" (paper, footnote 2). *)

let all =
  [
    (* register allocation, section 4.1 — using/need are directives
       hoisted ahead of the template sequence, but they are declared in
       $Constants like every other semantic operator *)
    "using";
    "need";
    "modifies";
    (* addressing, section 4.2 *)
    "label_location";
    "label_pntr";
    "branch";
    "branch_indexed";
    "skip";
    "case_load";
    (* machine idioms and stack manipulation, section 4.3 *)
    "ignore_lhs";
    "push_odd";
    "push_even";
    "load_odd_addr";
    "load_odd_full";
    "load_odd_half";
    "load_odd_reg";
    "load_extended";
    "store_extended";
    "clear_extended";
    "ibm_length";
    (* common subexpressions, section 4.4 *)
    "full_common";
    "half_common";
    "byte_common";
    "real_common";
    "dreal_common";
    "find_common";
    "find_real_common";
    (* bookkeeping *)
    "stmt_record";
    "list_request";
    "abort";
  ]

let is_semantic name = List.mem (String.lowercase_ascii name) all

(** The IF type operator a CSE-definition operator corresponds to: when a
    common subexpression has been evicted to its temporary, [find_common]
    prefixes [<type-op> dsp base] to the input stream so the normal load
    productions reload it. *)
let common_type_operator = function
  | "full_common" -> Some "fullword"
  | "half_common" -> Some "halfword"
  | "byte_common" -> Some "byteword"
  | "real_common" -> Some "realword"
  | "dreal_common" -> Some "dblrealword"
  | _ -> None
