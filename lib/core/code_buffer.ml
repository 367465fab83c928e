(** The code buffer filled by the code emission routine.

    Most entries are finished machine instructions; branch and case-table
    sites stay symbolic ("while parsing the IF, label locations and branch
    instructions are kept in a dictionary", paper section 3) until the
    Loader Record Generator resolves them.

    The buffer is a growable array with a cached instruction count, so
    appending is two writes and every consumer (the loader's sizing
    passes, [stmt_record] bookkeeping, the listing) reads the items in
    place — no list reversal, no counting traversals. *)

(** Labels: [User] labels come from the IF ([label_def lbl.n]); [Internal]
    labels are invented by the code emitter for [skip] targets, so the
    shaper never has to allocate them (paper section 4.2). *)
type label = User of int | Internal of int

let pp_label ppf = function
  | User n -> Fmt.pf ppf "L%d" n
  | Internal n -> Fmt.pf ppf ".%d" n

type item =
  | Fixed of Machine.Insn.t
  | Branch_site of { mask : int; lbl : label; idx : int; x : int }
      (** conditional branch to [lbl]; [idx] is the register reserved for
          the long form; [x] an optional extra index register (0 = none) *)
  | Case_site of { reg : int; lbl : label; idx : int }
      (** load of branch-table word at [lbl] indexed by [reg] *)
  | Label_def of label
  | Word_lit of int  (** literal data word in the instruction stream *)
  | Word_label of label  (** data word holding a label's offset *)

(* a harmless placeholder for unfilled array slots *)
let dummy_item = Word_lit 0

type t = {
  mutable arr : item array;
  mutable n : int;
  mutable n_insns : int;  (** cached machine-instruction count *)
}

let create () = { arr = Array.make 64 dummy_item; n = 0; n_insns = 0 }

let add t item =
  if t.n = Array.length t.arr then begin
    let narr = Array.make (2 * t.n) dummy_item in
    Array.blit t.arr 0 narr 0 t.n;
    t.arr <- narr
  end;
  t.arr.(t.n) <- item;
  t.n <- t.n + 1;
  match item with
  | Fixed _ | Branch_site _ | Case_site _ -> t.n_insns <- t.n_insns + 1
  | Label_def _ | Word_lit _ | Word_label _ -> ()

let length t = t.n
let get t i = if i < 0 || i >= t.n then invalid_arg "Code_buffer.get" else t.arr.(i)

let contents t = Array.sub t.arr 0 t.n

let items t = Array.to_list (contents t)

(** Count of machine instructions (sites count as one); O(1), maintained
    on append. *)
let n_instructions t = t.n_insns

let pp_item ppf = function
  | Fixed i -> Fmt.pf ppf "      %a" Machine.Insn.pp i
  | Branch_site { mask; lbl; x; _ } ->
      if x = 0 then Fmt.pf ppf "      bc    %d,%a" mask pp_label lbl
      else Fmt.pf ppf "      bc    %d,%a(r%d)" mask pp_label lbl x
  | Case_site { reg; lbl; _ } ->
      Fmt.pf ppf "      l     r%d,%a(r%d)" reg pp_label lbl reg
  | Label_def l -> Fmt.pf ppf "%a:" pp_label l
  | Word_lit v -> Fmt.pf ppf "      dc    f'%d'" v
  | Word_label l -> Fmt.pf ppf "      dc    a(%a)" pp_label l

(* Listing text, byte-identical to [pp_item]: the listing is produced
   once per compile and feeds the determinism fingerprint, so it
   bypasses the [Format] machinery and is written, integers digit by
   digit, into one string sized up front by [item_width]. *)
module Insn = Machine.Insn

let label_width (User n | Internal n) = 1 + Insn.digits n

let add_label o = function
  | User n ->
      Insn.add_char o 'L';
      Insn.add_int o n
  | Internal n ->
      Insn.add_char o '.';
      Insn.add_int o n

let item_width = function
  | Fixed i -> 6 + Insn.width i
  | Branch_site { mask; lbl; x; _ } ->
      12 + Insn.digits mask + 1 + label_width lbl
      + if x <> 0 then 3 + Insn.digits x else 0
  | Case_site { reg; lbl; _ } ->
      13 + Insn.digits reg + 1 + label_width lbl + 3 + Insn.digits reg
  | Label_def l -> label_width l + 1
  | Word_lit v -> 14 + Insn.digits v + 1
  | Word_label l -> 14 + label_width l + 1

let render_item o = function
  | Fixed i ->
      Insn.add_string o "      ";
      Insn.render o i
  | Branch_site { mask; lbl; x; _ } ->
      Insn.add_string o "      bc    ";
      Insn.add_int o mask;
      Insn.add_char o ',';
      add_label o lbl;
      if x <> 0 then Insn.add_base o x
  | Case_site { reg; lbl; _ } ->
      Insn.add_string o "      l     r";
      Insn.add_int o reg;
      Insn.add_char o ',';
      add_label o lbl;
      Insn.add_base o reg
  | Label_def l ->
      add_label o l;
      Insn.add_char o ':'
  | Word_lit v ->
      Insn.add_string o "      dc    f'";
      Insn.add_int o v;
      Insn.add_char o '\''
  | Word_label l ->
      Insn.add_string o "      dc    a(";
      add_label o l;
      Insn.add_char o ')'

(** Assembly-style listing in the manner of the paper's Appendix 1. *)
let to_listing t =
  let len = ref (max 0 (t.n - 1)) in
  for i = 0 to t.n - 1 do
    len := !len + item_width t.arr.(i)
  done;
  let o = Insn.out !len in
  for i = 0 to t.n - 1 do
    if i > 0 then Insn.add_char o '\n';
    render_item o t.arr.(i)
  done;
  Insn.contents o

let pp ppf t = Fmt.string ppf (to_listing t)
