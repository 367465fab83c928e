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

(* Buffer-based rendering, byte-identical to [pp_item]: the listing is
   produced once per compile and feeds the determinism fingerprint, so
   it bypasses the [Format] machinery (boxes, format-string
   interpretation) which otherwise dominates compile time. *)
let render_label b = function
  | User n ->
      Buffer.add_char b 'L';
      Buffer.add_string b (string_of_int n)
  | Internal n ->
      Buffer.add_char b '.';
      Buffer.add_string b (string_of_int n)

let render_item b = function
  | Fixed i ->
      Buffer.add_string b "      ";
      Machine.Insn.render b i
  | Branch_site { mask; lbl; x; _ } ->
      Buffer.add_string b "      bc    ";
      Buffer.add_string b (string_of_int mask);
      Buffer.add_char b ',';
      render_label b lbl;
      if x <> 0 then begin
        Buffer.add_string b "(r";
        Buffer.add_string b (string_of_int x);
        Buffer.add_char b ')'
      end
  | Case_site { reg; lbl; _ } ->
      Buffer.add_string b "      l     r";
      Buffer.add_string b (string_of_int reg);
      Buffer.add_char b ',';
      render_label b lbl;
      Buffer.add_string b "(r";
      Buffer.add_string b (string_of_int reg);
      Buffer.add_char b ')'
  | Label_def l ->
      render_label b l;
      Buffer.add_char b ':'
  | Word_lit v ->
      Buffer.add_string b "      dc    f'";
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b '\''
  | Word_label l ->
      Buffer.add_string b "      dc    a(";
      render_label b l;
      Buffer.add_char b ')'

(** Assembly-style listing in the manner of the paper's Appendix 1. *)
let to_listing t =
  let b = Buffer.create (24 * (t.n + 1)) in
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_char b '\n';
    render_item b t.arr.(i)
  done;
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_listing t)
