(** The IF optimizer's common-subexpression detection (paper section 4.4):
    "All CSEs are detected, and their use counts established, by an IF
    optimizer."

    Scope: within a single statement tree, which keeps the transformation
    trivially safe (no assignment can intervene between the definition and
    its uses).  Candidate subtrees are pure integer-register-valued
    computations of at least [min_nodes] nodes; the first occurrence is
    wrapped in [make_common] (with the shaper-allocated temporary), later
    occurrences become [use_common].

    Detection is value numbering: one bottom-up pass per statement maps
    every node to the class of its structurally equal subtrees, keyed by
    (token, children's classes), caches the class's size, purity and
    candidacy, and counts each candidate's occurrences as it goes.
    Choosing and rewriting then walk the classes, so a statement costs
    time linear in its size. *)

module Tree = Ifl.Tree
module Token = Ifl.Token

(* integer-register-valued operators eligible as CSE roots *)
let eligible_root = function
  | "iadd" | "isub" | "imult" | "idiv" | "imod" | "l_shift" | "r_shift"
  | "iabs" | "ineg" | "imax" | "imin" | "incr" | "decr" | "fullword"
  | "hlfword" | "byteword" ->
      true
  | _ -> false

(* purity: no label/branch/call machinery below, only arithmetic, loads
   and constants *)
let pure_sym = function
  | "iadd" | "isub" | "imult" | "idiv" | "imod" | "l_shift" | "r_shift"
  | "iabs" | "ineg" | "imax" | "imin" | "iodd" | "incr" | "decr"
  | "fullword" | "hlfword" | "byteword" | "addr" | "pos_constant"
  | "neg_constant" | "dsp" | "v" | "r" | "lng" | "elmnt" ->
      true
  | _ -> false

let min_nodes = 3

type state = { mutable next_cse : int; mutable frame : Layout.t }

(* Children in *positional* spots are grammar punctuation, not value
   expressions: the address of an assign, the procedure-address load of a
   call, the CSE temporary of make_common.  The node in such a spot can
   never be replaced (though computations nested deeper inside it can). *)
let positional sym i =
  match (sym, i) with
  | "assign", 0 -> true
  | "procedure_call", 1 -> true
  | "make_common", 2 -> true
  | _ -> false

(* A chosen CSE.  [total] is the census count, so [make_common] declares
   [total - 1] uses; copies nested inside a later occurrence of another
   chosen CSE are counted but rewritten away with it. *)
type chosen = { id : int; total : int; mutable defined : bool; temp : int }

(* One class of structurally equal subtrees of a statement.  Numbering
   hash-conses the statement into a DAG of classes, so walking a class
   and its [kids] top-down visits the same nodes as walking the tree. *)
type cls = {
  tok : Token.t;
  kids : cls list;
  num : int;  (** value number, unique within the statement *)
  size : int;
  pure : bool;
  cand : bool;  (** pure eligible root of at least [min_nodes] nodes *)
  mutable count : int;  (** occurrences in non-positional spots *)
  mutable chosen : chosen option;
}

(* keyed by (token, child classes); a class is unique per value number,
   so children compare physically *)
module Vn = Hashtbl.Make (struct
  type t = Token.t * cls list

  let equal (t1, k1) (t2, k2) = Token.equal t1 t2 && List.equal ( == ) k1 k2

  let hash (t, kids) =
    List.fold_left (fun h k -> (h * 31) + k.num) (Hashtbl.hash t) kids
end)

let count c = if c.cand then c.count <- c.count + 1

(* value-number bottom-up, counting every candidate occurrence in a
   non-positional child spot (the caller counts the statement root) *)
let rec number tbl (Tree.Node (t, kids)) =
  let kids = List.map (number tbl) kids in
  let c =
    match Vn.find_opt tbl (t, kids) with
    | Some c -> c
    | None ->
        let size = List.fold_left (fun a k -> a + k.size) 1 kids in
        let pure = pure_sym t.Token.sym && List.for_all (fun k -> k.pure) kids in
        let c =
          {
            tok = t;
            kids;
            num = Vn.length tbl;
            size;
            pure;
            cand = pure && eligible_root t.Token.sym && size >= min_nodes;
            count = 0;
            chosen = None;
          }
        in
        Vn.add tbl (t, kids) c;
        c
  in
  List.iteri (fun i k -> if not (positional t.Token.sym i) then count k) kids;
  c

(* choose outermost repeated subtrees: walk top-down, and when a node is
   chosen do not consider its descendants (every occurrence of a chosen
   subtree is replaced wholesale, so nothing below it can need its own
   CSE).  Ids and temporaries are allocated in walk order. *)
let rec choose st root_ok c =
  if root_ok && c.cand && c.count >= 2 then begin
    if Option.is_none c.chosen then begin
      let id = st.next_cse in
      st.next_cse <- id + 1;
      let temp = Layout.temp st.frame ("cse-" ^ Int.to_string id) in
      c.chosen <- Some { id; total = c.count; defined = false; temp }
    end
  end
  else List.iteri (fun i k -> choose st (not (positional c.tok.Token.sym i)) k) c.kids

(* rewrite: for chosen classes, first occurrence -> make_common, rest ->
   use_common.  Top-down so outermost repeats win; inside a replaced
   subtree no further rewriting happens (its copies are gone). *)
let rec rewrite root_ok c : Tree.t =
  match (if root_ok then c.chosen else None) with
  | Some ch when not ch.defined ->
      ch.defined <- true;
      (* definition: keep the computation, declare the CSE *)
      Tree.node "make_common"
        [
          Tree.Node (Token.cse "cse" ch.id, []);
          Tree.Node (Token.int "cnt" (ch.total - 1), []);
          Tree.node "fullword"
            [
              Tree.Node (Token.int "dsp" ch.temp, []);
              Tree.Node (Token.reg "r" Machine.Runtime.stack_base, []);
            ];
          Tree.Node (c.tok, rewrite_kids c);
        ]
  | Some ch -> Tree.node "use_common" [ Tree.Node (Token.cse "cse" ch.id, []) ]
  | None -> Tree.Node (c.tok, rewrite_kids c)

and rewrite_kids c =
  List.mapi (fun i k -> rewrite (not (positional c.tok.Token.sym i)) k) c.kids

(** Optimize one statement tree.  [state] carries the CSE numbering and
    the frame that provides temporaries. *)
let optimize_statement (st : state) (tree : Tree.t) : Tree.t =
  let root = number (Vn.create 16) tree in
  count root;
  let first = st.next_cse in
  choose st true root;
  if st.next_cse = first then tree else rewrite true root

(** Optimize a shaped program: CSEs are numbered across the module (they
    are "valid throughout the compilation"), temporaries come from the
    frame owning the statement. *)
let optimize (shaped : Irgen.shaped) : Irgen.shaped =
  let st = { next_cse = 1; frame = shaped.Irgen.main_frame } in
  (* statements before the first procedure label belong to main; after a
     label_def that matches a procedure entry, switch frames *)
  let proc_label_frames =
    List.filter_map
      (fun (name, _, lbl) ->
        Option.map (fun f -> (lbl, f)) (List.assoc_opt name shaped.Irgen.proc_frames))
      shaped.Irgen.proc_slots
  in
  let trees =
    List.map
      (fun tree ->
        (match tree with
        | Tree.Node (t, [ Tree.Node (l, []) ]) when t.Token.sym = "label_def"
          -> (
            match l.Token.value with
            | Ifl.Value.Label n | Ifl.Value.Int n -> (
                match List.assoc_opt n proc_label_frames with
                | Some f -> st.frame <- f
                | None -> ())
            | _ -> ())
        | _ -> ());
        optimize_statement st tree)
      shaped.Irgen.trees
  in
  { shaped with Irgen.trees }
