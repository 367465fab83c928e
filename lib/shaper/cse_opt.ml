(** The IF optimizer's common-subexpression detection (paper section 4.4):
    "All CSEs are detected, and their use counts established, by an IF
    optimizer."

    Scope: within a single statement tree, which keeps the transformation
    trivially safe (no assignment can intervene between the definition and
    its uses).  Candidate subtrees are pure integer-register-valued
    computations of at least [min_nodes] nodes; the first occurrence is
    wrapped in [make_common] (with the shaper-allocated temporary), later
    occurrences become [use_common].

    Most statements hold no repeated candidate, so each statement is
    first screened: one walk hashes every pure subtree bottom-up,
    records the hash of each candidate occurrence in an int array, and
    the statement is returned as it is when no hash repeats.  The walk
    allocates nothing (its arrays grow only for a larger statement).  Equal
    subtrees always hash equally, so the screen never skips a statement
    with a repeat.  A statement that passes it is numbered by the same
    walk: each candidate occurrence joins the class of an equal subtree
    (same hash, then [Tree.equal]) or starts one, and the class counts
    its occurrences.  Choosing and rewriting then walk the tree in
    pre-order, finding each occurrence's class by its pre-order index.
    The tables live in the per-call state and are reused by every
    statement. *)

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

(* One class of equal candidate subtrees of a statement.  [count] is the
   census count (occurrences in non-positional spots), so [make_common]
   declares [count - 1] uses; copies nested inside a later occurrence of
   another chosen CSE are counted but rewritten away with it. *)
type cls = {
  rep : Tree.t;  (** the first occurrence met *)
  hash : int;
  size : int;  (** nodes, so a replaced occurrence can be stepped over *)
  mutable count : int;
  mutable id : int;  (** the CSE id once chosen, else 0 *)
  mutable temp : int;
  mutable defined : bool;
}

(* the class of every node that is no candidate occurrence; never
   mutated (its count keeps it from being chosen) *)
let no_cls =
  { rep = Tree.leaf "none"; hash = 0; size = 0; count = 0; id = 0; temp = 0;
    defined = false }

type state = {
  mutable next_cse : int;
  mutable frame : Layout.t;
  mutable pos : int;  (** pre-order index of the next node walked *)
  mutable seen : int array;  (** the statement's candidate hashes *)
  mutable n_seen : int;
  mutable marks : int array;  (** [seen]'s repeat check: hash slots ... *)
  mutable stamps : int array;  (** ... valid when stamped [gen] *)
  mutable gen : int;
  mutable slots : cls array;  (** classes by hash, open addressing *)
  mutable used : int array;  (** the slots filled this statement *)
  mutable n_used : int;
  mutable cls_at : cls array;  (** pre-order index -> occurrence's class *)
}

(* -- hashing ------------------------------------------------------------------ *)

(* An FNV-1a step.  Its high bits depend on every input bit, so table
   slots are taken from them. *)
let mix h k = (h lxor k) * 0x100000001b3

let slot h mask = (h lsr 32) land mask

let value_hash h = function
  | Ifl.Value.Unit -> h
  | Ifl.Value.Int n -> mix (mix h 1) n
  | Ifl.Value.Reg n -> mix (mix h 2) n
  | Ifl.Value.Label n -> mix (mix h 3) n
  | Ifl.Value.Cse n -> mix (mix h 4) n
  | Ifl.Value.Cond n -> mix (mix h 5) n

let token_hash (t : Token.t) =
  let h = ref (String.length t.sym) in
  for i = 0 to String.length t.sym - 1 do
    h := mix !h (Char.code (String.unsafe_get t.sym i))
  done;
  value_hash !h t.value

(* A walked subtree is summarised in one int: 0 when impure, else its
   hash shifted over a candidate bit and a set pure bit. *)
let is_cand r = r land 2 <> 0

(* -- the repeat check and the class table --------------------------------------- *)

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

let grow a n fill =
  if Array.length a >= n then a
  else
    let b = Array.make (pow2_above n (max 16 (Array.length a))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

(* true when hash [h] is already marked this generation, else marks it *)
let rec marked st mask h j =
  if st.stamps.(j) <> st.gen then begin
    st.stamps.(j) <- st.gen;
    st.marks.(j) <- h;
    false
  end
  else st.marks.(j) = h || marked st mask h ((j + 1) land mask)

let rec any_marked st mask i =
  i < st.n_seen
  && (marked st mask st.seen.(i) (slot st.seen.(i) mask)
     || any_marked st mask (i + 1))

(** Whether two of the statement's candidate occurrences hash equally. *)
let repeats st =
  st.n_seen >= 2
  && begin
       let cap = pow2_above (2 * st.n_seen) 16 in
       if Array.length st.marks < cap then begin
         st.marks <- Array.make cap 0;
         st.stamps <- Array.make cap 0
       end;
       st.gen <- st.gen + 1;
       any_marked st (Array.length st.marks - 1) 0
     end

(* the class of [node], an occurrence hashing to [r] of [size] nodes *)
let rec find_cls st mask r size node j =
  let c = st.slots.(j) in
  if c == no_cls then begin
    let c =
      { rep = node; hash = r; size; count = 0; id = 0; temp = 0;
        defined = false }
    in
    st.slots.(j) <- c;
    st.used.(st.n_used) <- j;
    st.n_used <- st.n_used + 1;
    c
  end
  else if c.hash = r && Tree.equal c.rep node then c
  else find_cls st mask r size node ((j + 1) land mask)

(* a candidate occurrence in a non-positional spot (or the statement
   root) at pre-order index [at]: screening records its hash, numbering
   counts it in its class *)
let occurrence st ~number node at r =
  if not number then begin
    if st.n_seen = Array.length st.seen then st.seen <- grow st.seen (st.n_seen + 1) 0;
    st.seen.(st.n_seen) <- r;
    st.n_seen <- st.n_seen + 1
  end
  else begin
    let mask = Array.length st.slots - 1 in
    let c = find_cls st mask r (st.pos - at) node (slot r mask) in
    c.count <- c.count + 1;
    st.cls_at.(at) <- c
  end

(* The walk both passes share: pre-order indices, hashes bottom-up. *)
let rec walk st ~number (Tree.Node (t, kids)) =
  let at = st.pos in
  st.pos <- at + 1;
  let sym = t.Token.sym in
  let pure = ref (pure_sym sym) in
  let h = ref (if !pure then token_hash t else 0) in
  let rest = ref kids and i = ref 0 in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | k :: tl ->
        let k_at = st.pos in
        let r = walk st ~number k in
        if r = 0 then pure := false
        else begin
          h := mix !h r;
          if is_cand r && not (positional sym !i) then occurrence st ~number k k_at r
        end;
        rest := tl;
        incr i
  done;
  if not !pure then 0
  else
    let cand = eligible_root sym && st.pos - at >= min_nodes in
    (!h lsl 2) lor (if cand then 2 else 0) lor 1

(* -- choosing and rewriting ------------------------------------------------------ *)

(* choose outermost repeated subtrees: walk top-down, and when a node is
   chosen do not consider its descendants (every occurrence of a chosen
   subtree is replaced wholesale, so nothing below it can need its own
   CSE).  Ids and temporaries are allocated in walk order. *)
let rec choose st (Tree.Node (_, kids)) =
  let at = st.pos in
  let c = st.cls_at.(at) in
  if c.count >= 2 then begin
    if c.id = 0 then begin
      c.id <- st.next_cse;
      st.next_cse <- c.id + 1;
      c.temp <- Layout.temp st.frame ("cse-" ^ Int.to_string c.id)
    end;
    st.pos <- at + c.size
  end
  else begin
    st.pos <- at + 1;
    choose_all st kids
  end

and choose_all st = function
  | [] -> ()
  | k :: tl ->
      choose st k;
      choose_all st tl

(* rewrite: for chosen classes, first occurrence -> make_common, rest ->
   use_common.  Top-down so outermost repeats win; inside a replaced
   subtree no further rewriting happens (its copies are gone).  A
   subtree with nothing replaced in it is kept as it is. *)
let rec rewrite st (Tree.Node (t, kids) as node) : Tree.t =
  let at = st.pos in
  let c = st.cls_at.(at) in
  if c.id > 0 && c.defined then begin
    st.pos <- at + c.size;
    Tree.node "use_common" [ Tree.Node (Token.cse "cse" c.id, []) ]
  end
  else begin
    st.pos <- at + 1;
    let define = c.id > 0 in
    if define then c.defined <- true;
    let kids' = rewrite_all st kids in
    let node = if kids' == kids then node else Tree.Node (t, kids') in
    if not define then node
    else
      (* definition: keep the computation, declare the CSE *)
      Tree.node "make_common"
        [
          Tree.Node (Token.cse "cse" c.id, []);
          Tree.Node (Token.int "cnt" (c.count - 1), []);
          Tree.node "fullword"
            [
              Tree.Node (Token.int "dsp" c.temp, []);
              Tree.Node (Token.reg "r" Machine.Runtime.stack_base, []);
            ];
          node;
        ]
  end

and rewrite_all st = function
  | [] -> []
  | k :: tl as l ->
      let k' = rewrite st k in
      let tl' = rewrite_all st tl in
      if k' == k && tl' == tl then l else k' :: tl'

(* number a statement that passed the screen, whose [pos] nodes and
   [n_seen] candidate occurrences the screen counted *)
let number st tree =
  let nodes = st.pos in
  st.cls_at <- grow st.cls_at nodes no_cls;
  Array.fill st.cls_at 0 nodes no_cls;
  let cap = pow2_above (2 * st.n_seen) 16 in
  if Array.length st.slots < cap then begin
    st.slots <- Array.make cap no_cls;
    st.used <- Array.make cap 0
  end;
  st.pos <- 0;
  let r = walk st ~number:true tree in
  if is_cand r then occurrence st ~number:true tree 0 r

(** Optimize one statement tree.  [state] carries the CSE numbering and
    the frame that provides temporaries. *)
let optimize_statement (st : state) (tree : Tree.t) : Tree.t =
  st.pos <- 0;
  st.n_seen <- 0;
  let r = walk st ~number:false tree in
  if is_cand r then occurrence st ~number:false tree 0 r;
  if not (repeats st) then tree
  else begin
    number st tree;
    let first = st.next_cse in
    st.pos <- 0;
    choose st tree;
    let out =
      if st.next_cse = first then tree
      else begin
        st.pos <- 0;
        rewrite st tree
      end
    in
    for i = 0 to st.n_used - 1 do
      st.slots.(st.used.(i)) <- no_cls
    done;
    st.n_used <- 0;
    out
  end

(** Optimize a shaped program: CSEs are numbered across the module (they
    are "valid throughout the compilation"), temporaries come from the
    frame owning the statement. *)
let optimize (shaped : Irgen.shaped) : Irgen.shaped =
  let st =
    {
      next_cse = 1;
      frame = shaped.Irgen.main_frame;
      pos = 0;
      seen = Array.make 16 0;
      n_seen = 0;
      marks = [||];
      stamps = [||];
      gen = 0;
      slots = [||];
      used = [||];
      n_used = 0;
      cls_at = [||];
    }
  in
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
