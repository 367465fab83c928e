(** Reduce lookahead computation: SLR(1) and LALR(1).

    SLR uses FOLLOW sets.  LALR lookaheads are computed with the
    spontaneous-generation / propagation algorithm (Dragon book 4.63)
    over the LR(0) automaton, using a sentinel lookahead [#].

    The LR(1) closure of a kernel needs no set per item: every dot-0
    item of a non-terminal B gets the same lookaheads, LA(B), so the
    closure is a fixpoint over non-terminals.  An item that holds
    lookaheads L adds to LA(C), C the non-terminal after its dot, the
    FIRST set of the rest of its right-hand side, and L too when that
    rest is nullable; both facts are precomputed per item.  Only the
    items the closure reaches add anything: a non-terminal is expanded
    once its LA has grown.  Every set is a {!Grammar.Symset} bitset over
    the grammar's symbols plus [#], merged in place.

    LALR discovers spontaneous lookaheads and propagation links state
    by state, merges them in state order, and propagates them to a
    fixpoint. *)

module Symset = Grammar.Symset

type mode = Slr | Lalr

(* every final item of each closure, with FOLLOW of its left-hand side
   (the analysis' own set) *)
let slr (a : Lr0.t) (an : Grammar.analysis) : (int * Symset.t) list array =
  let g = a.Lr0.grammar in
  let next = Lr0.next_syms g in
  Array.map
    (fun (st : Lr0.state) ->
      Array.fold_right
        (fun i acc ->
          if next.(i) >= 0 then acc
          else
            let p = Lr0.item_prod i in
            (p, an.Grammar.follow.((Grammar.prod g p).lhs)) :: acc)
        st.Lr0.closure [])
    a.Lr0.states

(* The grammar's items with what the LR(1) closure reads of them: the
   symbol after the dot, and FIRST and nullability of the right-hand
   side from the dot on. *)
type items = {
  g : Grammar.t;
  next : int array;
  suffix_first : Symset.t array;
  suffix_nullable : bool array;
  width : int;  (** set universe: the grammar's symbols, then [#] *)
}

let sentinel (it : items) = it.width - 1

let items (g : Grammar.t) (an : Grammar.analysis) : items =
  let width = Grammar.n_syms g + 1 in
  let next = Lr0.next_syms g in
  let n_items = Array.length next in
  let suffix_first = Array.make n_items (Symset.create width) in
  let suffix_nullable = Array.make n_items true in
  Array.iter
    (fun (p : Grammar.prod) ->
      for dot = Array.length p.rhs - 1 downto 0 do
        let i = Lr0.item ~prod:p.id ~dot in
        let s = p.rhs.(dot) in
        let set = Symset.create width in
        ignore (Symset.union_into ~into:set an.Grammar.first.(s));
        if an.Grammar.nullable.(s) then
          ignore (Symset.union_into ~into:set suffix_first.(i + 1));
        suffix_first.(i) <- set;
        suffix_nullable.(i) <-
          an.Grammar.nullable.(s) && suffix_nullable.(i + 1)
      done)
    g.Grammar.prods;
  { g; next; suffix_first; suffix_nullable; width }

(* One LR(1) closure's LA per non-terminal, and its worklist; reused
   from closure to closure by [reset]. *)
type lr1 = {
  la : Symset.t array;
  queued : bool array;
  mutable work : int list;
}

let lr1 (it : items) : lr1 =
  let n = Grammar.n_syms it.g in
  {
    la = Array.init n (fun _ -> Symset.create it.width);
    queued = Array.make n false;
    work = [];
  }

let reset (c : lr1) = Array.iter Symset.clear c.la

(* Item [i] holds lookaheads [la]: add its share to the non-terminal
   after its dot. *)
let contribute (it : items) (c : lr1) i la =
  let b = it.next.(i) in
  if b >= 0 && it.g.Grammar.is_nonterminal.(b) then begin
    let into = c.la.(b) in
    let grew = Symset.union_into ~into it.suffix_first.(i + 1) in
    let grew =
      (it.suffix_nullable.(i + 1) && Symset.union_into ~into la) || grew
    in
    if grew && not c.queued.(b) then begin
      c.queued.(b) <- true;
      c.work <- b :: c.work
    end
  end

(* LA to a fixpoint from the contributions made so far *)
let rec saturate (it : items) (c : lr1) =
  match c.work with
  | [] -> ()
  | b :: rest ->
      c.work <- rest;
      c.queued.(b) <- false;
      List.iter
        (fun q -> contribute it c (Lr0.item ~prod:q ~dot:0) c.la.(b))
        it.g.Grammar.by_lhs.(b);
      saturate it c

(* The lookaheads closure item [i] holds when, as a kernel item, it
   started with [own] (empty if it is not one): [own] itself, or for a
   dot-0 item a fresh set of [own] and LA of its left-hand side. *)
let item_la (it : items) (c : lr1) ~own i =
  if Lr0.item_dot i > 0 then own
  else
    let s = Symset.copy own in
    ignore
      (Symset.union_into ~into:s
         c.la.((Grammar.prod it.g (Lr0.item_prod i)).lhs));
    s

(* Kernel items are numbered state by state: [slot.(st) + j] is item j
   of state st's (sorted) kernel. *)
let kernel_slots (a : Lr0.t) : int array =
  let slot = Array.make (Lr0.n_states a + 1) 0 in
  Array.iteri
    (fun s (st : Lr0.state) ->
      slot.(s + 1) <- slot.(s) + Array.length st.Lr0.kernel)
    a.Lr0.states;
  slot

let slot_of (a : Lr0.t) slot st i =
  let k = a.Lr0.states.(st).Lr0.kernel in
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    if k.(mid) = i then slot.(st) + mid
    else if k.(mid) < i then search (mid + 1) hi
    else search lo mid
  in
  search 0 (Array.length k)

(* One state's spontaneous lookaheads (slot, set without [#]) and
   propagation links (from slot, to slot): the closure of each kernel
   item alone, holding [#], read at every item that can advance. *)
let discover (it : items) (a : Lr0.t) slot (st : Lr0.state) =
  let c = lr1 it in
  let sharp = Symset.create it.width in
  Symset.add sharp (sentinel it);
  let goto = Array.make (Grammar.n_syms it.g) (-1) in
  List.iter (fun (s, t) -> goto.(s) <- t) st.Lr0.transitions;
  let advanced =
    Array.map
      (fun i ->
        let s = it.next.(i) in
        if s < 0 then -1 else slot_of a slot goto.(s) (i + 1))
      st.Lr0.closure
  in
  let spont = ref [] and links = ref [] in
  let empty = Symset.create it.width in
  Array.iteri
    (fun j k ->
      let from = slot.(st.Lr0.id) + j in
      contribute it c k sharp;
      saturate it c;
      Array.iteri
        (fun n i ->
          let own = if i = k then sharp else empty in
          let la = item_la it c ~own i in
          if advanced.(n) >= 0 && not (Symset.is_empty la) then begin
            if Symset.mem (sentinel it) la then
              links := (from, advanced.(n)) :: !links;
            let s = Symset.copy la in
            Symset.remove s (sentinel it);
            if not (Symset.is_empty s) then
              spont := (advanced.(n), s) :: !spont
          end)
        st.Lr0.closure;
      reset c)
    st.Lr0.kernel;
  (!spont, !links)

(* LALR kernel lookaheads by slot *)
let kernel_lookaheads (it : items) (a : Lr0.t) slot : Symset.t array =
  let n_slots = slot.(Lr0.n_states a) in
  let la = Array.init n_slots (fun _ -> Symset.create it.width) in
  let succ = Array.make n_slots [] in
  let discovered = Array.map (discover it a slot) a.Lr0.states in
  (* the goal item gets eof *)
  Symset.add la.(slot.(a.Lr0.start)) it.g.Grammar.eof;
  Array.iter
    (fun (spont, links) ->
      List.iter (fun (k, s) -> ignore (Symset.union_into ~into:la.(k) s)) spont;
      List.iter (fun (src, dst) -> succ.(src) <- dst :: succ.(src)) links)
    discovered;
  (* propagate to a fixpoint *)
  let queued = Array.make n_slots true in
  let work = ref (List.init n_slots Fun.id) in
  while !work <> [] do
    let src = List.hd !work in
    work := List.tl !work;
    queued.(src) <- false;
    List.iter
      (fun dst ->
        if Symset.union_into ~into:la.(dst) la.(src) && not queued.(dst)
        then begin
          queued.(dst) <- true;
          work := dst :: !work
        end)
      succ.(src)
  done;
  la

(* each state's LR(1) closure from its kernel lookaheads, read at its
   final items.  Every kernel item holds some lookahead (eof reaches the
   start item, each goto passes an item's lookaheads on, and FIRST sets
   are never empty), so every final item is a reduction. *)
let lalr (a : Lr0.t) (an : Grammar.analysis) : (int * Symset.t) list array =
  let it = items a.Lr0.grammar an in
  let slot = kernel_slots a in
  let kla = kernel_lookaheads it a slot in
  let c = lr1 it in
  let empty = Symset.create it.width in
  Array.map
    (fun (st : Lr0.state) ->
      let own i =
        if Lr0.item_dot i = 0 && not (Array.mem i st.Lr0.kernel) then empty
        else kla.(slot_of a slot st.Lr0.id i)
      in
      Array.iter (fun k -> contribute it c k (own k)) st.Lr0.kernel;
      saturate it c;
      let reds =
        Array.fold_right
          (fun i acc ->
            if it.next.(i) >= 0 then acc
            else (Lr0.item_prod i, item_la it c ~own:(own i) i) :: acc)
          st.Lr0.closure []
      in
      reset c;
      reds)
    a.Lr0.states

(** [reductions a an mode] returns, per state, the reducible
    productions with their lookahead sets, in production order.  SLR
    lists every final item of the state's closure, with FOLLOW of its
    left-hand side (the set is [an]'s own); LALR lists them with their
    LALR(1) lookaheads. *)
let reductions (a : Lr0.t) (an : Grammar.analysis) (mode : mode) :
    (int * Symset.t) list array =
  match mode with Slr -> slr a an | Lalr -> lalr a an
