(** Reduce lookaheads: SLR(1), as in the paper.  A state reduces each
    final item of its closure on FOLLOW of the item's left-hand side. *)

(** [reductions a an] returns, per state, the reducible productions
    with their lookahead sets, in production order.  The sets are
    [an]'s own FOLLOW sets, shared, not copies. *)
let reductions (a : Lr0.t) (an : Grammar.analysis) :
    (int * Grammar.Symset.t) list array =
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
