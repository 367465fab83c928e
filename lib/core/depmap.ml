(** Dependency map from productions to the build artifacts they reach.

    For each user production: the LR(0) states whose closures carry one
    of its items (the states its grammar signature shapes), the states
    whose action rows reduce by it (where its lookahead sets landed),
    and the comb rows those states map to under row sharing.  This is
    the downstream footprint an edit to that production can touch; the
    incremental builder's splice rule — any grammar-shape change
    rebuilds the whole automaton and comb — follows from the fact that
    comb packing is a global first-fit, so [rows_of_prod] is reported
    for explanation and auditing, not partial repacking. *)

type t = {
  n_user_prods : int;
  states_of_prod : int array array;
      (** production -> LR(0) state ids whose closure contains one of
          its items, ascending *)
  reduce_states_of_prod : int array array;
      (** production -> state ids whose action row reduces by it
          (i.e. where its lookahead set placed a reduction), ascending *)
  rows_of_prod : int array array;
      (** production -> distinct comb row ids reached by either state
          set, ascending; empty when built without a compressed table *)
}

let sorted_dedup (l : int list) : int array =
  let a = Array.of_list (List.sort_uniq Int.compare l) in
  a

let build ?(compressed : Compress.t option) ~(n_user_prods : int)
    (pt : Parse_table.t) : t =
  let states_acc = Array.make n_user_prods [] in
  Array.iter
    (fun (st : Lr0.state) ->
      (* one state can hold several items of the same production
         (different dots); dedup via sort_uniq at the end *)
      Array.iter
        (fun item ->
          let p = Lr0.item_prod item in
          if p < n_user_prods then
            states_acc.(p) <- st.Lr0.id :: states_acc.(p))
        st.Lr0.closure)
    pt.Parse_table.automaton.Lr0.states;
  let reduce_acc = Array.make n_user_prods [] in
  Array.iteri
    (fun state row ->
      Array.iter
        (fun (a : Parse_table.action) ->
          match a with
          | Parse_table.Reduce p when p < n_user_prods ->
              (match reduce_acc.(p) with
              | s :: _ when s = state -> ()
              | _ -> reduce_acc.(p) <- state :: reduce_acc.(p))
          | _ -> ())
        row)
    pt.Parse_table.actions;
  let states_of_prod = Array.map sorted_dedup states_acc in
  let reduce_states_of_prod = Array.map sorted_dedup reduce_acc in
  let rows_of_prod =
    match compressed with
    | None -> Array.make n_user_prods [||]
    | Some c ->
        let row_of s =
          if s >= 0 && s < Cells.length c.Compress.row_index then
            Some (Cells.get c.Compress.row_index s)
          else None
        in
        Array.init n_user_prods (fun p ->
            sorted_dedup
              (List.filter_map row_of
                 (Array.to_list states_of_prod.(p)
                 @ Array.to_list reduce_states_of_prod.(p))))
  in
  { n_user_prods; states_of_prod; reduce_states_of_prod; rows_of_prod }

let pp_prod ppf (t : t) (p : int) =
  if p >= 0 && p < t.n_user_prods then
    Fmt.pf ppf "%d state%s, %d reduce site%s, %d comb row%s"
      (Array.length t.states_of_prod.(p))
      (if Array.length t.states_of_prod.(p) = 1 then "" else "s")
      (Array.length t.reduce_states_of_prod.(p))
      (if Array.length t.reduce_states_of_prod.(p) = 1 then "" else "s")
      (Array.length t.rows_of_prod.(p))
      (if Array.length t.rows_of_prod.(p) = 1 then "" else "s")
