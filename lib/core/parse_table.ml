(** Parse (action) table construction with Graham-Glanville conflict
    resolution.

    The table is indexed by state and by *every* grammar symbol: in this
    scheme non-terminals are shifted like tokens (reductions prefix their
    LHS back onto the input stream, paper footnote 3), so the classical
    ACTION and GOTO tables collapse into one.

    Conflicts are resolved as Glanville prescribes for machine grammars:
    - shift/reduce: shift (maximal munch over addressing idioms);
    - reduce/reduce: the production with the longer RHS wins; ties go to
      the earlier declaration.
    All resolutions are recorded for reporting. *)

type action = Shift of int | Reduce of int | Accept | Error

type conflict = {
  c_state : int;
  c_sym : Grammar.sym;
  c_kind : [ `Shift_reduce | `Reduce_reduce ];
  c_chosen : action;
  c_dropped : action;
}

type t = {
  grammar : Grammar.t;
  automaton : Lr0.t;
  actions : action array array; (* state x symbol *)
  conflicts : conflict list;
}

let n_states t = Array.length t.actions
let action t state sym = t.actions.(state).(sym)

let pp_action g ppf = function
  | Shift s -> Fmt.pf ppf "s%d" s
  | Reduce p -> Fmt.pf ppf "r%d(%s)" p (Grammar.prod_to_string g (Grammar.prod g p))
  | Accept -> Fmt.pf ppf "acc"
  | Error -> Fmt.pf ppf "."

let pp_conflict g ppf c =
  Fmt.pf ppf "state %d on %s: %s; kept %a, dropped %a" c.c_state
    (Grammar.name g c.c_sym)
    (match c.c_kind with
    | `Shift_reduce -> "shift/reduce"
    | `Reduce_reduce -> "reduce/reduce")
    (pp_action g) c.c_chosen (pp_action g) c.c_dropped

(* The fill, state by state: the state's shifts (including non-terminal
   "gotos") in symbol order, then its reductions in production order,
   each over its lookaheads in symbol order.  A cell already set is
   resolved by [resolve], which matches on the two actions' constructors
   (no polymorphic comparison) and logs each conflict in the order it
   arises, which is the conflict log's order.  The action values are
   shared, one per state and per production, so a cell write allocates
   nothing. *)
let build (a : Lr0.t) : t =
  let g = a.Lr0.grammar in
  let an = Grammar.analyze g in
  let n_syms = Grammar.n_syms g in
  let reds = Lookahead.reductions a an in
  let shift = Array.init (Lr0.n_states a) (fun s -> Shift s) in
  let reduce = Array.init (Grammar.n_prods g) (fun p -> Reduce p) in
  let len p = Array.length (Grammar.prod g p).rhs in
  let conflicts = ref [] in
  let resolve state sym cur act =
    let record c_kind c_chosen c_dropped =
      conflicts :=
        { c_state = state; c_sym = sym; c_kind; c_chosen; c_dropped }
        :: !conflicts;
      c_chosen
    in
    match (cur, act) with
    | Error, x | x, Error -> x
    | Accept, Accept -> Accept
    | Accept, x | x, Accept ->
        (* accept only competes on %eof; keep accept *)
        record `Shift_reduce Accept x
    | Shift s1, Shift s2 ->
        if s1 = s2 then cur
        else
          (* impossible in a deterministic LR(0) automaton *)
          invalid_arg
            (Fmt.str "Parse_table.resolve: shift/shift %d/%d in state %d" s1 s2
               state)
    | Shift _, Reduce _ -> record `Shift_reduce cur act
    | Reduce _, Shift _ -> record `Shift_reduce act cur
    | Reduce p, Reduce q ->
        if p = q then cur
        else if len p > len q || (len p = len q && p < q) then
          record `Reduce_reduce cur act
        else record `Reduce_reduce act cur
  in
  let actions =
    Array.map
      (fun (st : Lr0.state) ->
        let id = st.Lr0.id in
        let row = Array.make n_syms Error in
        let set sym act = row.(sym) <- resolve id sym row.(sym) act in
        List.iter
          (fun (sym, dst) ->
            (* the goal item shifts eof; that is acceptance *)
            set sym (if sym = g.Grammar.eof then Accept else shift.(dst)))
          st.Lr0.transitions;
        List.iter
          (fun (p, las) ->
            Grammar.Symset.iter
              (fun sym -> if sym <> g.Grammar.goal then set sym reduce.(p))
              las)
          reds.(id);
        row)
      a.Lr0.states
  in
  { grammar = g; automaton = a; actions; conflicts = List.rev !conflicts }

(** Number of non-error entries (the paper's "significant entries"),
    counted over the given symbol columns. *)
let significant_entries ?(cols = None) t =
  let keep =
    match cols with
    | None -> fun _ -> true
    | Some set -> fun s -> List.mem s set
  in
  Array.fold_left
    (fun acc row ->
      let c = ref 0 in
      Array.iteri (fun s a -> if keep s && a <> Error then incr c) row;
      acc + !c)
    0 t.actions
