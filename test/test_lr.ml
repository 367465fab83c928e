(* The LR machinery on its own: grammar analysis, LR(0) construction,
   SLR lookaheads, Graham-Glanville conflict resolution, and a
   property test over randomly generated prefix-operator grammars. *)

(* Build a grammar from (lhs, rhs list) pairs; nonterminals are the LHS
   names, everything else terminals. *)
let grammar prods =
  let b = Cogg.Grammar.builder () in
  let lhss = List.sort_uniq compare (List.map fst prods) in
  List.iter (fun l -> ignore (Cogg.Grammar.declare_nonterminal b l)) lhss;
  List.iter
    (fun (lhs, rhs) ->
      let lhs =
        if lhs = "lambda" then Cogg.Grammar.declare_nonterminal ~in_if:false b lhs
        else Cogg.Grammar.intern b lhs
      in
      let rhs = Array.of_list (List.map (Cogg.Grammar.intern b) rhs) in
      Cogg.Grammar.add_prod b ~lhs ~rhs ~line:0)
    prods;
  Cogg.Grammar.finish b

(* drive the parse table directly, shifting tokens; reductions prefix the
   bare LHS (no attributes needed at this level) *)
let accepts (pt : Cogg.Parse_table.t) (input : string list) : bool =
  let g = pt.Cogg.Parse_table.grammar in
  let sym name = Option.get (Cogg.Grammar.sym g name) in
  let rec go stack pending steps =
    if steps > 10_000 then false
    else
      match pending with
      | [] -> false
      | tok :: rest -> (
          let state = List.hd stack in
          match Cogg.Parse_table.action pt state (sym tok) with
          | Cogg.Parse_table.Accept -> true
          | Cogg.Parse_table.Error -> false
          | Cogg.Parse_table.Shift s -> go (s :: stack) rest (steps + 1)
          | Cogg.Parse_table.Reduce p ->
              let prod = Cogg.Grammar.prod g p in
              let n = Array.length prod.Cogg.Grammar.rhs in
              let rec drop k st = if k = 0 then st else drop (k - 1) (List.tl st) in
              let stack = drop n stack in
              go stack (Cogg.Grammar.name g prod.Cogg.Grammar.lhs :: pending)
                (steps + 1))
  in
  let start = pt.Cogg.Parse_table.automaton.Cogg.Lr0.start in
  go [ start ] (input @ [ Cogg.Grammar.eof_name ]) 0

(* -- FIRST/FOLLOW ------------------------------------------------------------ *)

let test_first_includes_self () =
  (* non-terminals can appear literally in the input stream, so FIRST(N)
     must contain N itself *)
  let g = grammar [ ("e", [ "plus"; "e"; "e" ]); ("e", [ "num" ]);
                    ("lambda", [ "store"; "e" ]) ] in
  let an = Cogg.Grammar.analyze g in
  let e = Option.get (Cogg.Grammar.sym g "e") in
  let plus = Option.get (Cogg.Grammar.sym g "plus") in
  let num = Option.get (Cogg.Grammar.sym g "num") in
  Alcotest.(check bool) "e in FIRST(e)" true
    (Cogg.Grammar.Symset.mem e an.Cogg.Grammar.first.(e));
  Alcotest.(check bool) "plus in FIRST(e)" true
    (Cogg.Grammar.Symset.mem plus an.Cogg.Grammar.first.(e));
  Alcotest.(check bool) "num in FIRST(e)" true
    (Cogg.Grammar.Symset.mem num an.Cogg.Grammar.first.(e))

let test_follow () =
  let g = grammar [ ("e", [ "plus"; "e"; "e" ]); ("e", [ "num" ]);
                    ("lambda", [ "store"; "e" ]) ] in
  let an = Cogg.Grammar.analyze g in
  let e = Option.get (Cogg.Grammar.sym g "e") in
  let num = Option.get (Cogg.Grammar.sym g "num") in
  (* after the first e of "plus e e" comes FIRST(e) *)
  Alcotest.(check bool) "num in FOLLOW(e)" true
    (Cogg.Grammar.Symset.mem num an.Cogg.Grammar.follow.(e))

let test_nullable () =
  let g = grammar [ ("lambda", [ "x" ]) ] in
  let an = Cogg.Grammar.analyze g in
  Alcotest.(check bool) "%stmts is nullable" true
    an.Cogg.Grammar.nullable.(g.Cogg.Grammar.stmts)

(* -- basic parsing ------------------------------------------------------------- *)

let simple_pt prods =
  let g = grammar prods in
  Cogg.Parse_table.build (Cogg.Lr0.build g)

let test_accepts_prefix_arithmetic () =
  let pt =
    simple_pt [ ("e", [ "plus"; "e"; "e" ]); ("e", [ "num" ]);
                ("lambda", [ "store"; "e" ]) ]
  in
  Alcotest.(check bool) "store num" true (accepts pt [ "store"; "num" ]);
  Alcotest.(check bool) "nested" true
    (accepts pt [ "store"; "plus"; "num"; "plus"; "num"; "num" ]);
  Alcotest.(check bool) "two statements" true
    (accepts pt [ "store"; "num"; "store"; "num" ]);
  Alcotest.(check bool) "empty program" true (accepts pt []);
  Alcotest.(check bool) "missing operand" false (accepts pt [ "store"; "plus"; "num" ]);
  Alcotest.(check bool) "garbage" false (accepts pt [ "plus" ]);
  Alcotest.(check bool) "trailing operand" false (accepts pt [ "store"; "num"; "num" ])

let test_nonterminal_in_input () =
  (* registers arrive pre-bound: the non-terminal token parses directly *)
  let pt =
    simple_pt [ ("r", [ "load"; "d" ]); ("lambda", [ "store"; "d"; "r" ]) ]
  in
  Alcotest.(check bool) "r token accepted" true (accepts pt [ "store"; "d"; "r" ]);
  Alcotest.(check bool) "load reduces to r" true
    (accepts pt [ "store"; "d"; "load"; "d" ])

(* -- conflict resolution --------------------------------------------------------- *)

let test_shift_preferred () =
  (* op e | op e e: after "op e" with another e-starter in view, shift
     must win (maximal munch) *)
  let prods =
    [ ("e", [ "op"; "e" ]); ("e", [ "op"; "e"; "e" ]); ("e", [ "num" ]);
      ("lambda", [ "store"; "e" ]) ]
  in
  let pt = simple_pt prods in
  let conflicts = pt.Cogg.Parse_table.conflicts in
  Alcotest.(check bool) "conflicts recorded" true (conflicts <> []);
  Alcotest.(check bool) "some shift/reduce" true
    (List.exists (fun c -> c.Cogg.Parse_table.c_kind = `Shift_reduce) conflicts);
  (* maximal munch: "op num num" is one e through the long production *)
  Alcotest.(check bool) "greedy accepted" true
    (accepts pt [ "store"; "op"; "num"; "num" ]);
  Alcotest.(check bool) "short form still reachable" true
    (accepts pt [ "store"; "op"; "num" ])

let test_reduce_reduce_longest_wins () =
  (* identical-prefix productions of different length *)
  let prods =
    [ ("e", [ "load"; "d" ]); ("lambda", [ "move"; "load"; "d" ]);
      ("lambda", [ "store"; "e" ]) ]
  in
  let g = grammar prods in
  let pt = Cogg.Parse_table.build (Cogg.Lr0.build g) in
  let rr =
    List.filter
      (fun c -> c.Cogg.Parse_table.c_kind = `Reduce_reduce)
      pt.Cogg.Parse_table.conflicts
  in
  List.iter
    (fun c ->
      match (c.Cogg.Parse_table.c_chosen, c.Cogg.Parse_table.c_dropped) with
      | Cogg.Parse_table.Reduce w, Cogg.Parse_table.Reduce l ->
          let len p = Array.length (Cogg.Grammar.prod g p).Cogg.Grammar.rhs in
          Alcotest.(check bool) "longer production kept" true (len w >= len l)
      | _ -> Alcotest.fail "reduce/reduce without two reduces")
    rr

(* -- random prefix-operator grammars -------------------------------------------------- *)

(* Generate a deterministic prefix grammar: every production starts with
   a distinct operator terminal, so parsing is unambiguous.  Then derive
   random sentences and require acceptance; mutate sentences and expect
   (eventual) rejection or acceptance without crashes. *)
type rgrammar = { prods : (string * string list) list }

let gen_rgrammar : rgrammar QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_nts = int_range 1 3 in
  let nts = List.init n_nts (fun i -> Printf.sprintf "n%d" i) in
  let op_counter = ref 0 in
  let gen_prod lhs =
    let* arity = int_range 0 2 in
    let* args =
      list_size (return arity)
        (oneof [ oneofl nts; return "t" ])
    in
    incr op_counter;
    return (lhs, Printf.sprintf "op%d" !op_counter :: args)
  in
  let* per_nt =
    flatten_l
      (List.map
         (fun nt ->
           let* k = int_range 1 2 in
           flatten_l (List.init k (fun _ -> gen_prod nt)))
         nts)
  in
  let nt_prods = List.concat per_nt in
  (* statement production over the first nonterminal *)
  let stmt = ("lambda", [ "stmt"; List.hd nts ]) in
  return { prods = stmt :: nt_prods }

(* derive a random sentence for a nonterminal *)
let rec derive (rg : rgrammar) (rand : Random.State.t) depth nt : string list =
  let options = List.filter (fun (l, _) -> l = nt) rg.prods in
  let options =
    (* avoid runaway recursion: prefer nullary productions when deep *)
    if depth > 4 then
      match
        List.filter
          (fun (_, rhs) ->
            List.for_all (fun s -> not (String.length s > 1 && s.[0] = 'n')) rhs)
          options
      with
      | [] -> options
      | leafy -> leafy
    else options
  in
  let _, rhs = List.nth options (Random.State.int rand (List.length options)) in
  List.concat_map
    (fun s ->
      if String.length s > 1 && s.[0] = 'n' && s.[0] <> 'o' then
        derive rg rand (depth + 1) s
      else [ s ])
    rhs

let prop_random_grammars =
  QCheck.Test.make ~count:100 ~name:"random prefix grammars accept derivations"
    (QCheck.make gen_rgrammar ~print:(fun rg ->
         String.concat "; "
           (List.map
              (fun (l, r) -> l ^ " ::= " ^ String.concat " " r)
              rg.prods)))
    (fun rg ->
      (* grammars whose nonterminals cannot terminate are skipped *)
      let terminating =
        List.for_all
          (fun nt ->
            List.exists
              (fun (l, rhs) ->
                l = nt
                && List.for_all
                     (fun s -> not (String.length s > 1 && s.[0] = 'n'))
                     rhs)
              rg.prods)
          (List.sort_uniq compare (List.map fst rg.prods))
      in
      QCheck.assume terminating;
      let pt = simple_pt rg.prods in
      let rand = Random.State.make [| 42 |] in
      List.for_all
        (fun _ ->
          let sentence = "stmt" :: derive rg rand 0 "n0" in
          accepts pt sentence)
        (List.init 5 Fun.id))

let prop_compression_on_random_grammars =
  QCheck.Test.make ~count:60 ~name:"compression reproduces random tables"
    (QCheck.make gen_rgrammar ~print:(fun _ -> "grammar"))
    (fun rg ->
      let pt = simple_pt rg.prods in
      List.for_all
        (fun m ->
          match
            Cogg.Compress.verify (Cogg.Compress.compress ~method_:m pt) pt
          with
          | Ok _ -> true
          | Error _ -> false)
        Cogg.Compress.
          [ No_compression; Defaults_only; Comb_only; Defaults_and_comb ])

(* -- the construction against its reference ------------------------------------ *)

(* The first difference between what the current stages and Reference
   (reference.ml) build from [g], as a message: the automaton
   (kernels, closures, transitions, start), FIRST, nullable and FOLLOW,
   each state's reductions, the action rows, the conflict log in order,
   and the shared rows and defaults compression packs. *)
let reference_diff (g : Cogg.Grammar.t) : string option =
  let module G = Cogg.Grammar in
  let module L = Cogg.Lr0 in
  let elements = G.Symset.elements and ref_elements = Reference.IntSet.elements in
  let first_diff what n f =
    Option.map (Fmt.str "%s %d" what) (List.find_opt f (List.init n Fun.id))
  in
  let a = L.build g and ra = Reference.lr0 g in
  let an = G.analyze g and ran = Reference.analyze g in
  let n_syms = G.n_syms g in
  let automaton () =
    if a.L.start <> ra.L.start then Some "start state"
    else if L.n_states a <> L.n_states ra then
      Some (Fmt.str "%d states, reference %d" (L.n_states a) (L.n_states ra))
    else
      first_diff "state" (L.n_states a) (fun s ->
          let x = a.L.states.(s) and y = ra.L.states.(s) in
          x.L.id <> y.L.id || x.L.kernel <> y.L.kernel
          || x.L.closure <> y.L.closure
          || x.L.transitions <> y.L.transitions)
  in
  let analysis () =
    List.find_map Fun.id
      [
        first_diff "FIRST of symbol" n_syms (fun s ->
            elements an.G.first.(s) <> ref_elements ran.Reference.first.(s));
        first_diff "nullable of symbol" n_syms (fun s ->
            an.G.nullable.(s) <> ran.Reference.nullable.(s));
        first_diff "FOLLOW of symbol" n_syms (fun s ->
            elements an.G.follow.(s) <> ref_elements ran.Reference.follow.(s));
      ]
  in
  let reductions () =
    let reds = Cogg.Lookahead.reductions a an
    and rreds = Reference.reductions a ran in
    first_diff "reductions of state" (L.n_states a) (fun s ->
        List.map (fun (p, la) -> (p, elements la)) reds.(s)
        <> List.map (fun (p, la) -> (p, ref_elements la)) rreds.(s))
  in
  let table () =
    let pt = Cogg.Parse_table.build a in
    let actions, conflicts = Reference.parse_table ra in
    match
      first_diff "action row of state" (L.n_states a) (fun s ->
          pt.Cogg.Parse_table.actions.(s) <> actions.(s))
    with
    | Some d -> Some d
    | None when pt.Cogg.Parse_table.conflicts <> conflicts ->
        Some
          (Fmt.str "conflict log (%d entries, reference %d)"
             (List.length pt.Cogg.Parse_table.conflicts)
             (List.length conflicts))
    | None ->
        List.find_map
          (fun m ->
            if
              Cogg.Compress.rows m pt
              <> Reference.share_rows (Reference.extract_rows m actions)
            then Some "shared rows and defaults"
            else None)
          Cogg.Compress.
            [ No_compression; Defaults_only; Comb_only; Defaults_and_comb ]
  in
  List.find_map (fun f -> f ()) [ automaton; analysis; reductions; table ]

let test_specs_match_reference () =
  List.iter
    (fun (name, tables) ->
      match reference_diff (Lazy.force tables).Cogg.Tables.grammar with
      | None -> ()
      | Some d -> Alcotest.failf "%s differs from the reference at %s" name d)
    [ ("amdahl470", Util.amdahl_tables); ("risc32", Util.risc32_tables) ]

(* Random grammars over nonterminals n0.. and terminals t0..: empty
   right-hand sides and nullable chains, left and right recursion,
   nonterminals nothing reaches, productions declared twice, and
   right-hand sides of every length up to Lr0.max_rhs. *)
let gen_any_grammar : (string * string list) list QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_nts = int_range 1 6 and* n_ts = int_range 1 5 in
  let nts = List.init n_nts (Printf.sprintf "n%d") in
  let ts = List.init n_ts (Printf.sprintf "t%d") in
  let sym = frequency [ (2, oneofl nts); (3, oneofl ts) ] in
  let prod =
    let* lhs = oneofl nts in
    let* len =
      frequency
        [
          (2, return 0);
          (8, int_range 1 4);
          (1, int_range 5 Cogg.Lr0.max_rhs);
        ]
    in
    let* rhs = list_size (return len) sym in
    (* recursion on the left or the right, now and then *)
    let* shape = int_bound 5 in
    return
      ( lhs,
        match (shape, rhs) with
        | 0, _ :: rest -> lhs :: rest
        | 1, _ :: _ -> List.rev (lhs :: List.tl (List.rev rhs))
        | _ -> rhs )
  in
  let* prods = list_size (int_range 1 14) prod in
  let* dups = list_size (int_bound 2) (oneofl prods) in
  let* stmt = list_size (int_range 1 2) (oneofl nts) in
  (* now and then a nullable chain n0 ::= n1, n1 ::= n2, ..., nk ::= *)
  let* k = int_bound (n_nts - 1) in
  let chain =
    if k = 0 then []
    else
      List.init k (fun i -> (List.nth nts i, [ List.nth nts (i + 1) ]))
      @ [ (List.nth nts k, []) ]
  in
  return (("lambda", stmt) :: (prods @ dups @ chain))

let prop_random_grammars_match_reference =
  QCheck.Test.make ~count:300 ~name:"random grammars: construction = reference"
    (QCheck.make gen_any_grammar ~print:(fun prods ->
         String.concat "; "
           (List.map (fun (l, r) -> l ^ " ::= " ^ String.concat " " r) prods)))
    (fun prods ->
      match reference_diff (grammar prods) with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "differs at %s" d)

let () =
  Alcotest.run "lr"
    [
      ( "analysis",
        [
          Alcotest.test_case "FIRST includes self" `Quick test_first_includes_self;
          Alcotest.test_case "FOLLOW" `Quick test_follow;
          Alcotest.test_case "nullable" `Quick test_nullable;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "prefix arithmetic" `Quick test_accepts_prefix_arithmetic;
          Alcotest.test_case "non-terminals in input" `Quick test_nonterminal_in_input;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "shift preferred" `Quick test_shift_preferred;
          Alcotest.test_case "longest reduce wins" `Quick test_reduce_reduce_longest_wins;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_grammars; prop_compression_on_random_grammars ] );
      ( "reference",
        Alcotest.test_case "both specs" `Quick test_specs_match_reference
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_random_grammars_match_reference ] );
    ]
