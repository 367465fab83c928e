(** CoGG's top level: specification text -> driving tables.

    [build] performs the whole pipeline: parse the specification, build
    the typed symbol table, construct the grammar and its LR automaton,
    resolve conflicts, and compile every template. *)

type error = { line : int; msg : string }

let pp_error ppf e =
  if e.line > 0 then Fmt.pf ppf "spec:%d: %s" e.line e.msg
  else Fmt.pf ppf "spec: %s" e.msg

let lift_parse (e : Spec_parse.error) = { line = e.Spec_parse.line; msg = e.Spec_parse.msg }
let lift_symtab (e : Symtab.error) = { line = e.Symtab.line; msg = e.Symtab.msg }
let lift_template (e : Template.error) = { line = e.Template.line; msg = e.Template.msg }

let ( let* ) = Result.bind

(* Each stage of a table build is a trace span (and, under --stats, a
   phase.<name>.us counter); both are off by default and then cost one
   atomic load per stage. *)
let span name f = Trace.with_span ~cat:"cogg_build" name f

let parse_spec read =
  Result.map_error (fun e -> [ lift_parse e ]) (span "spec_parse" read)

(* LR(0), the action table and the comb: what a grammar-shape change
   rebuilds *)
let build_tables grammar =
  let automaton = span "cogg_build.lr0" (fun () -> Lr0.build grammar) in
  let parse =
    span "cogg_build.parse_table" (fun () -> Parse_table.build automaton)
  in
  let compressed =
    span "cogg_build.compress" (fun () ->
        Compress.compress ~method_:Compress.Defaults_and_comb parse)
  in
  (parse, compressed)

(** Build the grammar from a checked specification. *)
let grammar_of_spec (symtab : Symtab.t) (spec : Spec_ast.t) :
    (Grammar.t, error list) result =
  let b = Grammar.builder () in
  List.iter
    (fun (name, _cls) -> ignore (Grammar.declare_nonterminal b name))
    symtab.Symtab.nonterminals;
  List.iter
    (fun (name, _k) -> ignore (Grammar.declare_terminal b name))
    symtab.Symtab.terminals;
  List.iter
    (fun name -> ignore (Grammar.declare_terminal b name))
    symtab.Symtab.operators;
  let errs = ref [] in
  let err line fmt = Fmt.kstr (fun msg -> errs := { line; msg } :: !errs) fmt in
  let sym_of line (s : Spec_ast.ssym) ~lhs =
    let name = s.Spec_ast.base in
    if lhs && name = Grammar.lambda_name then
      Some (Grammar.declare_nonterminal ~in_if:false b Grammar.lambda_name)
    else
      match Symtab.find symtab name with
      | Some (Symtab.Nonterminal _) when lhs -> Some (Grammar.intern b name)
      | Some (Symtab.Nonterminal _ | Symtab.Terminal _ | Symtab.Operator)
        when not lhs ->
          Some (Grammar.intern b name)
      | Some info ->
          err line "%s (%s) cannot appear %s a production" name
            (Fmt.str "%a" Symtab.pp_info info)
            (if lhs then "as the LHS of" else "in");
          None
      | None ->
          err line "%s is not declared" name;
          None
  in
  List.iter
    (fun (p : Spec_ast.production) ->
      (* an LR item packs its dot into Lr0.dot_bits bits *)
      let n = List.length p.p_rhs in
      if n > Lr0.max_rhs then
        err p.p_line
          "production has %d right-hand-side symbols; at most %d are allowed" n
          Lr0.max_rhs;
      let lhs = sym_of p.p_line p.p_lhs ~lhs:true in
      let rhs = List.map (sym_of p.p_line ~lhs:false) p.p_rhs in
      match (lhs, List.for_all Option.is_some rhs) with
      | Some lhs, true ->
          Grammar.add_prod b ~lhs
            ~rhs:(Array.of_list (List.map Option.get rhs))
            ~line:p.p_line
      | _ -> ())
    spec.Spec_ast.productions;
  if !errs <> [] then Error (List.rev !errs) else Ok (Grammar.finish b)

(* Per-symbol register class and value kind, indexed by grammar symbol. *)
let type_info (grammar : Grammar.t) (symtab : Symtab.t) =
  let n = Grammar.n_syms grammar in
  let class_of = Array.make n None in
  let kind_of = Array.make n None in
  List.iter
    (fun (name, cls) ->
      match Grammar.sym grammar name with
      | Some s -> class_of.(s) <- Some cls
      | None -> ())
    symtab.Symtab.nonterminals;
  List.iter
    (fun (name, k) ->
      match Grammar.sym grammar name with
      | Some s -> kind_of.(s) <- Some k
      | None -> ())
    symtab.Symtab.terminals;
  (class_of, kind_of)

let build ?(target = Machine.Targets.default) (spec : Spec_ast.t) :
    (Tables.t, error list) result =
  let* symtab =
    Result.map_error (fun e -> [ lift_symtab e ]) (Symtab.of_spec ~target spec)
  in
  let* grammar = grammar_of_spec symtab spec in
  let parse, compressed = build_tables grammar in
  (* compile templates; production ids follow declaration order, and
     errors are reported in it *)
  let n_user = List.length spec.Spec_ast.productions in
  let compiled = Array.make (Grammar.n_prods grammar) None in
  let errs = ref [] in
  span "cogg_build.templates" (fun () ->
      List.iteri
        (fun i p ->
          match Template.compile ~target ~grammar ~symtab ~prod_id:i p with
          | Ok c -> compiled.(i) <- Some c
          | Error e -> errs := lift_template e :: !errs)
        spec.Spec_ast.productions);
  if !errs <> [] then Error (List.rev !errs)
  else
    let class_of, kind_of = type_info grammar symtab in
    let hashes =
      span "cogg_build.spec_hash" (fun () -> Spec_hash.of_spec symtab spec)
    in
    Ok
      (Tables.make ~target ~grammar ~symtab ~parse ~compressed ~compiled
         ~n_user_prods:n_user ~class_of ~kind_of ~hashes)

(* -- incremental rebuilds ---------------------------------------------------- *)

type incr_stats = {
  spliced_tables : bool;
      (** automaton, action table, conflicts and comb packing were
          reused wholesale from the previous build *)
  templates_reused : int;
  templates_recompiled : int;
}

let pp_incr_stats ppf (s : incr_stats) =
  Fmt.pf ppf "%s; templates: %d reused, %d recompiled"
    (if s.spliced_tables then "tables spliced" else "tables rebuilt")
    s.templates_reused s.templates_recompiled

let scratch_stats n =
  { spliced_tables = false; templates_reused = 0; templates_recompiled = n }

(** Rebuild the bundle for [spec], splicing in whatever [previous] (a
    build of an earlier revision of the same spec and target) still
    covers:

    - same declaration structure ([Spec_hash.decls]) keeps symbol ids
      stable, so any production whose content hash is unchanged reuses
      its previously compiled template (rebound to its new id);
    - same grammar shape ([Spec_hash.shape]) additionally reuses the
      LR(0) automaton, action table, conflict log and comb packing
      wholesale — comb packing is a global first-fit, so it is reused
      all-or-nothing, never partially repacked.

    Anything the previous build cannot cover (different target, shifted
    symbol ids, a previous bundle with inconsistent metadata) falls back
    to a full {!build}.  In every case the result is byte-identical
    ({!Tables_io.write}) to a from-scratch build of [spec] — splicing
    changes how the bytes are obtained, never which bytes. *)
let build_incremental ?(target = Machine.Targets.default)
    ~(previous : Tables.t) (spec : Spec_ast.t) :
    (Tables.t * incr_stats, error list) result =
  let n_user = List.length spec.Spec_ast.productions in
  let fallback () =
    Result.map
      (fun t -> (t, scratch_stats n_user))
      (build ~target spec)
  in
  if
    previous.Tables.target.Machine.Target.name
    <> target.Machine.Target.name
    || Array.length previous.Tables.hashes.Spec_hash.prods
       <> previous.Tables.n_user_prods
  then fallback ()
  else
    let* symtab =
      Result.map_error
        (fun e -> [ lift_symtab e ])
        (Symtab.of_spec ~target spec)
    in
    let* grammar = grammar_of_spec symtab spec in
    let hashes =
      span "cogg_build.spec_hash" (fun () -> Spec_hash.of_spec symtab spec)
    in
    let prev_h = previous.Tables.hashes in
    if
      hashes.Spec_hash.decls <> prev_h.Spec_hash.decls
      || grammar.Grammar.names
         <> previous.Tables.grammar.Grammar.names
    then
      (* symbol ids shifted: neither templates nor tables are reusable *)
      fallback ()
    else begin
      (* symbol ids are stable, so compiled templates transfer across
         the edit wherever the production's content hash still matches;
         assign reuse sources in declaration order (a hash can
         legitimately repeat — duplicated productions — so sources are
         consumed first-come, deterministically), then compile the
         rest. *)
      let sources : (string, int Queue.t) Hashtbl.t = Hashtbl.create 64 in
      Array.iteri
        (fun j h ->
          match previous.Tables.compiled.(j) with
          | Some _ ->
              let q =
                match Hashtbl.find_opt sources h with
                | Some q -> q
                | None ->
                    let q = Queue.create () in
                    Hashtbl.add sources h q;
                    q
              in
              Queue.add j q
          | None -> ())
        prev_h.Spec_hash.prods;
      let plan =
        List.mapi
          (fun i (p : Spec_ast.production) ->
            match Hashtbl.find_opt sources hashes.Spec_hash.prods.(i) with
            | Some q when not (Queue.is_empty q) -> (i, p, Some (Queue.pop q))
            | _ -> (i, p, None))
          spec.Spec_ast.productions
      in
      let n_reused =
        List.length (List.filter (fun (_, _, r) -> r <> None) plan)
      in
      let compiled = Array.make (Grammar.n_prods grammar) None in
      let errs = ref [] in
      span "cogg_build.templates" (fun () ->
          List.iter
            (fun (i, (p : Spec_ast.production), reuse) ->
              match reuse with
              | Some j ->
                  let c = Option.get previous.Tables.compiled.(j) in
                  compiled.(i) <- Some { c with Template.c_prod = i }
              | None -> (
                  match
                    Template.compile ~target ~grammar ~symtab ~prod_id:i p
                  with
                  | Ok c -> compiled.(i) <- Some c
                  | Error e -> errs := lift_template e :: !errs))
            plan);
      if !errs <> [] then Error (List.rev !errs)
      else begin
        let splice = hashes.Spec_hash.shape = prev_h.Spec_hash.shape in
        let class_of, kind_of = type_info grammar symtab in
        let tables =
          if splice then
            (* same shape + same ids: LR construction and conflict
               resolution read nothing else, so the previous parse
               table and comb are exactly what a fresh build would
               produce.  They are handed through as they are: a parse
               table a loaded bundle has not rebuilt yet stays unbuilt,
               and the writer never needs it. *)
            {
              previous with
              Tables.target;
              grammar;
              symtab;
              compiled;
              n_user_prods = n_user;
              class_of;
              kind_of;
              hashes;
              builders = Tables.builders_of target compiled;
            }
          else
            let parse, compressed = build_tables grammar in
            Tables.make ~target ~grammar ~symtab ~parse ~compressed ~compiled
              ~n_user_prods:n_user ~class_of ~kind_of ~hashes
        in
        Ok
          ( tables,
            {
              spliced_tables = splice;
              templates_reused = n_reused;
              templates_recompiled = n_user - n_reused;
            } )
      end
    end

let build_incremental_string ?target ~previous (text : string) :
    (Tables.t * incr_stats, error list) result =
  let* spec = parse_spec (fun () -> Spec_parse.of_string text) in
  build_incremental ?target ~previous spec

let build_string ?target (text : string) : (Tables.t, error list) result =
  let* spec = parse_spec (fun () -> Spec_parse.of_string text) in
  build ?target spec

let build_file ?target (path : string) : (Tables.t, error list) result =
  let* spec = parse_spec (fun () -> Spec_parse.of_file path) in
  build ?target spec
