(* coggc — the code generator generator's command line.

   Subcommands:
     check SPEC           build the tables, report conflicts and errors
     stats SPEC           print the Table-1 statistics
     sizes SPEC           print the Table-2 artifact sizes
     conflicts SPEC       list every resolved parsing conflict
     tables SPEC OUT.cgt  write the table bundle to a file
     gen SPEC IF-FILE     generate code for a linearized-IF program *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* a .cgt file is a serialized table bundle; anything else is a
   specification compiled through the content-hashed table cache (repeat
   invocations on an unchanged spec skip LR construction) *)
let load_tables ?target path =
  if Filename.check_suffix path ".cgt" then
    (* the bundle names its own target; --target is only a build input *)
    match Cogg.Tables_io.read (read_file path) with
    | t -> Ok t
    | exception Cogg.Tables_io.Corrupt m ->
        Error (Fmt.str "%s: corrupt table bundle (%s)" path m)
  else
    match Cogg.Tables_cache.build_file ?target path with
    | Ok (t, origin) ->
        if Sys.getenv_opt "COGG_CACHE_VERBOSE" <> None then
          Fmt.epr "[tables-cache] %s: %a@." path Cogg.Tables_cache.pp_origin
            origin;
        Ok t
    | Error es ->
        Error (Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Cogg.Cogg_build.pp_error) es)

let load_spec path =
  match Cogg.Spec_parse.of_file path with
  | Ok s -> Ok s
  | Error e -> Error (Fmt.str "%a" Cogg.Spec_parse.pp_error e)

let spec_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC" ~doc:"Code generator specification (.cgg)")

let target_arg =
  Arg.(
    value
    & opt
        (enum
           (List.map
              (fun n -> (n, Machine.Targets.find_exn n))
              Machine.Targets.names))
        Machine.Targets.default
    & info [ "target" ] ~docv:"TARGET"
        ~doc:
          (Fmt.str
             "Machine substrate the specification's opcodes are checked \
              against: %s (default $(b,%s))"
             (String.concat " or "
                (List.map (fun n -> "$(b," ^ n ^ ")") Machine.Targets.names))
             Machine.Targets.default.Machine.Target.name))

let or_die = function
  | Ok x -> x
  | Error m ->
      Fmt.epr "%s@." m;
      exit 1

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

(* Dead-template report: productions whose rendered form never appears
   in the coverage baseline never fire under the whole checked-in
   corpus — their templates are untested weight in the table.  The
   Depmap footprint says how much automaton each one is entangled with
   (what an edit to it would dirty in an incremental rebuild). *)
let report_dead_templates (t : Cogg.Tables.t) (baseline : string) =
  let covered = Hashtbl.create 256 in
  let ic = open_in baseline in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then Hashtbl.replace covered line ()
     done
   with End_of_file -> close_in ic);
  let g = t.Cogg.Tables.grammar in
  let dm =
    Cogg.Depmap.build ~compressed:t.Cogg.Tables.compressed
      ~n_user_prods:t.Cogg.Tables.n_user_prods (Cogg.Tables.parse t)
  in
  let dead = ref [] in
  for p = t.Cogg.Tables.n_user_prods - 1 downto 0 do
    let render = Cogg.Grammar.prod_to_string g (Cogg.Grammar.prod g p) in
    if not (Hashtbl.mem covered render) then dead := (p, render) :: !dead
  done;
  (* sorted by rendered form (then id), so the report is stable under
     production renumbering and diffable across spec edits *)
  let dead =
    List.sort
      (fun (p1, r1) (p2, r2) ->
        match String.compare r1 r2 with 0 -> compare p1 p2 | c -> c)
      !dead
  in
  match dead with
  | [] ->
      Fmt.pr "  every template fires in the coverage corpus (%s)@."
        (Filename.basename baseline)
  | dead ->
      Fmt.pr "  %d of %d templates never fire in the coverage corpus:@."
        (List.length dead) t.Cogg.Tables.n_user_prods;
      List.iter
        (fun (p, render) ->
          Fmt.pr "    %s  [%a]@." render (fun ppf -> Cogg.Depmap.pp_prod ppf dm) p)
        dead

let check_cmd =
  let run target spec_path dead_baseline =
    let t = or_die (load_tables ~target spec_path) in
    let conflicts = Cogg.Tables.conflicts t in
    let sr, rr =
      List.partition
        (fun c -> c.Cogg.Parse_table.c_kind = `Shift_reduce)
        conflicts
    in
    Fmt.pr "%s: OK@." spec_path;
    Fmt.pr "  %d productions, %d states@." t.Cogg.Tables.n_user_prods
      (Cogg.Tables.n_states t);
    Fmt.pr
      "  %d shift/reduce and %d reduce/reduce conflicts resolved (Graham-Glanville policy)@."
      (List.length sr) (List.length rr);
    match dead_baseline with
    | None -> ()
    | Some "" -> (
        match find_up (Sys.getcwd ()) "test/coverage_baseline.txt" with
        | Some p -> report_dead_templates t p
        | None ->
            or_die
              (Error
                 "cannot locate test/coverage_baseline.txt (pass \
                  --dead-templates=FILE explicitly)"))
    | Some p -> report_dead_templates t p
  in
  let dead_arg =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "dead-templates" ] ~docv:"BASELINE"
          ~doc:
            "Report productions whose templates never fire in the coverage \
             corpus recorded in $(docv) (default: locate \
             test/coverage_baseline.txt upward from the working directory), \
             with each one's automaton footprint")
  in
  Cmd.v (Cmd.info "check" ~doc:"Build a specification and report conflicts")
    Term.(const run $ target_arg $ spec_arg $ dead_arg)

let stats_cmd =
  let run target spec_path =
    let spec = or_die (load_spec spec_path) in
    let t = or_die (load_tables ~target spec_path) in
    Fmt.pr "%a" Cogg.Stats.pp_table1 (Cogg.Stats.table1 spec t)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print the paper's Table-1 statistics")
    Term.(const run $ target_arg $ spec_arg)

let sizes_cmd =
  let run target spec_path =
    let t = or_die (load_tables ~target spec_path) in
    let s = Cogg.Tables_io.sizes t in
    let row label bytes =
      Fmt.pr "%-28s %8d bytes  %6.1f pages@." label bytes
        (Cogg.Tables_io.pages bytes)
    in
    row "template array" s.Cogg.Tables_io.template_array;
    row "compressed parse table" s.Cogg.Tables_io.compressed_table;
    row "uncompressed parse table" s.Cogg.Tables_io.uncompressed_table
  in
  Cmd.v (Cmd.info "sizes" ~doc:"Print the Table-2 artifact sizes")
    Term.(const run $ target_arg $ spec_arg)

let conflicts_cmd =
  let run target spec_path limit =
    let t = or_die (load_tables ~target spec_path) in
    let g = t.Cogg.Tables.grammar in
    List.iteri
      (fun i c ->
        if i < limit then Fmt.pr "%a@." (Cogg.Parse_table.pp_conflict g) c)
      (Cogg.Tables.conflicts t)
  in
  let limit =
    Arg.(
      value & opt int 50
      & info [ "limit"; "n" ] ~docv:"N" ~doc:"Show at most N conflicts")
  in
  Cmd.v (Cmd.info "conflicts" ~doc:"List resolved parsing conflicts")
    Term.(const run $ target_arg $ spec_arg $ limit)

let tables_cmd =
  let run target spec_path out =
    let t = or_die (load_tables ~target spec_path) in
    let bytes = Cogg.Tables_io.write t in
    let oc = open_out_bin out in
    output_string oc bytes;
    close_out oc;
    Fmt.pr "wrote %d bytes of driving tables to %s@." (String.length bytes) out
  in
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT.cgt" ~doc:"Output table bundle")
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Compile a specification into a loadable table bundle (.cgt)")
    Term.(const run $ target_arg $ spec_arg $ out)

let gen_cmd =
  let run target spec_path if_path run_it =
    let t = or_die (load_tables ~target spec_path) in
    let text = read_file if_path in
    match Cogg.Codegen.generate_string t text with
    | Error m -> or_die (Error m)
    | Ok r ->
        Fmt.pr "* generated %d bytes (%d branch sites, %d long)@."
          (Bytes.length r.Cogg.Codegen.resolved.Cogg.Loader_gen.code)
          r.Cogg.Codegen.resolved.Cogg.Loader_gen.n_sites
          r.Cogg.Codegen.resolved.Cogg.Loader_gen.n_long;
        Fmt.pr "%s@." r.Cogg.Codegen.listing;
        Fmt.pr "* object module:@.%s@."
          (Machine.Objmod.to_string r.Cogg.Codegen.objmod);
        if run_it then begin
          let tgt = t.Cogg.Tables.target in
          match tgt.Machine.Target.boot r.Cogg.Codegen.objmod with
          | Error m -> or_die (Error m)
          | Ok (sim, entry) -> (
              match tgt.Machine.Target.run sim ~entry with
              | Error m -> or_die (Error m)
              | Ok out ->
                  Fmt.pr "* executed %d instructions%a@."
                    out.Machine.Runtime.steps
                    Fmt.(
                      option (fun ppf m -> Fmt.pf ppf " (aborted: %s)" m))
                    out.Machine.Runtime.aborted)
        end
  in
  let if_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"IF-FILE" ~doc:"Linearized intermediate-form program")
  in
  let run_flag =
    Arg.(
      value & flag
      & info [ "run" ] ~doc:"Execute on the target's simulator")
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate code for an IF program")
    Term.(const run $ target_arg $ spec_arg $ if_arg $ run_flag)

let () =
  (* library warnings (a table-cache entry that cannot be stored) go to
     stderr; info lines stay silent at Logs' default level *)
  Logs.set_reporter (Logs_fmt.reporter ());
  let info =
    Cmd.info "coggc" ~version:"1.0"
      ~doc:"CoGG: a code generator generator for table driven code generators"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; stats_cmd; sizes_cmd; conflicts_cmd; tables_cmd; gen_cmd ]))
