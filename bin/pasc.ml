(* pasc — the mini-Pascal compiler driving the CoGG-generated code
   generator (or the hand-written baseline), targeting the simulated
   Amdahl 470. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let or_die = function
  | Ok x -> x
  | Error m ->
      Fmt.epr "%s@." m;
      exit 1

let src_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SOURCE" ~doc:"mini-Pascal source file")

let srcs_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"SOURCE" ~doc:"mini-Pascal source file(s)")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Compile the batch on $(docv) domains over one shared table \
           bundle (0 = one per core).  The default, $(b,-j 1), is the \
           fully sequential path; parallel output is byte-identical to \
           it.")

(* --spec defaults to the selected target's own spec file, so
   `--target risc32` alone does the right thing; naming both pins the
   spec explicitly (e.g. checking an experimental spec against a
   substrate). *)
let spec_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"SPEC"
        ~doc:
          "Code generator specification (default: the $(b,--target)'s own \
           spec file)")

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
             "Machine to generate code for (and simulate): %s.  Selects \
              the spec, the instruction substrate and the simulator; the \
              default is $(b,%s)."
             (String.concat " or "
                (List.map (fun n -> "$(b," ^ n ^ ")") Machine.Targets.names))
             Machine.Targets.default.Machine.Target.name))

let spec_for target spec_opt =
  match spec_opt with
  | Some p -> p
  | None -> target.Machine.Target.spec_file

(* Built tables are cached on disk keyed by the spec's content digest
   (plus the target name), so repeat runs skip LR construction entirely;
   on a miss, the pool (if any) parallelizes the build itself. *)
let load_tables ?pool ?target ~no_cache spec_path =
  if no_cache then
    match Cogg.Cogg_build.build_file ?pool ?target spec_path with
    | Ok t -> t
    | Error es ->
        or_die (Error (Fmt.str "%a" (Fmt.list Cogg.Cogg_build.pp_error) es))
  else
    match Cogg.Tables_cache.build_file ?pool ?target spec_path with
    | Ok (t, origin) ->
        if Sys.getenv_opt "COGG_CACHE_VERBOSE" <> None then
          Fmt.epr "[tables-cache] %s: %a@." spec_path Cogg.Tables_cache.pp_origin
            origin;
        t
    | Error es ->
        or_die (Error (Fmt.str "%a" (Fmt.list Cogg.Cogg_build.pp_error) es))

let pp_value ppf = function
  | Pascal.Interp.Vint n -> Fmt.int ppf n
  | Pascal.Interp.Vbool b -> Fmt.bool ppf b
  | Pascal.Interp.Vchar c -> Fmt.pf ppf "%C" c
  | Pascal.Interp.Vreal f -> Fmt.float ppf f
  | _ -> Fmt.string ppf "<aggregate>"

let run_executed (x : Pipeline.executed) =
  List.iter (fun v -> Fmt.pr "%d@." v) x.Pipeline.written_ints;
  List.iter (fun v -> Fmt.pr "%g@." v) x.Pipeline.written_reals;
  match x.Pipeline.outcome.Machine.Runtime.aborted with
  | Some m -> Fmt.epr "aborted: %s@." m
  | None -> ()

let compile_cmd =
  let run target spec_opt src_paths jobs no_cse no_cache checks baseline
      show_if show_listing run_it verify stats trace explain dispatch =
    let spec_path = spec_for target spec_opt in
    if baseline && target.Machine.Target.name <> Machine.Targets.default.Machine.Target.name
    then
      or_die
        (Error
           "--baseline is the hand-written Amdahl 470 comparator; it has no \
            other backends");
    let many = List.length src_paths > 1 in
    let header path = if many then Fmt.pr "==> %s <==@." path in
    (* observability: enable before the tables load so cache hits/misses
       and the table-build phase are captured too *)
    if stats || trace <> None then Cogg.Metrics.set_enabled true;
    if trace <> None then Cogg.Trace.set_enabled true;
    let report_observability () =
      if stats then begin
        Fmt.pr "@.== observability counters ==@.";
        Fmt.pr "%a" Cogg.Metrics.pp_table (Cogg.Metrics.snapshot ())
      end;
      match trace with
      | None -> ()
      | Some path ->
          Cogg.Trace.write_json path;
          Fmt.epr "wrote %s (%d trace events)@." path
            (Cogg.Trace.event_count ())
    in
    if baseline then begin
      (* the hand-written comparator has no table bundle to share; batches
         simply loop *)
      if explain then
        Fmt.epr
          "--explain requires the table-driven generator (no productions to \
           attribute in the baseline); ignoring@.";
      List.iter
        (fun src_path ->
          let src = read_file src_path in
          header src_path;
          let c = or_die (Pipeline.compile_baseline ~checks src) in
          if show_listing then Fmt.pr "%s@." c.Pipeline.b_gen.Baseline.listing;
          if run_it then run_executed (or_die (Pipeline.execute_baseline c)))
        src_paths;
      report_observability ()
    end
    else begin
      (* the parallel engine: one shared table bundle, per-program work
         fanned out over the pool; -j 1 (the default) passes no pool and
         takes the sequential path *)
      let domains =
        if jobs = 0 then Domain.recommended_domain_count () else jobs
      in
      let with_pool f =
        if domains <= 1 then f None
        else Cogg.Pool.with_pool ~domains (fun p -> f (Some p))
      in
      with_pool @@ fun pool ->
      let tables = load_tables ?pool ~target ~no_cache spec_path in
      let batch =
        Array.of_list
          (List.map
             (fun p -> { Pipeline.Batch.name = p; source = read_file p })
             src_paths)
      in
      let results =
        Cogg.Trace.with_span ~cat:"batch" "batch" (fun () ->
            Pipeline.Batch.compile_all ?pool ~cse:(not no_cse) ~checks
              ~dispatch ~explain tables batch)
      in
      (* reporting stays sequential and in input order: batch output must
         be byte-identical to compiling the files one by one *)
      let failed = ref false in
      Array.iteri
        (fun i result ->
          let path = batch.(i).Pipeline.Batch.name in
          match result with
          | Error m ->
              Fmt.epr "%s%s@." (if many then path ^ ": " else "") m;
              failed := true
          | Ok c ->
              header path;
              if show_if then begin
                List.iter
                  (fun tok -> Fmt.pr "%a " Ifl.Token.pp tok)
                  c.Pipeline.tokens;
                Fmt.pr "@."
              end;
              if show_listing then
                Fmt.pr "%s@." c.Pipeline.gen.Cogg.Codegen.listing;
              if explain then
                Option.iter (Fmt.pr "%s@.")
                  c.Pipeline.gen.Cogg.Codegen.explanation;
              if verify then begin
                let v =
                  or_die
                    (Pipeline.verify ~cse:(not no_cse) ~checks tables
                       batch.(i).Pipeline.Batch.source)
                in
                if v.Pipeline.agreed then
                  Fmt.pr "verified: machine = interpreter@."
                else begin
                  Fmt.epr "MISMATCH: %a@." Fmt.(list string)
                    v.Pipeline.mismatches;
                  failed := true
                end
              end;
              if run_it then run_executed (or_die (Pipeline.execute c)))
        results;
      report_observability ();
      if !failed then exit 1
    end
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file covering the whole batch \
             (per-phase spans per program, all domains), loadable in \
             about:tracing or Perfetto.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile (and optionally run) programs")
    Term.(
      const run $ target_arg $ spec_arg $ srcs_arg $ jobs_arg
      $ flag [ "no-cse" ] "Disable the common-subexpression optimizer"
      $ flag [ "no-cache" ] "Rebuild the driving tables instead of using the on-disk cache"
      $ flag [ "checks" ] "Emit subscript checking code"
      $ flag [ "baseline" ] "Use the hand-written code generator"
      $ flag [ "dump-if" ] "Print the linearized intermediate form"
      $ flag [ "listing"; "S" ] "Print the generated assembly listing"
      $ flag [ "run" ] "Execute on the simulator and print write output"
      $ flag [ "verify" ] "Check the machine against the reference interpreter"
      $ flag [ "stats" ]
          "Print the aggregate observability counters (driver, register \
           allocator, CSE, loader, table cache, per-phase times) after the \
           batch"
      $ trace_arg
      $ flag [ "explain" ]
          "Annotate every emitted instruction with the production and \
           directives responsible for it (table-driven generators only)"
      $ Arg.(
          value
          & opt
              (enum [ ("flat", Cogg.Driver.Flat); ("comb", Cogg.Driver.Comb) ])
              Cogg.Driver.Comb
          & info [ "dispatch" ] ~docv:"D"
              ~doc:
                "Parse-table dispatch the driver probes: $(b,comb) \
                 (packed, the default) or $(b,flat) (uncompressed)."))

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

(* The real-program bank (Pascal only) doubles as a distillation
   candidate source. *)
let read_program_dir dir : Fuzz.Runner.corpus_entry list =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f ".pas")
  |> List.map (fun f ->
         {
           Fuzz.Runner.e_name = Filename.remove_extension f;
           e_kind = "pascal";
           e_text = read_file (Filename.concat dir f);
         })

let fuzz_cmd =
  let run target spec_opt seed count profile minimize malformed jobs corpus
      cross guided minutes replay distill =
    let spec_path = spec_for target spec_opt in
    let tables = load_tables ~target ~no_cache:false spec_path in
    let cfg =
      {
        Fuzz.Runner.seed;
        budget = (if minutes = None then count else max_int);
        schedule = (if guided then Fuzz.Runner.Guided else Fuzz.Runner.Uniform);
        profile =
          Option.map (fun s -> or_die (Fuzz.Profile.of_string s)) profile;
        malformed;
        oracles = true;
        minimize;
        jobs = (if jobs = 0 then Domain.recommended_domain_count () else jobs);
        cross =
          Option.map
            (fun (t : Machine.Target.t) ->
              load_tables ~target:t ~no_cache:false t.Machine.Target.spec_file)
            cross;
        spec = Some spec_path;
        stop =
          (match minutes with
          | None -> fun () -> false
          | Some m ->
              let deadline = Unix.gettimeofday () +. (m *. 60.) in
              fun () -> Unix.gettimeofday () >= deadline);
        log = (fun m -> Fmt.epr "%s@." m);
      }
    in
    match (replay, distill) with
    | Some line, _ ->
        (* --replay SEED:INDEX[:m1.m2...]: reconstruct the exact input
           from its lineage and re-run the oracles on it *)
        let input, verdicts = or_die (Fuzz.Runner.replay tables cfg line) in
        Fmt.pr "replay %s (%s input):@.%s@." (String.trim line)
          (Fuzz.Runner.kind_of_input input)
          (Fuzz.Runner.render_input input);
        List.iter
          (fun (name, st) -> Fmt.pr "%s: %a@." name Fuzz.Oracle.pp_status st)
          verdicts;
        if List.exists (fun (_, st) -> Fuzz.Oracle.is_finding st) verdicts then
          exit 1
    | None, Some dir ->
        (* --distill DIR: greedy minimal seed set covering every
           production any candidate can reach.  Candidates: the standard
           workload programs, the coverage pins, the real-program bank,
           the fixed-seed fuzz slice, and a guided run's kept pool. *)
        let real =
          match find_up (Sys.getcwd ()) "examples/programs" with
          | Some d -> read_program_dir d
          | None -> []
        in
        let guided =
          {
            cfg with
            schedule = Fuzz.Runner.Guided;
            budget = max cfg.budget 512;
            oracles = false;
          }
        in
        let r = Fuzz.Runner.run tables guided in
        let cands =
          List.map
            (fun (name, src) ->
              { Fuzz.Runner.e_name = name; e_kind = "pascal"; e_text = src })
            Pipeline.Programs.all
          @ Fuzz.Runner.pinned_entries @ real
          @ Fuzz.Runner.generated_entries ~seed ~pascal_count:72 ~if_count:24
          @ Fuzz.Runner.report_entries guided r
        in
        let selected, universe = Fuzz.Runner.distill_corpus tables cands in
        Fuzz.Runner.write_corpus ~title:"distilled corpus seed" dir selected
        |> List.iter (Fmt.epr "wrote %s@.");
        Fmt.pr
          "distilled %d candidates to %d seeds covering all %d reachable \
           productions@."
          (List.length cands) (List.length selected) universe
    | None, None ->
        let r = Fuzz.Runner.run tables cfg in
        Fmt.pr "fuzz: seed %d, %a@." seed Fuzz.Runner.pp_report r;
        List.iter
          (fun (k : Fuzz.Runner.kept) ->
            Fmt.pr "kept %s (+%d features)@."
              (Fuzz.Runner.replay_line k.Fuzz.Runner.k_lineage)
              k.Fuzz.Runner.k_gain)
          r.Fuzz.Runner.r_kept;
        (* the replay line carries every option that changes the input
           or the oracle set *)
        let replay_opts =
          Fmt.str "--target %s --spec %s%s%s" target.Machine.Target.name
            spec_path
            (if malformed then " --malformed" else "")
            (match cross with
            | Some t -> " --cross " ^ t.Machine.Target.name
            | None -> "")
        in
        List.iter
          (fun (f : Fuzz.Runner.finding) ->
            let line = Fuzz.Runner.replay_line f.Fuzz.Runner.f_lineage in
            Fmt.pr
              "finding: %s oracle %s: %a@.  %s:@.%s@.  replay: pasc fuzz %s \
               --replay %s@."
              line f.Fuzz.Runner.f_oracle Fuzz.Oracle.pp_status
              f.Fuzz.Runner.f_status
              (if minimize then "minimized input" else "input")
              (Fuzz.Runner.render_input f.Fuzz.Runner.f_input)
              replay_opts line)
          r.Fuzz.Runner.r_findings;
        Option.iter
          (fun dir ->
            List.iter (Fmt.epr "wrote %s@.")
              (Fuzz.Runner.write_corpus ~title:"fuzz corpus seed" dir
                 (Fuzz.Runner.report_entries cfg r)))
          corpus;
        match (r.Fuzz.Runner.r_findings, r.Fuzz.Runner.r_batch) with
        | [], (None | Some (Ok _)) -> ()
        | _ -> exit 1
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Master seed")
  in
  let count_arg =
    Arg.(
      value & opt int 64
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of cases to run: fresh inputs plus mutants")
  in
  let profile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"P"
          ~doc:
            "Generate only profile $(docv)'s inputs \
             (ints|bools|arrays|branches|mixed); default: all five")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Write every kept seed and every finding's input into $(docv), \
             one file each")
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the pipeline: random programs through the \
          interpreter-vs-machine, comb-vs-flat and determinism oracles")
    Term.(
      const run $ target_arg $ spec_arg $ seed_arg $ count_arg $ profile_arg
      $ flag [ "minimize" ] "Shrink failing inputs before reporting"
      $ flag [ "malformed" ]
          "Mutate IF streams and check that every failure is a structured \
           error (totality sweep)"
      $ jobs_arg $ corpus_arg
      $ Arg.(
          value
          & opt
              (some
                 (enum
                    (List.map
                       (fun n -> (n, Machine.Targets.find_exn n))
                       Machine.Targets.names)))
              None
          & info [ "cross" ] ~docv:"TARGET"
              ~doc:
                "Cross-backend differential oracle: compile and run every \
                 Pascal case under $(docv)'s backend as well and compare \
                 the two machines' observable outputs (with \
                 $(b,--malformed): every stream must get a structured answer \
                 from $(docv)'s backend too).")
      $ flag [ "guided" ]
          "Coverage-guided schedule: keep and mutate inputs that discover \
           new production (bigram) coverage, and spend fresh inputs on the \
           classes still finding it; the default schedule takes fresh \
           inputs round-robin over the classes"
      $ Arg.(
          value
          & opt (some float) None
          & info [ "minutes" ] ~docv:"M"
              ~doc:
                "Keep running rounds across the pool until $(docv) minutes \
                 of wall clock have passed (overrides $(b,--count))")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "replay" ] ~docv:"LINEAGE"
              ~doc:
                "Reproduce one input from its printed lineage \
                 ($(b,SEED:INDEX) or $(b,SEED:INDEX:m1.m2...)), print it, \
                 and re-run the oracles on it; pass $(b,--malformed) and \
                 $(b,--cross) as the run that printed it did")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "distill" ] ~docv:"DIR"
              ~doc:
                "Corpus distillation: compute a greedy-minimal seed set \
                 covering every production any candidate reaches (standard \
                 programs, the real-program bank, a fixed-seed fuzz slice \
                 and a guided run's kept pool) and write it to $(docv)"))

(* -- the compile service ------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/pascd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let serve_cmd =
  let run target spec_opt socket jobs queue_capacity cache_capacity =
    let spec_path = spec_for target spec_opt in
    let domains =
      if jobs = 0 then Domain.recommended_domain_count () else jobs
    in
    let with_pool f =
      if domains <= 1 then f None
      else Cogg.Pool.with_pool ~domains (fun p -> f (Some p))
    in
    with_pool @@ fun pool ->
    let tables = load_tables ?pool ~target ~no_cache:false spec_path in
    (* the table bundle's own cache key doubles as its identity in every
       result-cache key, so results can never outlive the spec (or the
       target) they were compiled under *)
    let table_key =
      Cogg.Tables_cache.key ~target ~mode:Cogg.Lookahead.Slr
        (read_file spec_path)
    in
    let server =
      or_die
        (Serve.Server.create ?pool ~queue_capacity ~cache_capacity ~table_key
           ~socket_path:socket tables)
    in
    Fmt.epr "pascd: serving %s [%s] on %s (%d domain%s)@." spec_path
      target.Machine.Target.name socket domains
      (if domains = 1 then "" else "s");
    Serve.Server.run server;
    Fmt.epr "pascd: %s@."
      (String.concat ", "
         (String.split_on_char '\n' (Serve.Server.stats_text server)
         |> List.filter (fun l -> l <> "")))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent compile daemon: load the tables once, serve \
          compile requests over a Unix-domain socket, cache results by \
          content digest")
    Term.(
      const run $ target_arg $ spec_arg $ socket_arg $ jobs_arg
      $ Arg.(
          value & opt int 64
          & info [ "queue" ] ~docv:"N"
              ~doc:
                "Pending-compile queue capacity; requests beyond it are \
                 answered $(b,Overloaded) immediately (admission control)")
      $ Arg.(
          value & opt int 256
          & info [ "cache" ] ~docv:"N"
              ~doc:"Result cache capacity (entries, oldest evicted first)"))

let client_cmd =
  let run socket srcs show_listing do_stats do_ping do_shutdown pause_ms =
    let c = or_die (Serve.Client.connect socket) in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    if do_ping then begin
      or_die (Serve.Client.ping c);
      Fmt.pr "pong@."
    end;
    (match pause_ms with
    | Some ms -> or_die (Serve.Client.pause c ms)
    | None -> ());
    let failed = ref false in
    if srcs <> [] then begin
      let sources = Array.of_list (List.map read_file srcs) in
      (* honor the daemon's backoff hint: one bounded retry turns a
         transient queue overflow into a served batch *)
      let replies = or_die (Serve.Client.compile_batch c ~retry:true sources) in
      let many = List.length srcs > 1 in
      Array.iteri
        (fun i reply ->
          let path = List.nth srcs i in
          match reply with
          | Serve.Wire.Compiled { cached; outcome = Ok (listing, code); _ } ->
              if many then Fmt.pr "==> %s <==@." path;
              Fmt.epr "%s: ok (%d bytes%s)@." path (String.length code)
                (if cached then ", cached" else "");
              if show_listing then Fmt.pr "%s@." listing
          | Serve.Wire.Compiled { outcome = Error m; _ } ->
              Fmt.epr "%s: %s@." path m;
              failed := true
          | Serve.Wire.Overloaded { retry_after_ms; _ } ->
              Fmt.epr "%s: daemon overloaded (retry in ~%d ms)@." path
                retry_after_ms;
              failed := true
          | _ ->
              Fmt.epr "%s: unexpected reply@." path;
              failed := true)
        replies
    end;
    if do_stats then Fmt.pr "%s" (or_die (Serve.Client.stats c));
    if do_shutdown then or_die (Serve.Client.shutdown c);
    if !failed then exit 1
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running pascd daemon: compile sources through it, query \
          its counters, or shut it down")
    Term.(
      const run $ socket_arg
      $ Arg.(
          value & pos_all file []
          & info [] ~docv:"SOURCE" ~doc:"mini-Pascal source file(s)")
      $ flag [ "listing"; "S" ] "Print the returned assembly listing"
      $ flag [ "stats" ] "Print the daemon's counters"
      $ flag [ "ping" ] "Liveness probe"
      $ flag [ "shutdown" ] "Ask the daemon to drain and exit"
      $ Arg.(
          value
          & opt (some int) None
          & info [ "pause" ] ~docv:"MS"
              ~doc:
                "Suspend the daemon's compile-queue draining for $(docv) \
                 milliseconds (testing hook for the backpressure path)"))

let interp_cmd =
  let run src_path =
    let src = read_file src_path in
    let checked = or_die (Pascal.Sema.front_end src) in
    match Pascal.Interp.run checked with
    | Error e -> or_die (Error (Fmt.str "%a" Pascal.Interp.pp_error e))
    | Ok r ->
        List.iter (fun v -> Fmt.pr "%a@." pp_value v) r.Pascal.Interp.written
  in
  Cmd.v (Cmd.info "interp" ~doc:"Run the reference interpreter")
    Term.(const run $ src_arg)

let () =
  let info =
    Cmd.info "pasc" ~version:"1.0"
      ~doc:"mini-Pascal compiler over the CoGG table-driven code generator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; interp_cmd; fuzz_cmd; serve_cmd; client_cmd ]))
