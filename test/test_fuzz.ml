(* The fuzzing subsystem's own suite, and the fixed-seed smoke batch
   behind the @fuzz-smoke alias.

   COGG_FUZZ_SEED / COGG_FUZZ_COUNT override the smoke batch for longer
   local runs:
     COGG_FUZZ_SEED=99 COGG_FUZZ_COUNT=2000 dune build @fuzz-smoke *)

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let smoke_seed () = env_int "COGG_FUZZ_SEED" 11

(* classes alternate Pascal and IF, so 106 cases hold 53 Pascal programs *)
let smoke_count () = env_int "COGG_FUZZ_COUNT" 106

let tables () = Lazy.force Util.amdahl_tables

(* -- the deterministic RNG --------------------------------------------------- *)

let test_rng_replayable () =
  (* same (seed, index) -> same stream, forever: pin a few draws *)
  let draws seed index =
    let r = Fuzz.Rng.derive ~seed ~index in
    List.init 5 (fun _ -> Fuzz.Rng.int r 1000)
  in
  Alcotest.(check (list int)) "derive is stable" (draws 42 7) (draws 42 7);
  Alcotest.(check bool)
    "neighbouring cases decorrelate" true
    (draws 42 7 <> draws 42 8);
  Alcotest.(check bool) "seeds decorrelate" true (draws 42 7 <> draws 43 7)

let test_rng_bounds () =
  let r = Fuzz.Rng.create 5 in
  for _ = 1 to 1000 do
    let n = Fuzz.Rng.int r 7 in
    if n < 0 || n >= 7 then Alcotest.failf "int out of bound: %d" n;
    let m = Fuzz.Rng.range r (-3) 3 in
    if m < -3 || m > 3 then Alcotest.failf "range out of bound: %d" m
  done

(* -- generators produce valid inputs ----------------------------------------- *)

let test_pascal_generator_wellformed () =
  (* every generated program must lex, parse, type-check and terminate
     in the reference interpreter: the exec oracle's soundness rests on
     this *)
  for i = 0 to 49 do
    let rng = Fuzz.Rng.derive ~seed:1234 ~index:i in
    let src = Fuzz.Gen_pascal.source rng (Fuzz.Profile.rotate i) in
    match Pascal.Sema.front_end src with
    | Error m -> Alcotest.failf "seed 1234 case %d ill-formed: %s\n%s" i m src
    | Ok checked -> (
        match Pascal.Interp.run checked with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "seed 1234 case %d does not terminate: %a\n%s" i
              Pascal.Interp.pp_error e src)
  done

let test_if_generator_parses () =
  (* well-formed streams are in the machine grammar's language; the only
     tolerated rejection is the allocator's documented capacity limit *)
  let t = tables () in
  let ok = ref 0 in
  for i = 0 to 29 do
    let rng = Fuzz.Rng.derive ~seed:77 ~index:i in
    let toks = Fuzz.Gen_if.program rng in
    match Cogg.Codegen.generate t toks with
    | Ok _ -> incr ok
    | Error (Cogg.Codegen.Emit_failure m)
      when Fuzz.Oracle.is_capacity_limit m ->
        ()
    | Error e ->
        Alcotest.failf "seed 77 case %d rejected: %a\n%s" i
          Cogg.Codegen.pp_error e
          (Fuzz.Gen_if.to_text toks)
  done;
  Alcotest.(check bool)
    (Fmt.str "most streams compile (%d/30)" !ok)
    true (!ok >= 20)

let test_if_text_roundtrip () =
  for i = 0 to 19 do
    let rng = Fuzz.Rng.derive ~seed:31 ~index:i in
    let toks = Fuzz.Gen_if.program rng in
    match Ifl.Reader.program_of_string (Fuzz.Gen_if.to_text toks) with
    | Error m -> Alcotest.failf "case %d does not re-read: %s" i m
    | Ok back ->
        Alcotest.(check bool)
          (Fmt.str "case %d round-trips" i)
          true
          (List.equal Ifl.Token.equal toks back)
  done

(* the textual totality leg re-judges a stream only when the reader
   changed it: on the rendering of a well-formed stream it compiles
   nothing, on a different judged stream it runs [total]'s two compiles *)
let test_total_text_judges_once () =
  let t = tables () in
  let toks = Fuzz.Gen_if.program (Fuzz.Rng.derive ~seed:31 ~index:0) in
  let compiles judged =
    Cogg.Metrics.reset ();
    Cogg.Metrics.set_enabled true;
    let st =
      Fun.protect
        ~finally:(fun () -> Cogg.Metrics.set_enabled false)
        (fun () -> Fuzz.Oracle.total_text t ~judged (Fuzz.Gen_if.to_text toks))
    in
    Alcotest.(check string)
      "total" "pass"
      (Fmt.str "%a" Fuzz.Oracle.pp_status st);
    List.assoc "codegen.compiles" (Cogg.Metrics.snapshot ())
  in
  Alcotest.(check int) "same stream: no compile" 0 (compiles toks);
  Alcotest.(check int) "another stream: both dispatch paths" 2 (compiles [])

let test_branch_heavy_reaches_long_branches () =
  (* the Branches size class must actually cross the 4096-byte page so
     span-dependent sizing and the literal pool are on the fuzzed path *)
  let t = tables () in
  let hit = ref false in
  let i = ref 0 in
  while (not !hit) && !i < 10 do
    let rng = Fuzz.Rng.derive ~seed:13 ~index:!i in
    let toks = Fuzz.Gen_if.program ~branch_heavy:true rng in
    (match Cogg.Codegen.generate t toks with
    | Ok r ->
        if r.Cogg.Codegen.resolved.Cogg.Loader_gen.n_long > 0 then hit := true
    | Error _ -> ());
    incr i
  done;
  Alcotest.(check bool) "some branch-heavy stream forces long form" true !hit

let test_malformed_branch_streams_short () =
  (* under --malformed the branches class mutates short streams; the
     well-formed class keeps its full 150-400 statements *)
  let statements = function
    | Fuzz.Runner.If_stream toks ->
        List.length
          (List.filter
             (fun (t : Ifl.Token.t) -> t.Ifl.Token.sym = "statement")
             toks)
    | Fuzz.Runner.Pascal_src _ -> Alcotest.fail "an IF class drew Pascal"
  in
  let branches_if =
    List.filter
      (fun i ->
        Fuzz.Runner.profile_of_index i = Fuzz.Profile.Branches
        && Fuzz.Runner.class_of_index i land 1 = 1)
      (List.init 100 Fun.id)
  in
  List.iter
    (fun index ->
      let n malformed =
        statements (Fuzz.Runner.fresh ~malformed ~seed:3 ~index)
      in
      Alcotest.(check bool) "well-formed stream keeps its length" true
        (n false >= 150);
      (* each of at most three mutation steps adds at most one
         statement marker *)
      Alcotest.(check bool) "malformed stream is capped" true
        (n true <= Fuzz.Runner.malformed_branch_statements + 3))
    branches_if

(* -- the shrinker ------------------------------------------------------------- *)

let test_shrinker_greedy_minimum () =
  (* generic descent: minimizing "contains an element >= 100" over a
     list must land on a single offending element *)
  let test xs = List.exists (fun x -> x >= 100) xs in
  let min_list =
    Fuzz.Shrink.minimize ~candidates:Fuzz.Shrink.list_candidates ~test
      [ 1; 2; 300; 4; 5; 600; 7; 8 ]
  in
  Alcotest.(check bool) "still failing" true (test min_list);
  Alcotest.(check int) "one element" 1 (List.length min_list)

let test_shrinker_preserves_failure () =
  (* shrunken programs stay well-formed enough to re-run the oracle:
     minimize under a synthetic "mentions while" failure *)
  let rng = Fuzz.Rng.derive ~seed:2024 ~index:3 in
  let p = Fuzz.Gen_pascal.program ~size:14 rng Fuzz.Profile.Branches in
  let test src = Util.contains src "while" in
  if test (Fuzz.Gen_pascal.render p) then begin
    let small = Fuzz.Shrink.minimize_program ~test p in
    let src = Fuzz.Gen_pascal.render small in
    Alcotest.(check bool) "minimized still fails" true (test src);
    Alcotest.(check bool)
      "minimized is no larger" true
      (String.length src <= String.length (Fuzz.Gen_pascal.render p))
  end

let test_exec_oracle_chr_regression () =
  (* fuzzer-minimized finding (seed 19, case 4): interp masked chr to
     the low byte, compiled code compared the raw ordinal — "global r1
     differs".  With range-checked chr the program is erroneous, so the
     exec oracle must Skip it (reference rejection), never Fail. *)
  let src =
    "program p; var r1 : real; begin if chr(sqr(-563)) >= 'q' then begin \
     end else r1 := 6.63 end."
  in
  match Fuzz.Oracle.exec (tables ()) src with
  | Fuzz.Oracle.Skip _ -> ()
  | st ->
      Alcotest.failf "expected skip, got %a" Fuzz.Oracle.pp_status st

(* -- the smoke batch: N cases x 3 oracles ------------------------------------- *)

let print_findings (r : Fuzz.Runner.report) =
  List.iter
    (fun (f : Fuzz.Runner.finding) ->
      Fmt.epr "finding: %s oracle %s: %a@.%s@."
        (Fuzz.Runner.replay_line f.Fuzz.Runner.f_lineage)
        f.Fuzz.Runner.f_oracle Fuzz.Oracle.pp_status f.Fuzz.Runner.f_status
        (Fuzz.Runner.render_input f.Fuzz.Runner.f_input))
    r.Fuzz.Runner.r_findings

let smoke_config ~jobs =
  {
    Fuzz.Runner.default_config with
    seed = smoke_seed ();
    budget = smoke_count ();
    jobs;
    spec = Some (Util.spec_path "amdahl470.cgg");
    (* every Pascal case also compiles and runs on the second backend;
       the cross-backend oracle demands identical observable output *)
    cross = Some (Lazy.force Util.risc32_tables);
  }

let smoke_report = lazy (Fuzz.Runner.run (tables ()) (smoke_config ~jobs:2))

let test_smoke () =
  let report = Lazy.force smoke_report in
  print_findings report;
  Alcotest.(check int)
    (Fmt.str "zero findings across %d cases (seed %d)" (smoke_count ())
       (smoke_seed ()))
    0
    (List.length report.Fuzz.Runner.r_findings);
  (* the batch-level determinism check ran and agreed *)
  match report.Fuzz.Runner.r_batch with
  | Some (Ok _) -> ()
  | Some (Error m) -> Alcotest.failf "batch check failed: %s" m
  | None -> Alcotest.fail "batch check did not run"

let test_smoke_any_jobs () =
  (* the engine merges in batch order, so the whole report is the same
     at any worker count *)
  let summary (r : Fuzz.Runner.report) =
    Fmt.str "%a | %s | %s" Fuzz.Runner.pp_report r
      (Fuzz.Covmap.digest r.Fuzz.Runner.r_covmap)
      (String.concat ","
         (List.map
            (fun (f : Fuzz.Runner.finding) ->
              Fuzz.Runner.replay_line f.Fuzz.Runner.f_lineage ^ "/"
              ^ f.Fuzz.Runner.f_oracle)
            r.Fuzz.Runner.r_findings))
  in
  Alcotest.(check string)
    "uniform report at -j1 = -j2"
    (summary (Lazy.force smoke_report))
    (summary (Fuzz.Runner.run (tables ()) (smoke_config ~jobs:1)))

let malformed_report =
  lazy
    (Fuzz.Runner.run (tables ())
       {
         Fuzz.Runner.default_config with
         seed = smoke_seed () + 1;
         budget = max 1000 (smoke_count ());
         malformed = true;
         jobs = 2;
         (* every stream also goes through the second backend, booted and
            run on its own simulator *)
         cross = Some (Lazy.force Util.risc32_tables);
       })

let test_malformed_sweep () =
  (* >= 1000 mutated IF streams: every pipeline answer must be a
     structured Error, never an escaping exception *)
  let report = Lazy.force malformed_report in
  print_findings report;
  Alcotest.(check int)
    (Fmt.str "only structured errors across %d mutants"
       report.Fuzz.Runner.r_cases)
    0
    (List.length report.Fuzz.Runner.r_findings);
  Alcotest.(check bool) "at least 1000 mutants" true
    (report.Fuzz.Runner.r_cases >= 1000)

let test_class_filter () =
  (* --profile keeps one profile's classes and --malformed keeps the IF
     ones, under either schedule (two rounds, so the guided schedule
     mutates too) *)
  List.iter
    (fun schedule ->
      let r =
        Fuzz.Runner.run (tables ())
          {
            Fuzz.Runner.default_config with
            budget = 80;
            schedule;
            profile = Some Fuzz.Profile.Arrays;
            malformed = true;
            oracles = false;
          }
      in
      Alcotest.(check bool)
        "some input kept" true
        (r.Fuzz.Runner.r_kept <> []);
      List.iter
        (fun (k : Fuzz.Runner.kept) ->
          let l = k.Fuzz.Runner.k_lineage in
          Alcotest.(check int)
            (Fuzz.Runner.replay_line l ^ " is an arrays IF stream")
            5
            (Fuzz.Runner.class_of_index l.Fuzz.Runner.l_index);
          match k.Fuzz.Runner.k_input with
          | Fuzz.Runner.If_stream _ -> ()
          | Fuzz.Runner.Pascal_src _ -> Alcotest.fail "Pascal input kept")
        r.Fuzz.Runner.r_kept)
    [ Fuzz.Runner.Uniform; Fuzz.Runner.Guided ]

(* -- the batch check's cache leg ------------------------------------------------ *)

let test_batch_check_cold () =
  (* each check builds into a private cache that starts empty, so its
     first build is a miss at every call, not only the first one in a
     working directory; the cache is removed afterwards *)
  let scratch = Filename.temp_dir "test-fuzz-batch" "" in
  let saved = Filename.get_temp_dir_name () in
  let sources =
    List.init 4 (fun i ->
        Fuzz.Gen_pascal.source
          (Fuzz.Rng.derive ~seed:5 ~index:i)
          Fuzz.Profile.Ints)
  in
  let check tables spec =
    let before = Cogg.Tables_cache.stats () in
    (match
       Fuzz.Runner.batch_check tables
         ~spec:(Some (Util.spec_path spec))
         sources
     with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%s: %s" spec m);
    let after = Cogg.Tables_cache.stats () in
    Alcotest.(check (pair int int))
      (spec ^ ": one miss, then one hit")
      (1, 1)
      ( after.Cogg.Tables_cache.misses - before.Cogg.Tables_cache.misses,
        after.Cogg.Tables_cache.hits - before.Cogg.Tables_cache.hits );
    Alcotest.(check (array string))
      "private cache removed" [||] (Sys.readdir scratch)
  in
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      try Sys.rmdir scratch with Sys_error _ -> ())
    (fun () ->
      (* the check's private cache is made under the temp dir *)
      Filename.set_temp_dir_name scratch;
      let amdahl = tables () and risc32 = Lazy.force Util.risc32_tables in
      check amdahl "amdahl470.cgg";
      check amdahl "amdahl470.cgg";
      (* the cache leg builds for the tables' own target *)
      check risc32 "risc32.cgg")

(* -- the guided leg: feedback must not lose to blind sampling ------------------ *)

let guided_budget = 96

let guided_run =
  lazy
    (Fuzz.Runner.run (tables ())
       {
         Fuzz.Runner.default_config with
         seed = smoke_seed ();
         budget = guided_budget;
         schedule = Fuzz.Runner.Guided;
         jobs = 2;
         cross = Some (Lazy.force Util.risc32_tables);
       })

let test_guided_smoke () =
  let g = Lazy.force guided_run in
  print_findings g;
  Alcotest.(check int)
    (Fmt.str "zero findings across %d guided cases" guided_budget)
    0
    (List.length g.Fuzz.Runner.r_findings);
  Alcotest.(check int) "exact budget" guided_budget g.Fuzz.Runner.r_cases;
  (* coverage must be at least the uniform baseline at the same case
     count (the strict > bar at the full 512 budget lives in @guided) *)
  let rc =
    (Fuzz.Runner.run (tables ())
       {
         Fuzz.Runner.default_config with
         seed = smoke_seed ();
         budget = guided_budget;
         oracles = false;
       })
      .Fuzz.Runner.r_covmap
  in
  let gc = g.Fuzz.Runner.r_covmap in
  Alcotest.(check bool)
    (Fmt.str "guided productions %d >= uniform %d"
       (Fuzz.Covmap.prods_covered gc)
       (Fuzz.Covmap.prods_covered rc))
    true
    (Fuzz.Covmap.prods_covered gc >= Fuzz.Covmap.prods_covered rc);
  Alcotest.(check bool)
    (Fmt.str "guided bigrams %d >= uniform %d"
       (Fuzz.Covmap.bigrams_covered gc)
       (Fuzz.Covmap.bigrams_covered rc))
    true
    (Fuzz.Covmap.bigrams_covered gc >= Fuzz.Covmap.bigrams_covered rc)

(* -- replay lineage: the printed line IS the input ------------------------------ *)

let test_replay_lineage_property () =
  let t = tables () in
  let cross = Lazy.force Util.risc32_tables in
  (* kept seeds of a guided run (fresh inputs and mutants), of a uniform
     run (fresh inputs) and of a malformed sweep (malformed mutants),
     each with the config that replays it *)
  let with_cross = { Fuzz.Runner.default_config with cross = Some cross } in
  let cases =
    Array.of_list
      (List.concat_map
         (fun (cfg, report) ->
           List.map (fun k -> (cfg, k)) (Lazy.force report).Fuzz.Runner.r_kept)
         [
           (with_cross, guided_run);
           (with_cross, smoke_report);
           ({ with_cross with malformed = true }, malformed_report);
         ])
  in
  let verdicts cfg input =
    List.map
      (fun (name, check) ->
        (name, Fmt.str "%a" Fuzz.Oracle.pp_status (check input)))
      (Fuzz.Runner.oracles_for t cfg input)
  in
  let prop i =
    let cfg, k = cases.(i) in
    let line = Fuzz.Runner.replay_line k.Fuzz.Runner.k_lineage in
    match Fuzz.Runner.replay t cfg line with
    | Error m -> QCheck.Test.fail_reportf "replay %s failed: %s" line m
    | Ok (input, replayed) ->
        if
          Fuzz.Runner.render_input input
          <> Fuzz.Runner.render_input k.Fuzz.Runner.k_input
        then
          QCheck.Test.fail_reportf "replay %s: different input bytes" line;
        let replayed =
          List.map
            (fun (n, st) -> (n, Fmt.str "%a" Fuzz.Oracle.pp_status st))
            replayed
        in
        let direct = verdicts cfg k.Fuzz.Runner.k_input in
        if replayed <> direct then
          QCheck.Test.fail_reportf
            "replay %s: verdicts diverge (%s vs %s)" line
            (String.concat ", " (List.map (fun (n, s) -> n ^ ":" ^ s) replayed))
            (String.concat ", " (List.map (fun (n, s) -> n ^ ":" ^ s) direct));
        true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:80
       ~name:"kept replay lines reproduce bytes and verdicts"
       QCheck.(int_bound (Array.length cases - 1))
       prop)

let () =
  Alcotest.run "fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "replayable" `Quick test_rng_replayable;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
        ] );
      ( "generators",
        [
          Alcotest.test_case "pascal programs are well-formed" `Quick
            test_pascal_generator_wellformed;
          Alcotest.test_case "IF streams parse" `Quick test_if_generator_parses;
          Alcotest.test_case "IF text round-trips" `Quick test_if_text_roundtrip;
          Alcotest.test_case "total-text judges a stream once" `Quick
            test_total_text_judges_once;
          Alcotest.test_case "branch-heavy forces long branches" `Quick
            test_branch_heavy_reaches_long_branches;
          Alcotest.test_case "malformed branch streams are short" `Quick
            test_malformed_branch_streams_short;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "greedy minimum" `Quick test_shrinker_greedy_minimum;
          Alcotest.test_case "preserves the failure" `Quick
            test_shrinker_preserves_failure;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "chr finding stays fixed" `Quick
            test_exec_oracle_chr_regression;
          Alcotest.test_case "fixed-seed batch, both targets" `Quick
            test_smoke;
          Alcotest.test_case "same report at -j1 and -j2" `Quick
            test_smoke_any_jobs;
          Alcotest.test_case "malformed sweep is total" `Quick
            test_malformed_sweep;
          Alcotest.test_case "class filter in both schedules" `Quick
            test_class_filter;
          Alcotest.test_case "batch check builds cold every time" `Quick
            test_batch_check_cold;
          Alcotest.test_case "guided leg, coverage >= random" `Quick
            test_guided_smoke;
          Alcotest.test_case "replay lineage property" `Quick
            test_replay_lineage_property;
        ] );
    ]
