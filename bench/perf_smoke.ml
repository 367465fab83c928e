(* Allocation smoke test:
     dune build @perf-smoke
   meters the allocation of six calls and fails if any exceeds its
   checked-in budget (bench/perf_budget.txt, passed as argv.(1); one
   number per line):
     line 1: one warm table-driven compile of the appendix-1 equation
             (Cogg.Codegen.generate, comb dispatch), minor words per
             compile;
     line 2: the IF optimizer alone (Shaper.Cse_opt.optimize) on the
             same program, minor words per call, on a freshly shaped
             program each time (its IF holds no repeated subtree, so
             this is the screen that skips a statement);
     line 3: one table-cache hit (Cogg.Tables_cache.build_file on a
             private warm cache directory), words per hit: minor words
             plus the words allocated straight to the major heap (the
             file's bytes and any large array never pass through the
             minor heap, so minor words alone would miss them);
     line 4: one from-scratch SLR table build of specs/amdahl470.cgg
             (Cogg.Cogg_build.build of the parsed spec: LR(0),
             lookaheads, the action fill, the comb, the templates),
             words per build, counted as line 3 counts them;
     line 5: the front end (Pascal.Sema.front_end: lexer, parser and
             static semantics) on examples/programs/expr-eval.pas,
             minor words per call;
     line 6: the IF optimizer as line 2 meters it, on
             examples/programs/expr-eval.pas, whose IF holds twelve
             make_commons, so numbering, choosing and rewriting run.
   Each budget is ~1.5x the measured steady-state figure.  These counts
   repeat exactly from run to run, so drift — a new per-token
   allocation, a listing rendered through Format again, CSE keys built
   as strings, keywords looked up in a list, a bundle section decoded at
   load again, LR sets back on [Set.Make] — trips the gate long before
   it shows up as wall-clock noise. *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let runs = 50

(* fails the whole check if [per_call] is over [budget] *)
let check ?(words = "minor words") ~what ~unit ~budget per_call =
  Fmt.pr "perf-smoke: %s: %.0f %s/%s (budget %.0f)@." what per_call words
    unit budget;
  if per_call > budget then begin
    Fmt.epr
      "perf-smoke FAILED: %s allocates %.0f %s/%s, over the budget of %.0f \
       (bench/perf_budget.txt); it is allocating more than it used to@."
      what per_call words unit budget;
    false
  end
  else true

let meter_codegen ~budget tables tokens =
  (* warm up (interning tables, buffer growth, code paths), then meter *)
  for _ = 1 to 10 do
    ignore (Cogg.Codegen.generate tables tokens)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Cogg.Codegen.generate tables tokens)
  done;
  check ~what:"codegen" ~unit:"compile" ~budget
    ((Gc.minor_words () -. w0) /. float_of_int runs)

(* optimize reserves CSE temporaries in the frames it is given, so every
   call gets a fresh shape; only the optimize call itself is metered *)
let meter_cse ~what ~budget checked =
  let shape () =
    match Shaper.Irgen.shape checked with
    | Ok sh -> sh
    | Error e ->
        Fmt.epr "%a@." Shaper.Irgen.pp_error e;
        exit 2
  in
  let words = ref 0. in
  for _ = 1 to runs do
    let sh = shape () in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Shaper.Cse_opt.optimize sh));
    words := !words +. (Gc.minor_words () -. w0)
  done;
  check ~what ~unit:"call" ~budget (!words /. float_of_int runs)

let meter_front_end ~budget source =
  for _ = 1 to 3 do
    ignore (Pascal.Sema.front_end source)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Pascal.Sema.front_end source))
  done;
  check ~what:"front end" ~unit:"call" ~budget
    ((Gc.minor_words () -. w0) /. float_of_int runs)

(* every word allocated, wherever it went: minor words plus the major
   words that were not promoted from the minor heap.  The minor count
   comes from [Gc.minor_words], which includes the words allocated since
   the last minor collection; OCaml 5.1's [Gc.counters] misses some of
   them. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Cache hits on a private directory, warmed by one untimed build; the
   directory is removed afterwards. *)
let meter_cache_hit ~budget spec_file =
  let dir = Filename.temp_file "perf-smoke-cache" "" in
  Sys.remove dir;
  let hit () =
    match Cogg.Tables_cache.build_file ~cache_dir:dir spec_file with
    | Ok (t, _) -> t
    | Error es ->
        Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
        exit 2
  in
  for _ = 1 to 3 do
    ignore (hit ())
  done;
  let w0 = allocated_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (hit ()))
  done;
  let per_hit = (allocated_words () -. w0) /. float_of_int runs in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  check ~words:"words" ~what:"cache hit" ~unit:"hit" ~budget per_hit

(* from-scratch builds of the parsed spec, after three untimed ones *)
let meter_build ~budget spec =
  let build () =
    match Cogg.Cogg_build.build spec with
    | Ok t -> t
    | Error es ->
        Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
        exit 2
  in
  for _ = 1 to 3 do
    ignore (build ())
  done;
  let w0 = allocated_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (build ()))
  done;
  check ~words:"words" ~what:"table build" ~unit:"build" ~budget
    ((allocated_words () -. w0) /. float_of_int runs)

let () =
  let budget_file =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else begin
      Fmt.epr "usage: perf_smoke <budget-file>@.";
      exit 2
    end
  in
  let budgets =
    let ic = open_in budget_file in
    let text = In_channel.input_all ic in
    close_in ic;
    match
      List.map float_of_string_opt
        (List.filter (( <> ) "")
           (List.map String.trim (String.split_on_char '\n' text)))
    with
    | [ Some _; Some _; Some _; Some _; Some _; Some _ ] as l ->
        Array.of_list (List.map Option.get l)
    | _ ->
        Fmt.epr "%s: expected six numbers, one per line: %S@." budget_file
          text;
        exit 2
  in
  let locate rel =
    match find_up (Sys.getcwd ()) rel with
    | Some p -> p
    | None ->
        Fmt.epr "cannot locate %s@." rel;
        exit 2
  in
  let spec_file = locate "specs/amdahl470.cgg" in
  let expr_eval =
    In_channel.with_open_bin (locate "examples/programs/expr-eval.pas")
      In_channel.input_all
  in
  let tables =
    match Cogg.Cogg_build.build_file spec_file with
    | Ok t -> t
    | Error es ->
        Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
        exit 2
  in
  let compiled =
    match Pipeline.compile tables Pipeline.Programs.appendix1_equation with
    | Ok c -> c
    | Error m ->
        Fmt.epr "%s@." m;
        exit 2
  in
  let codegen_ok =
    meter_codegen ~budget:budgets.(0) tables compiled.Pipeline.tokens
  in
  let cse_ok =
    meter_cse ~what:"cse_opt" ~budget:budgets.(1) compiled.Pipeline.checked
  in
  let cache_ok = meter_cache_hit ~budget:budgets.(2) spec_file in
  let build_ok =
    match Cogg.Spec_parse.of_file spec_file with
    | Ok spec -> meter_build ~budget:budgets.(3) spec
    | Error e ->
        Fmt.epr "%a@." Cogg.Spec_parse.pp_error e;
        exit 2
  in
  let front_ok = meter_front_end ~budget:budgets.(4) expr_eval in
  let cse_common_ok =
    match Pascal.Sema.front_end expr_eval with
    | Ok checked ->
        meter_cse ~what:"cse_opt (make_common)" ~budget:budgets.(5) checked
    | Error m ->
        Fmt.epr "%s@." m;
        exit 2
  in
  if
    not (codegen_ok && cse_ok && cache_ok && build_ok && front_ok && cse_common_ok)
  then exit 1
