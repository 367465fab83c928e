(* Coverage-guided fuzzing oracle behind `dune build @guided` (run at
   COGG_JOBS=1 and COGG_JOBS=max by the alias):

   1. Strictness: at a fixed 512-case budget, the guided schedule must
      cover strictly more distinct production bigrams than the uniform
      schedule at the same budget (and at least as many productions).
      Feedback has to earn its keep.

   2. Determinism: the same seed must produce the identical kept-seed
      pool (lineage for lineage) and the identical coverage map when the
      round batches are evaluated across COGG_JOBS domains as when they
      run fully sequentially.

   3. Lineage: every kept seed's replay line reconstructs the exact
      input bytes.

   4. Pins: at the default budget both schedules reproduce the coverage
      recorded below, so a change to either schedule, a generator or the
      coverage signal shows up here.

   COGG_GUIDED_BUDGET overrides the budget for longer local runs (the
   pins then do not apply). *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("guided_smoke: " ^ m);
      exit 1)
    fmt

let rec find_up depth dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up (depth - 1) (Filename.dirname dir) rel

let jobs =
  (* floor "max" at 2 so the parallel evaluation path is exercised even
     on a single-core machine *)
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
  | None -> max 2 (Domain.recommended_domain_count ())

let budget =
  match
    Option.bind (Sys.getenv_opt "COGG_GUIDED_BUDGET") int_of_string_opt
  with
  | Some n when n > 0 -> n
  | _ -> 512

let tables =
  let rel = "specs/amdahl470.cgg" in
  let path =
    match find_up 6 (Sys.getcwd ()) rel with
    | Some p -> p
    | None -> fail "cannot locate %s from %s" rel (Sys.getcwd ())
  in
  match Cogg.Cogg_build.build_file path with
  | Ok t -> t
  | Error es ->
      fail "amdahl470.cgg failed to build: %s"
        (String.concat "; "
           (List.map (Fmt.str "%a" Cogg.Cogg_build.pp_error) es))

let seed = 11

let guided ~jobs =
  Fuzz.Runner.run tables
    {
      Fuzz.Runner.default_config with
      seed;
      budget;
      schedule = Fuzz.Runner.Guided;
      oracles = false;
      jobs;
    }

let kept_lines (r : Fuzz.Runner.report) =
  List.map
    (fun (k : Fuzz.Runner.kept) ->
      Fuzz.Runner.replay_line k.Fuzz.Runner.k_lineage)
    r.Fuzz.Runner.r_kept

(* seed 11 at the default 512-case budget *)
let pin_guided_kept = 325
let pin_guided_prods = 115
let pin_guided_bigrams = 2413
let pin_guided_map = "e3ec455bb336ca470d55e8eac340a1a8"
let pin_guided_lines = "fe1a7b2d75b5b3b9cf4de83d343a9580"
let pin_uniform_bigrams = 2204
let pin_uniform_map = "b6ebcb7b297b1444f52707351d391c63"

let check_pins name (r : Fuzz.Runner.report) =
  let c = r.Fuzz.Runner.r_covmap in
  let lines =
    Digest.to_hex (Digest.string (String.concat "\n" (kept_lines r)))
  in
  let got =
    ( List.length r.Fuzz.Runner.r_kept,
      Fuzz.Covmap.prods_covered c,
      Fuzz.Covmap.bigrams_covered c,
      Fuzz.Covmap.digest c,
      lines )
  in
  if
    got
    <> ( pin_guided_kept,
         pin_guided_prods,
         pin_guided_bigrams,
         pin_guided_map,
         pin_guided_lines )
  then
    let k, p, b, m, l = got in
    fail
      "%s: %d kept, %d productions, %d bigrams, map %s, kept lines %s; pinned \
       %d, %d, %d, %s, %s"
      name k p b m l pin_guided_kept pin_guided_prods pin_guided_bigrams
      pin_guided_map pin_guided_lines

let () =
  (* 1: guided strictly beats uniform on bigrams at the same budget *)
  let g = guided ~jobs in
  let gc = g.Fuzz.Runner.r_covmap in
  let rc =
    (Fuzz.Runner.run tables
       { Fuzz.Runner.default_config with seed; budget; oracles = false })
      .Fuzz.Runner.r_covmap
  in
  Printf.printf
    "guided:  %d cases, %d kept, %d productions, %d bigrams\n%!"
    g.Fuzz.Runner.r_cases
    (List.length g.Fuzz.Runner.r_kept)
    (Fuzz.Covmap.prods_covered gc)
    (Fuzz.Covmap.bigrams_covered gc);
  Printf.printf "uniform: %d cases, %d productions, %d bigrams\n%!" budget
    (Fuzz.Covmap.prods_covered rc)
    (Fuzz.Covmap.bigrams_covered rc);
  if g.Fuzz.Runner.r_cases <> budget then
    fail "guided ran %d cases, wanted the exact %d budget"
      g.Fuzz.Runner.r_cases budget;
  if not (Fuzz.Covmap.bigrams_covered gc > Fuzz.Covmap.bigrams_covered rc)
  then
    fail "guided bigram coverage %d not strictly above uniform %d at %d cases"
      (Fuzz.Covmap.bigrams_covered gc)
      (Fuzz.Covmap.bigrams_covered rc)
      budget;
  if Fuzz.Covmap.prods_covered gc < Fuzz.Covmap.prods_covered rc then
    fail "guided production coverage %d below uniform %d"
      (Fuzz.Covmap.prods_covered gc)
      (Fuzz.Covmap.prods_covered rc);
  (* 2: same seed -> identical pool + map at -j1 vs -jN *)
  let g1 = guided ~jobs:1 in
  if kept_lines g <> kept_lines g1 then
    fail "kept-seed pool diverges between -j%d and -j1 (%d vs %d seeds)" jobs
      (List.length g.Fuzz.Runner.r_kept)
      (List.length g1.Fuzz.Runner.r_kept);
  if not (Fuzz.Covmap.equal gc g1.Fuzz.Runner.r_covmap) then
    fail "coverage map diverges between -j%d and -j1 (%s vs %s)" jobs
      (Fuzz.Covmap.digest gc)
      (Fuzz.Covmap.digest g1.Fuzz.Runner.r_covmap);
  (* 3: every kept seed's lineage reconstructs the exact input bytes *)
  List.iter
    (fun (k : Fuzz.Runner.kept) ->
      let line = Fuzz.Runner.replay_line k.Fuzz.Runner.k_lineage in
      match Fuzz.Runner.parse_replay line with
      | Error m -> fail "kept seed %s does not parse back: %s" line m
      | Ok l ->
          if
            Fuzz.Runner.render_input (Fuzz.Runner.input_of_lineage l)
            <> Fuzz.Runner.render_input k.Fuzz.Runner.k_input
          then fail "kept seed %s does not replay to the same bytes" line)
    g.Fuzz.Runner.r_kept;
  (* 4: the recorded coverage of both schedules *)
  if budget = 512 then begin
    check_pins (Printf.sprintf "guided at -j%d" jobs) g;
    check_pins "guided at -j1" g1;
    if
      (Fuzz.Covmap.bigrams_covered rc, Fuzz.Covmap.digest rc)
      <> (pin_uniform_bigrams, pin_uniform_map)
    then
      fail "uniform: %d bigrams, map %s; pinned %d, %s"
        (Fuzz.Covmap.bigrams_covered rc)
        (Fuzz.Covmap.digest rc) pin_uniform_bigrams pin_uniform_map
  end;
  Printf.printf
    "guided: deterministic at -j1/-j%d (map %s), %d kept lineages replay \
     byte-identically\n"
    jobs (Fuzz.Covmap.digest gc)
    (List.length g.Fuzz.Runner.r_kept)
