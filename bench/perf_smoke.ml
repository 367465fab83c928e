(* Allocation smoke test:
     dune build @perf-smoke
   runs one metered warm compile of the appendix-1 equation and fails if
   the minor-heap allocation per compile exceeds the checked-in budget
   (bench/perf_budget.txt, passed as argv.(1); one number, metered under
   the default comb dispatch).  The budget is ~1.5x the measured
   steady-state figure, so drift — a new per-token allocation, a listing
   rendered through Format again — trips it long before it shows up as
   wall-clock noise. *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let meter ~budget tables tokens =
  (* warm up (interning tables, buffer growth, code paths), then meter *)
  for _ = 1 to 10 do
    ignore (Cogg.Codegen.generate tables tokens)
  done;
  let runs = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Cogg.Codegen.generate tables tokens)
  done;
  let per_compile = (Gc.minor_words () -. w0) /. float_of_int runs in
  Fmt.pr "perf-smoke: %.0f minor words/compile (budget %.0f)@." per_compile
    budget;
  if per_compile > budget then begin
    Fmt.epr
      "perf-smoke FAILED: %.0f minor words/compile exceeds the budget of \
       %.0f (bench/perf_budget.txt); the codegen hot path is allocating \
       more than it used to@."
      per_compile budget;
    exit 1
  end

let () =
  let budget_file =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else begin
      Fmt.epr "usage: perf_smoke <budget-file>@.";
      exit 2
    end
  in
  let budget =
    let ic = open_in budget_file in
    let text = String.trim (In_channel.input_all ic) in
    close_in ic;
    match float_of_string_opt text with
    | Some b -> b
    | None ->
        Fmt.epr "%s: not a number: %S@." budget_file text;
        exit 2
  in
  let spec_file =
    match find_up (Sys.getcwd ()) "specs/amdahl470.cgg" with
    | Some p -> p
    | None ->
        Fmt.epr "cannot locate specs/amdahl470.cgg@.";
        exit 2
  in
  let tables =
    match Cogg.Cogg_build.build_file spec_file with
    | Ok t -> t
    | Error es ->
        Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
        exit 2
  in
  let tokens =
    match Pipeline.compile tables Pipeline.Programs.appendix1_equation with
    | Ok c -> c.Pipeline.tokens
    | Error m ->
        Fmt.epr "%s@." m;
        exit 2
  in
  meter ~budget tables tokens
