(* Allocation smoke test:
     dune build @perf-smoke
   meters the minor-heap allocation of two calls on the appendix-1
   equation and fails if either exceeds its checked-in budget
   (bench/perf_budget.txt, passed as argv.(1); one number per line):
     line 1: one warm table-driven compile (Cogg.Codegen.generate, comb
             dispatch), words per compile;
     line 2: the IF optimizer alone (Shaper.Cse_opt.optimize), words per
             call, on a freshly shaped program each time.
   Each budget is ~1.5x the measured steady-state figure.  Minor words
   repeat exactly from run to run, so drift — a new per-token allocation,
   a listing rendered through Format again, CSE keys built as strings —
   trips the gate long before it shows up as wall-clock noise. *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let runs = 50

(* fails the whole check if [per_call] is over [budget] *)
let check ~what ~unit ~budget per_call =
  Fmt.pr "perf-smoke: %s: %.0f minor words/%s (budget %.0f)@." what per_call
    unit budget;
  if per_call > budget then begin
    Fmt.epr
      "perf-smoke FAILED: %s allocates %.0f minor words/%s, over the budget \
       of %.0f (bench/perf_budget.txt); it is allocating more than it used \
       to@."
      what per_call unit budget;
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
let meter_cse ~budget checked =
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
  check ~what:"cse_opt" ~unit:"call" ~budget (!words /. float_of_int runs)

let () =
  let budget_file =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else begin
      Fmt.epr "usage: perf_smoke <budget-file>@.";
      exit 2
    end
  in
  let codegen_budget, cse_budget =
    let ic = open_in budget_file in
    let text = In_channel.input_all ic in
    close_in ic;
    match
      List.map float_of_string_opt
        (List.filter (( <> ) "")
           (List.map String.trim (String.split_on_char '\n' text)))
    with
    | [ Some g; Some c ] -> (g, c)
    | _ ->
        Fmt.epr "%s: expected two numbers, one per line: %S@." budget_file
          text;
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
  let compiled =
    match Pipeline.compile tables Pipeline.Programs.appendix1_equation with
    | Ok c -> c
    | Error m ->
        Fmt.epr "%s@." m;
        exit 2
  in
  let codegen_ok =
    meter_codegen ~budget:codegen_budget tables compiled.Pipeline.tokens
  in
  let cse_ok = meter_cse ~budget:cse_budget compiled.Pipeline.checked in
  if not (codegen_ok && cse_ok) then exit 1
