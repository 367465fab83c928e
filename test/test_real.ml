(* The real-workload corpus (examples/programs/*.pas): every program
   must pass all four differential oracles — exec, dispatch,
   determinism, cross-backend — on both targets, and batch compilation
   of the corpus must fingerprint identically at any worker count. *)

let jobs () =
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

let programs : (string * string) list Lazy.t = lazy (Util.example_programs ())

let check_pass name oracle st =
  match st with
  | Fuzz.Oracle.Pass -> ()
  | st ->
      Alcotest.failf "%s: %s oracle did not pass: %a" name oracle
        Fuzz.Oracle.pp_status st

(* Pass, not Skip: a real program that trips a capacity limit or is
   rejected by the front end is a corpus bug, and this test names it. *)
let oracles_on tables other (name, source) =
  check_pass name "exec" (Fuzz.Oracle.exec tables source);
  check_pass name "determinism" (Fuzz.Oracle.determinism tables source);
  check_pass name "cross" (Fuzz.Oracle.cross_backend tables other source);
  match Pipeline.compile tables source with
  | Error m -> Alcotest.failf "%s: front end rejected: %s" name m
  | Ok c -> check_pass name "dispatch" (Fuzz.Oracle.dispatch tables c.Pipeline.tokens)

let test_oracles_amdahl () =
  let t = Lazy.force Util.amdahl_tables in
  let r = Lazy.force Util.risc32_tables in
  List.iter (oracles_on t r) (Lazy.force programs)

let test_oracles_risc32 () =
  let t = Lazy.force Util.risc32_tables in
  let r = Lazy.force Util.amdahl_tables in
  List.iter (oracles_on t r) (Lazy.force programs)

let batch () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       (Lazy.force programs))

let test_batch_fingerprint_deterministic () =
  let fingerprint tables ?pool () =
    Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all ?pool tables (batch ()))
  in
  List.iter
    (fun (label, tables) ->
      let t = Lazy.force tables in
      let seq = fingerprint t () in
      Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
          Alcotest.(check string)
            (label ^ ": parallel == sequential")
            seq
            (fingerprint t ~pool ())))
    [ ("amdahl470", Util.amdahl_tables); ("risc32", Util.risc32_tables) ]

let test_corpus_nonempty () =
  let n = List.length (Lazy.force programs) in
  if n < 8 then Alcotest.failf "only %d real programs, expected at least 8" n

let () =
  Alcotest.run "real"
    [
      ( "real-corpus",
        [
          Alcotest.test_case "at least eight programs" `Quick test_corpus_nonempty;
          Alcotest.test_case "all oracles pass on amdahl470" `Slow
            test_oracles_amdahl;
          Alcotest.test_case "all oracles pass on risc32" `Slow
            test_oracles_risc32;
          Alcotest.test_case "batch fingerprint is worker-count invariant"
            `Quick test_batch_fingerprint_deterministic;
        ] );
    ]
