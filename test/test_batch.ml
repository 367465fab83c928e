(* Determinism of the parallel engine: for any batch and any worker
   count, parallel compilation must be byte-identical to sequential —
   same listings, same object bytes, same error messages in the same
   positions.

   COGG_JOBS overrides the worker count exercised here: an integer, or
   "max" for Domain.recommended_domain_count.  The default of 4 makes
   the parallel paths run real domains even on single-core machines. *)

let jobs () =
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

let tables () = Lazy.force Util.amdahl_tables

let corpus_batch () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       Pipeline.Programs.all)

let fingerprint ?pool batch =
  Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all ?pool (tables ()) batch)

let test_corpus_parallel_equals_sequential () =
  let batch = corpus_batch () in
  let seq = fingerprint batch in
  Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
      Alcotest.(check string)
        "parallel == sequential" seq
        (fingerprint ~pool batch));
  (* a pool of one must add nothing either *)
  Cogg.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check string)
        "pool of one == sequential" seq
        (fingerprint ~pool batch))

let test_corpus_parallel_equals_sequential_no_cse () =
  let batch = corpus_batch () in
  let t = tables () in
  let fp ?pool () =
    Pipeline.Batch.fingerprint
      (Pipeline.Batch.compile_all ?pool ~cse:false ~checks:true t batch)
  in
  let seq = fp () in
  Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
      Alcotest.(check string) "option flags thread through" seq (fp ~pool ()))

let test_errors_land_in_place () =
  (* broken sources exercise the Error arm: failures must carry the same
     message and stay at their own index, never poison a neighbour *)
  let good = Pipeline.Programs.gcd in
  let batch =
    [|
      { Pipeline.Batch.name = "ok0"; source = good };
      { Pipeline.Batch.name = "bad1"; source = "program x; begin y := end." };
      { Pipeline.Batch.name = "ok2"; source = good };
      { Pipeline.Batch.name = "bad3"; source = "not pascal at all" };
      { Pipeline.Batch.name = "ok4"; source = good };
    |]
  in
  let t = tables () in
  let seq = Pipeline.Batch.compile_all t batch in
  let par =
    Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
        Pipeline.Batch.compile_all ~pool t batch)
  in
  Array.iteri
    (fun i r ->
      match (r, par.(i)) with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (Printf.sprintf "job %d object bytes" i)
            (Pipeline.Batch.code_bytes a)
            (Pipeline.Batch.code_bytes b)
      | Error a, Error b ->
          Alcotest.(check string) (Printf.sprintf "job %d error" i) a b
      | _ -> Alcotest.failf "job %d: Ok/Error mismatch between runs" i)
    seq;
  Alcotest.(check bool) "good jobs compiled" true (Result.is_ok seq.(0));
  Alcotest.(check bool) "bad jobs failed" true (Result.is_error seq.(1))

(* ------------------------------------------------------------------ *)
(* Property: random batches                                            *)
(* ------------------------------------------------------------------ *)

(* Random batches of programs from the fuzz generators (lib/fuzz): each
   batch is a deterministic (seed, index) slice across every generation
   profile, so the property covers arrays, sets, reals, branches and
   procedure calls — not just straight-line integer code — and failures
   (register-pressure capacity errors) exercise the Error arm naturally.
   QCheck shrinking delegates to the fuzz shrinker, so a counterexample
   prints as a minimized batch instead of pages of programs. *)
let gen_programs : Pascal.Ast.program list QCheck.Gen.t =
  let open QCheck.Gen in
  map2
    (fun seed n ->
      List.init n (fun i ->
          let rng = Fuzz.Rng.derive ~seed ~index:i in
          Fuzz.Gen_pascal.program rng (Fuzz.Profile.rotate i)))
    (int_bound 1_000_000) (int_range 1 10)

let shrink_programs (ps : Pascal.Ast.program list) :
    Pascal.Ast.program list QCheck.Iter.t =
 fun yield ->
  (* drop one program, or shrink one program one step *)
  List.iteri
    (fun i _ ->
      let shorter = List.filteri (fun j _ -> j <> i) ps in
      if shorter <> [] then yield shorter)
    ps;
  List.iteri
    (fun i p ->
      Seq.iter
        (fun p' -> yield (List.mapi (fun j q -> if j = i then p' else q) ps))
        (Fuzz.Shrink.program_candidates p))
    ps

let batch_of_programs (ps : Pascal.Ast.program list) :
    Pipeline.Batch.job array =
  Array.of_list
    (List.mapi
       (fun i p ->
         {
           Pipeline.Batch.name = Printf.sprintf "rand%d" i;
           source = Fuzz.Gen_pascal.render p;
         })
       ps)

let prop_random_batches =
  QCheck.Test.make ~count:25 ~name:"random batches: parallel == sequential"
    (QCheck.make gen_programs ~shrink:shrink_programs ~print:(fun ps ->
         String.concat "\n---\n" (List.map Fuzz.Gen_pascal.render ps)))
    (fun ps ->
      let batch = batch_of_programs ps in
      let seq = fingerprint batch in
      let par =
        Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
            fingerprint ~pool batch)
      in
      if seq <> par then
        QCheck.Test.fail_reportf "fingerprints differ: %s vs %s" seq par;
      true)

let () =
  Alcotest.run "batch"
    [
      ( "determinism",
        [
          Alcotest.test_case "corpus: parallel == sequential" `Quick
            test_corpus_parallel_equals_sequential;
          Alcotest.test_case "corpus: options thread through" `Quick
            test_corpus_parallel_equals_sequential_no_cse;
          Alcotest.test_case "errors land in place" `Quick
            test_errors_land_in_place;
          QCheck_alcotest.to_alcotest prop_random_batches;
        ] );
    ]
