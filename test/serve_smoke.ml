(* The serve smoke gate (`dune build @serve-smoke`, folded into
   `dune runtest`): start the shipped `pasc serve` (serve_smoke PASC
   SPEC) on a throwaway socket and a private table cache, drive the
   example corpus through it cold and warm, and hold the service to the
   repo's standing batch-fingerprint invariant — the served bytes must
   digest to exactly what `Pipeline.Batch.compile_all` has produced
   since PR 2.  COGG_JOBS sizes the daemon's pool. *)

let expected_fingerprint = "d522ac078361a58b19cef0d83e2260c8"

let jobs () =
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

let connect_retry sock =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Serve.Client.connect sock with
    | Ok c -> c
    | Error m ->
        if Unix.gettimeofday () > deadline then
          failwith ("daemon did not come up: " ^ m)
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let () =
  let status = ref 0 in
  let flunk fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("serve_smoke: " ^ m);
        status := 1)
      fmt
  in
  let pasc = Sys.argv.(1) and spec = Sys.argv.(2) in
  let sock = Filename.temp_file "serve-smoke" ".sock" in
  Sys.remove sock;
  let cache = Filename.temp_dir "serve-smoke-cache" "" in
  let argv =
    [| pasc; "serve"; "--socket"; sock; "--spec"; spec; "-j";
       string_of_int (jobs ()) |]
  in
  (* the first definition of a variable is the one getenv finds *)
  let env =
    Array.append [| "COGG_CACHE_DIR=" ^ cache |] (Unix.environment ())
  in
  let pid =
    Unix.create_process_env pasc argv env Unix.stdin Unix.stdout Unix.stderr
  in
  let checks () =
    let c = connect_retry sock in
    (* the 32-job bench batch: the example corpus cycled, exactly what
       the standing fingerprint digests (names play no part) *)
    let corpus = Array.of_list (List.map snd Pipeline.Programs.all) in
    let srcs = Array.init 32 (fun i -> corpus.(i mod Array.length corpus)) in
    let pass label expect_cached =
      match Serve.Client.compile_batch c srcs with
      | Error m -> flunk "%s batch failed: %s" label m
      | Ok replies ->
          Array.iteri
            (fun i r ->
              match r with
              | Serve.Wire.Compiled { cached; _ } ->
                  if cached <> expect_cached then
                    flunk "%s reply %d cached=%b, wanted %b" label i cached
                      expect_cached
              | _ -> flunk "%s reply %d is not a compile" label i)
            replies;
          let fp = Serve.Wire.fingerprint replies in
          if fp <> expected_fingerprint then
            flunk "%s fingerprint drifted: %s (want %s)" label fp
              expected_fingerprint
    in
    pass "cold" false;
    pass "warm" true;
    (match Serve.Client.stats c with
    | Error m -> flunk "stats failed: %s" m
    | Ok text ->
        let want = Printf.sprintf "pool_size %d" (jobs ()) in
        if not (List.mem want (String.split_on_char '\n' text)) then
          flunk "COGG_JOBS not respected, wanted %S in:\n%s" want text);
    Serve.Client.close c
  in
  (try checks ()
   with e -> flunk "unexpected exception: %s" (Printexc.to_string e));
  (match Serve.Client.connect sock with
  | Ok c ->
      ignore (Serve.Client.shutdown c);
      Serve.Client.close c
  | Error _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] pid);
  if Sys.file_exists sock then Sys.remove sock;
  Array.iter
    (fun f -> Sys.remove (Filename.concat cache f))
    (Sys.readdir cache);
  Sys.rmdir cache;
  if !status = 0 then
    print_endline
      ("serve-smoke: corpus fingerprint " ^ expected_fingerprint
     ^ " served cold and warm");
  exit !status
