(* The observability layer: Metrics counters merge across pool domains,
   tracing produces balanced, well-formed Chrome trace JSON, everything
   is a no-op when disabled, and the counter aggregates of a batch are
   identical whether it runs sequentially or fanned over a pool.

   COGG_JOBS overrides the worker count, as in test_batch.ml. *)

let jobs () =
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

let tables () = Lazy.force Util.amdahl_tables

(* every test leaves both subsystems disabled and zeroed, pass or fail *)
let with_observability ?(metrics = false) ?(trace = false) f =
  Cogg.Metrics.reset ();
  Cogg.Trace.clear ();
  Cogg.Metrics.set_enabled metrics;
  Cogg.Trace.set_enabled trace;
  Fun.protect
    ~finally:(fun () ->
      Cogg.Metrics.set_enabled false;
      Cogg.Trace.set_enabled false;
      Cogg.Metrics.reset ();
      Cogg.Trace.clear ())
    f

let c_sum = Cogg.Metrics.sum "test.trace.sum"
let c_peak = Cogg.Metrics.high_water "test.trace.peak"

let test_disabled_is_noop () =
  with_observability (fun () ->
      Cogg.Metrics.add c_sum 41;
      Cogg.Metrics.peak c_peak 41;
      let rows = Cogg.Metrics.snapshot () in
      Alcotest.(check int) "sum stays zero" 0 (List.assoc "test.trace.sum" rows);
      Alcotest.(check int) "peak stays zero" 0
        (List.assoc "test.trace.peak" rows);
      let r = Cogg.Trace.with_span "noop" (fun () -> 7) in
      Cogg.Trace.instant "nothing";
      Alcotest.(check int) "with_span still runs f" 7 r;
      Alcotest.(check int) "no events recorded" 0 (Cogg.Trace.event_count ()))

let test_counters_merge_across_domains () =
  with_observability ~metrics:true (fun () ->
      let n = 500 in
      Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
          ignore
            (Cogg.Pool.map pool
               (fun i ->
                 Cogg.Metrics.add c_sum 1;
                 Cogg.Metrics.peak c_peak i;
                 i)
               (Array.init n Fun.id)));
      (* the pool has joined: per-domain buffers outlive their domains and
         the snapshot must see every worker's contribution *)
      let rows = Cogg.Metrics.snapshot () in
      Alcotest.(check int) "sums add across domains" n
        (List.assoc "test.trace.sum" rows);
      Alcotest.(check int) "high-water merges by max" (n - 1)
        (List.assoc "test.trace.peak" rows))

let corpus_batch () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       Pipeline.Programs.all)

(* phase.*.us rows are wall-clock sums; everything else counts work done
   and must not depend on scheduling *)
let deterministic rows =
  List.filter
    (fun (name, _) ->
      not (String.length name >= 6 && String.sub name 0 6 = "phase."))
    rows

let test_batch_counters_independent_of_jobs () =
  let t = tables () in
  let b = corpus_batch () in
  let run ?pool () =
    with_observability ~metrics:true (fun () ->
        ignore (Pipeline.Batch.compile_all ?pool t b);
        deterministic (Cogg.Metrics.snapshot ()))
  in
  let seq = run () in
  let par = Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool -> run ~pool ()) in
  Alcotest.(check bool)
    "the batch did real work" true
    (List.assoc "driver.shifts" seq > 0);
  Alcotest.(check (list (pair string int)))
    "counters identical sequentially and under -j N" seq par

let find_event events name =
  match
    List.find_opt (fun (e : Cogg.Trace.event) -> e.Cogg.Trace.ev_name = name)
      events
  with
  | Some e -> e
  | None -> Alcotest.failf "expected a %S span" name

let test_spans_balanced_and_nested () =
  let t = tables () in
  with_observability ~metrics:true ~trace:true (fun () ->
      let b =
        [| { Pipeline.Batch.name = "gcd"; source = Pipeline.Programs.gcd } |]
      in
      (match (Pipeline.Batch.compile_all t b).(0) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let events = Cogg.Trace.events () in
      Alcotest.(check bool) "events recorded" true (events <> []);
      List.iter
        (fun (e : Cogg.Trace.event) ->
          Alcotest.(check bool) "every event is a span or an instant" true
            (e.Cogg.Trace.ev_ph = 'X' || e.Cogg.Trace.ev_ph = 'i');
          Alcotest.(check bool) "durations are non-negative" true
            (e.Cogg.Trace.ev_dur >= 0.0))
        events;
      (* the per-program span must contain every pipeline phase span *)
      let compile = find_event events "compile" in
      List.iter
        (fun name ->
          let e = find_event events name in
          Alcotest.(check bool) (name ^ " nested inside compile") true
            (e.Cogg.Trace.ev_ts >= compile.Cogg.Trace.ev_ts -. 0.5
            && e.Cogg.Trace.ev_ts +. e.Cogg.Trace.ev_dur
               <= compile.Cogg.Trace.ev_ts +. compile.Cogg.Trace.ev_dur +. 0.5))
        [ "front_end"; "shape"; "linearize"; "codegen" ];
      (* with metrics on, the same spans feed the phase timing counters *)
      Alcotest.(check bool) "spans feed phase.*.us counters" true
        (List.mem_assoc "phase.codegen.us" (Cogg.Metrics.snapshot ())))

(* -- table-build spans -------------------------------------------------------- *)

(* What a cold cache miss builds, stage by stage, and writes. *)
let build_phases =
  [
    "spec_parse";
    "cogg_build.lr0";
    "cogg_build.parse_table";
    "cogg_build.compress";
    "cogg_build.templates";
    "cogg_build.spec_hash";
    "tables_io.write";
  ]

let span_names () =
  List.filter_map
    (fun (e : Cogg.Trace.event) ->
      if e.Cogg.Trace.ev_ph = 'X' then Some e.Cogg.Trace.ev_name else None)
    (Cogg.Trace.events ())

let phase_rows () =
  List.filter
    (fun (name, v) -> v <> 0 && String.starts_with ~prefix:"phase." name)
    (Cogg.Metrics.snapshot ())

(* Codegen.generate times the loader and the listing under the layer
   names perfbench uses, so [pasc compile --stats] prints
   phase.loader.us and phase.listing.us; untraced, it records nothing. *)
let test_codegen_layer_spans () =
  let compile () =
    match
      Pipeline.compile (tables ()) Pipeline.Programs.appendix1_equation
    with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  in
  let layers = [ "loader"; "listing" ] in
  with_observability ~metrics:true ~trace:true (fun () ->
      compile ();
      let events = Cogg.Trace.events () in
      let codegen = find_event events "codegen" in
      List.iter
        (fun name ->
          let e = find_event events name in
          Alcotest.(check bool) (name ^ " nested inside codegen") true
            (e.Cogg.Trace.ev_ts >= codegen.Cogg.Trace.ev_ts -. 0.5
            && e.Cogg.Trace.ev_ts +. e.Cogg.Trace.ev_dur
               <= codegen.Cogg.Trace.ev_ts +. codegen.Cogg.Trace.ev_dur +. 0.5);
          Alcotest.(check bool) ("phase." ^ name ^ ".us counted") true
            (List.mem_assoc ("phase." ^ name ^ ".us") (Cogg.Metrics.snapshot ())))
        layers);
  with_observability (fun () ->
      compile ();
      Alcotest.(check int) "no events recorded" 0 (Cogg.Trace.event_count ());
      Alcotest.(check (list (pair string int)))
        "no phase time accumulated" [] (phase_rows ()))

(* [with_cache f] runs [f build] on a private cache that starts empty
   and is removed afterwards; [build ()] builds amdahl470 through it and
   returns the origin. *)
let with_cache f =
  let text =
    In_channel.with_open_bin (Util.spec_path "amdahl470.cgg")
      In_channel.input_all
  in
  let dir = Filename.temp_file "test-trace-cache" "" in
  Sys.remove dir;
  let build () =
    match Cogg.Tables_cache.build_text ~cache_dir:dir text with
    | Ok (_, origin) -> origin
    | Error _ -> Alcotest.fail "amdahl470.cgg failed to build"
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n -> Sys.remove (Filename.concat dir n))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f build)

let is_origin what expected got =
  Alcotest.(check bool) what true (got = expected)

let test_table_build_spans () =
  with_cache (fun build ->
      with_observability ~metrics:true ~trace:true (fun () ->
          is_origin "first build is a miss" Cogg.Tables_cache.Built (build ());
          let names = span_names () in
          List.iter
            (fun phase ->
              Alcotest.(check bool) (phase ^ " span on a miss") true
                (List.mem phase names);
              Alcotest.(check bool) (phase ^ " phase counter on a miss") true
                (List.mem_assoc ("phase." ^ phase ^ ".us")
                   (Cogg.Metrics.snapshot ())))
            build_phases;
          Cogg.Trace.clear ();
          is_origin "second build is a hit" Cogg.Tables_cache.Cache_hit
            (build ());
          let names = span_names () in
          Alcotest.(check bool) "tables_io.read span on a hit" true
            (List.mem "tables_io.read" names);
          List.iter
            (fun n ->
              if n = "spec_parse" || String.starts_with ~prefix:"cogg_build." n
              then Alcotest.failf "a hit recorded the build phase %s" n)
            names))

let test_table_build_untraced () =
  with_cache (fun build ->
      with_observability (fun () ->
          is_origin "a miss" Cogg.Tables_cache.Built (build ());
          is_origin "a hit" Cogg.Tables_cache.Cache_hit (build ());
          Alcotest.(check int) "no events recorded" 0
            (Cogg.Trace.event_count ());
          Alcotest.(check (list (pair string int)))
            "no phase time accumulated" [] (phase_rows ())))

(* A miniature JSON reader, enough to validate what Trace.to_json_string
   writes (objects, arrays, strings with escapes, numbers, literals).
   Raises [Exit] on the first malformed byte. *)
let json_validate (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if peek () = Some c then incr pos else raise Exit in
  let lit w =
    let k = String.length w in
    if !pos + k <= n && String.sub s !pos k = w then pos := !pos + k
    else raise Exit
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then raise Exit
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      if !pos >= n then raise Exit;
      (match s.[!pos] with
      | '"' -> fin := true
      | '\\' -> incr pos (* skip the escaped character *)
      | _ -> ());
      incr pos
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Exit
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let fin = ref false in
      while not !fin do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            fin := true
        | _ -> raise Exit
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            fin := true
        | _ -> raise Exit
      done
  in
  value ();
  skip_ws ();
  if !pos <> n then raise Exit

let test_json_well_formed () =
  let t = tables () in
  with_observability ~metrics:true ~trace:true (fun () ->
      let b = corpus_batch () in
      Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
          ignore (Pipeline.Batch.compile_all ~pool t b));
      let json = Cogg.Trace.to_json_string () in
      Alcotest.(check bool) "has the traceEvents envelope" true
        (Util.contains json "\"traceEvents\"");
      (match json_validate json with
      | () -> ()
      | exception Exit -> Alcotest.fail "trace JSON is malformed");
      (* one JSON record per recorded event *)
      Alcotest.(check bool) "all domains contributed events" true
        (Cogg.Trace.event_count () >= Array.length b))

let test_explanation_aligned () =
  let t = tables () in
  (match Pipeline.compile t Pipeline.Programs.gcd with
  | Error m -> Alcotest.fail m
  | Ok c ->
      Alcotest.(check bool) "no explanation unless requested" true
        (c.Pipeline.gen.Cogg.Codegen.explanation = None));
  match Pipeline.compile ~explain:true t Pipeline.Programs.gcd with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match c.Pipeline.gen.Cogg.Codegen.explanation with
      | None -> Alcotest.fail "explanation missing under ~explain:true"
      | Some s ->
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' s)
          in
          Alcotest.(check int) "one annotation per code-buffer item"
            c.Pipeline.gen.Cogg.Codegen.n_items (List.length lines);
          List.iter
            (fun l ->
              Alcotest.(check bool) "every line carries its origin" true
                (Util.contains l " ; "))
            lines;
          Alcotest.(check bool) "directives are surfaced" true
            (Util.contains s "[using" || Util.contains s "need r"))

let () =
  Alcotest.run "trace"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "counters merge across domains" `Quick
            test_counters_merge_across_domains;
          Alcotest.test_case "batch counters independent of -j" `Quick
            test_batch_counters_independent_of_jobs;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans balanced and nested" `Quick
            test_spans_balanced_and_nested;
          Alcotest.test_case "JSON well-formed" `Quick test_json_well_formed;
          Alcotest.test_case "codegen: loader and listing spans" `Quick
            test_codegen_layer_spans;
          Alcotest.test_case "table build: a span per stage" `Quick
            test_table_build_spans;
          Alcotest.test_case "table build: silent when disabled" `Quick
            test_table_build_untraced;
        ] );
      ( "explain",
        [
          Alcotest.test_case "annotations aligned with items" `Quick
            test_explanation_aligned;
        ] );
    ]
