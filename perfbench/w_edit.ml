(* The [spec-edit] workload: the spec author's loop, one [pasc compile
   --spec EDITED check.pas --run] process per operation.  Within a pass,
   seeded single-production edits accumulate on specs/amdahl470.cgg:
   three in four are template tweaks (a [modifies] line duplicated; the
   automaton is spliced from the previous build), one in four
   duplicates a production (a fresh LR(0)/SLR build and comb packing).
   Each pass restarts from the base spec under a new [*] comment line,
   rebuilt untimed, so every operation is a cache miss whose difference
   from the previous build is exactly its own edit, and every pass does
   the same work.  Spec_parse, Cogg_build, Tables_io and Tables_cache do
   most of the work here and none in the other two workloads. *)

open Common

type kind = Tweak | Duplicate

let lines_of text = Array.of_list (String.split_on_char '\n' text)
let text_of lines = String.concat "\n" (Array.to_list lines)

let is_header line =
  String.length line > 0
  && (not (List.mem line.[0] [ ' '; '\t'; '*'; '$' ]))
  &&
  let rec has i =
    i + 3 <= String.length line && (String.sub line i 3 = "::=" || has (i + 1))
  in
  has 0

(* A tweak duplicates the [pick mod n]-th [modifies] line of the current
   text; a duplicate appends a copy of the [pick]-th production block
   (duplicates land after every original header, so ordinals below the
   base spec's header count always name an original block). *)
let apply kind pick text =
  let ls = lines_of text in
  let n = Array.length ls in
  match kind with
  | Tweak ->
      let cands =
        List.filter
          (fun i ->
            let t = String.trim ls.(i) in
            String.length t > 9 && String.sub t 0 9 = "modifies ")
          (List.init n Fun.id)
      in
      let i = List.nth cands (pick mod List.length cands) in
      text_of
        (Array.concat [ Array.sub ls 0 (i + 1); [| ls.(i) |]; Array.sub ls (i + 1) (n - i - 1) ])
  | Duplicate ->
      let headers = List.filter (fun i -> is_header ls.(i)) (List.init n Fun.id) in
      let start = List.nth headers pick in
      let rec stop i = if i >= n || is_header ls.(i) then i else stop (i + 1) in
      let block = Array.sub ls start (stop (start + 1) - start) in
      text_of (Array.append ls block)

(* The edit sequence of one pass.  The seed picks the order of the
   kinds, the tweaked lines and the order of the duplicates; the
   duplicated productions are evenly spaced through the base spec, so
   every seed ends its pass on a grammar of the same size and the cost
   of the shape rebuilds does not hinge on which productions were drawn. *)
let edits ctx base =
  let st = rng ctx 5 in
  let tweaks, dups = if ctx.smoke then (6, 2) else (75, 25) in
  let kinds =
    shuffle st (Array.append (Array.make tweaks Tweak) (Array.make dups Duplicate))
  in
  let n_headers = Array.length (Array.of_seq (Seq.filter is_header (Array.to_seq (lines_of base)))) in
  let dup_picks = shuffle st (Array.init dups (fun k -> k * n_headers / dups)) in
  let next_dup = ref 0 in
  Array.map
    (fun k ->
      match k with
      | Tweak -> (k, Random.State.bits st)
      | Duplicate ->
          incr next_dup;
          (k, dup_picks.(!next_dup - 1)))
    kinds

(* the texts of pass [p]: base under a per-pass comment, then each edit *)
let texts base p (eds : (kind * int) array) =
  let t0 = Printf.sprintf "* perfbench pass %d\n%s" p base in
  let cur = ref t0 in
  (t0, Array.map (fun (k, pick) -> cur := apply k pick !cur; !cur) eds)

let check_prog pool =
  match Array.find_opt (fun p -> p.name = "std-appendix1-equation") pool with
  | Some p -> p
  | None -> pool.(0)

let edit_spec ctx = Filename.concat ctx.tmp "edited.cgg"

let op_args ctx (check : prog) =
  [| "pasc"; "compile"; "-j"; "1"; "--spec"; edit_spec ctx; check.path; "--run" |]

(* For a seeded sample of edits: the bundle the cache stored for the
   edited text (built incrementally) must be byte-identical to a scratch
   build of the same text. *)
let check_bundle ctx text =
  let path = Cogg.Tables_cache.entry_path ~cache_dir:ctx.cache text in
  match (Sys.file_exists path, Cogg.Cogg_build.build_string text) with
  | false, _ -> complain "no cache entry stored for an edited spec"
  | true, Error _ -> complain "scratch build of an edited spec failed"
  | true, Ok t ->
      if read_file path <> Cogg.Tables_io.write t then
        complain "incremental bundle differs from the scratch build"

let process_passes ctx ~base ~eds ~check ~expect npass : timed =
  let n = Array.length eds in
  let wall = Array.make_matrix npass n 0. and cpu = Array.make_matrix npass n 0. in
  let good = Array.make n true and peak = ref 0 in
  let scratch = Filename.concat ctx.tmp "out.txt" in
  let sample =
    let st = rng ctx 6 in
    List.init 4 (fun _ -> Random.State.int st n)
  in
  let step ~p ~timed text =
    write_file (edit_spec ctx) text;
    let o, out =
      Proc.run_capture ~cache:ctx.cache ~timeout:60. ~scratch ctx.pasc (op_args ctx check)
    in
    peak := max !peak o.Proc.maxrss_kib;
    let fine = Proc.ok o && outputs_agree out expect in
    if Proc.ok o && not fine then complain "pass %d: check output differs from the interpreter" p;
    if timed then note_attempt fine;
    (o, fine)
  in
  for p = 0 to npass do
    (* pass 0 is the untimed warm-up; it also runs the bundle checks *)
    let t0, ts = texts base p eds in
    let o, _ = step ~p ~timed:false t0 in
    if not (Proc.ok o) then complain "pass %d: base spec rebuild exited %d" p o.Proc.code;
    Array.iteri
      (fun i text ->
        let o, fine = step ~p ~timed:true text in
        if p = 0 && List.mem i sample then check_bundle ctx text;
        if p > 0 then begin
          wall.(p - 1).(i) <- o.Proc.wall_s;
          cpu.(p - 1).(i) <- o.Proc.cpu_s;
          if not fine then good.(i) <- false
        end)
      ts
  done;
  { wall; cpu; good; peak_kib = !peak }

(* -- the traced run ---------------------------------------------------------- *)

exception Build_failed

(* The miss path of Tables_cache.build_text, call by call: follow the
   lineage pointer, load the previous bundle, parse the edited spec,
   rebuild incrementally, serialize and store.  [tables_cache] is what
   remains: key digests, file I/O, lineage and pruning. *)
let traced_build sp ids ~cache_dir text =
  let s name f = Spans.span sp (Hashtbl.find ids name) f in
  s "tables_cache" (fun () ->
      let path = Cogg.Tables_cache.entry_path ~cache_dir text in
      let lpath = Cogg.Tables_cache.lineage_path ~cache_dir () in
      let prev_bytes =
        read_file (Filename.concat cache_dir (String.trim (read_file lpath)))
      in
      let prev = s "tables_io.read" (fun () -> Cogg.Tables_io.read prev_bytes) in
      let spec =
        match s "spec_parse" (fun () -> Cogg.Spec_parse.of_string text) with
        | Ok spec -> spec
        | Error _ -> raise Build_failed
      in
      let t, st =
        match
          s "cogg_build" (fun () ->
              Cogg.Cogg_build.build_incremental ~previous:prev spec)
        with
        | Ok r -> r
        | Error _ -> raise Build_failed
      in
      let bytes = s "tables_io.write" (fun () -> Cogg.Tables_io.write t) in
      write_file (path ^ ".tmp") bytes;
      Sys.rename (path ^ ".tmp") path;
      write_file (lpath ^ ".tmp") (Filename.basename path);
      Sys.rename (lpath ^ ".tmp") lpath;
      ignore (Cogg.Tables_cache.prune ~cache_dir ());
      (t, st, bytes))

let run_check tables (check : prog) =
  match Pipeline.compile tables check.source with
  | Error m -> Error m
  | Ok c -> (
      match Pipeline.execute c with
      | Error m -> Error m
      | Ok x ->
          let b = Buffer.create 64 in
          List.iter (fun v -> Printf.bprintf b "%d\n" v) x.Pipeline.written_ints;
          List.iter (fun v -> Buffer.add_string b (Fmt.str "%g\n" v)) x.Pipeline.written_reals;
          Ok (Buffer.contents b))

let layers =
  [ "tables_cache"; "tables_io.read"; "spec_parse"; "cogg_build"; "tables_io.write"; "check" ]

let trace_run ctx ~base ~eds ~check ~expect =
  let n = Array.length eds in
  let npass_proc = passes ctx ~pass_s:6.0 ~min:2 in
  let npass_in = passes ctx ~pass_s:6.0 ~min:2 in
  let proc = process_passes ctx ~base ~eds ~check ~expect npass_proc in
  let sp = Spans.create () in
  let ids = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace ids l (Spans.intern sp l)) ("op" :: layers);
  let root = Hashtbl.find ids "op" in
  let tcache = Filename.concat ctx.tmp "tcache" and ucache = Filename.concat ctx.tmp "ucache" in
  List.iter (fun d -> ignore (load_tables ~cache_dir:d)) [ tcache; ucache ];
  let good = Array.copy proc.good in
  let untraced = Array.make_matrix npass_in n 0. in
  let recompiled = ref 0 and reused = ref 0 and bundle = ref 0 in
  let one_pass p ~traced =
    let cache_dir = if traced then tcache else ucache in
    let t0, ts = texts base (npass_proc + p) eds in
    ignore (Cogg.Tables_cache.build_text ~cache_dir t0);
    Array.iteri
      (fun i text ->
        if traced then begin
          sp.Spans.cur_op <- (p * n) + i;
          match
            Spans.span sp root (fun () ->
                let t, st, bytes = traced_build sp ids ~cache_dir text in
                let out =
                  Spans.span sp (Hashtbl.find ids "check") (fun () -> run_check t check)
                in
                (st, bytes, out))
          with
          | st, bytes, out ->
              (match out with
              | Ok o when outputs_agree o expect -> ()
              | _ -> complain "traced edit %d: check output differs from the interpreter" i);
              (* fidelity: the process run stored the same bytes for the
                 same text, when its entry is still cached *)
              let path = Cogg.Tables_cache.entry_path ~cache_dir:ctx.cache text in
              if Sys.file_exists path && read_file path <> bytes then
                complain "traced edit %d: bundle differs from pasc's" i;
              if p = npass_in - 1 then begin
                recompiled := !recompiled + st.Cogg.Cogg_build.templates_recompiled;
                reused := !reused + st.Cogg.Cogg_build.templates_reused;
                bundle := !bundle + String.length bytes
              end
          | exception Build_failed ->
              good.(i) <- false;
              complain "traced edit %d: build failed" i
        end
        else begin
          let t0 = Proc.now_ns () in
          (match Cogg.Tables_cache.build_text ~cache_dir text with
          | Ok (t, _) -> ignore (run_check t check)
          | Error _ -> ());
          untraced.(p).(i) <- float_of_int (Proc.now_ns () - t0) *. 1e-9
        end)
      ts
  in
  for p = 0 to npass_in - 1 do
    one_pass p ~traced:true;
    one_pass p ~traced:false
  done;
  let self_ms, _, traced_ms = Spans.layers sp ~n ~npass:npass_in ~keep:good layers in
  (* cogg_build split by edit kind *)
  let build_ms kind =
    let keep = Array.mapi (fun i g -> g && fst eds.(i) = kind) good in
    let ms, _, _ = Spans.layers sp ~n ~npass:npass_in ~keep [ "cogg_build" ] in
    List.assoc "cogg_build" ms
  in
  let untraced_ms = 1e3 *. mean (select good (fastest untraced)) in
  let process_ms = 1e3 *. mean (select good (fastest proc.wall)) in
  mkdir_p ".bench_out";
  Spans.write sp ".bench_out/spans-spec-edit.tsv";
  let layer l = List.assoc l self_ms in
  [
    ("other.self_ms", process_ms -. List.fold_left (fun a (_, v) -> a +. v) 0. self_ms);
    ("trace.overhead_ms", traced_ms -. untraced_ms);
    ("tables_cache.self_ms", layer "tables_cache");
    ("tables_io.read_ms", layer "tables_io.read");
    ("tables_io.write_ms", layer "tables_io.write");
    ("spec_parse.self_ms", layer "spec_parse");
    ("check.self_ms", layer "check");
    ("cogg_build.splice_ms", build_ms Tweak);
    ("cogg_build.shape_ms", build_ms Duplicate);
    ("cogg_build.templates_recompiled", float_of_int !recompiled);
    ( "cogg_build.reuse_ratio",
      float_of_int !reused /. Float.max 1. (float_of_int (!reused + !recompiled)) );
    ("tables_io.bundle_bytes", float_of_int !bundle);
  ]

let run ctx ~trace =
  let pool = load_pool () in
  let setup_s = W_compile.cold_setup ctx pool ~reps:(if ctx.smoke then 1 else 10) in
  let tables = load_tables ~cache_dir:ctx.cache in
  let base = read_file spec_path in
  let check = check_prog pool in
  let expect =
    match interp_output check.source with
    | Ok s -> s
    | Error m -> Fmt.failwith "check program: interpreter failed: %s" m
  in
  let eds = edits ctx base in
  if trace then (pool, `Layers (trace_run ctx ~base ~eds ~check ~expect))
  else begin
    let facts = facts tables pool in
    let t =
      process_passes ctx ~base ~eds ~check ~expect (passes ctx ~pass_s:3.0 ~min:3)
    in
    write_ops "spec-edit"
      (Array.mapi
         (fun i (k, _) -> Printf.sprintf "%d-%s" i (if k = Tweak then "tweak" else "duplicate"))
         eds)
      t.good t.wall;
    let op_s = select t.good (fastest t.wall) in
    ( pool,
      `End_to_end
        ((m "setup_s" "s" setup_s :: latency_metrics op_s)
        @ [
            m "cpu_ms_per_op" "ms" (1e3 *. mean (select t.good (fastest t.cpu)));
            m "peak_rss_mb" "MiB" (float_of_int t.peak_kib /. 1024.);
          ]
        @ size_metrics tables facts) )
  end
