(* The repository benchmark (see perfbench/README.md).

     main.exe run --pasc PASC --workload W --seed N --seconds S --trace 0|1
     main.exe smoke --pasc PASC
     main.exe freeze --seed N

   [run] measures one workload and prints every metric by name, a stamp
   line and, last, the result object.  [smoke] runs all three workloads
   at minimal length, untraced and traced, and fails unless each is
   correct.  [freeze] writes the program pool once; it is checked in, so
   later changes to the generator cannot change the inputs. *)

open Common

(* The per-layer metrics of the traced run, with units.  Every traced
   run reports all of them; a layer the workload's operations never
   enter reads 0. *)
let per_layer =
  [
    ("other.self_ms", "ms"); ("trace.overhead_ms", "ms");
    ("tables_load.self_ms", "ms");
    ("front_end.self_ms", "ms"); ("front_end.minor_words", "words");
    ("shape.self_ms", "ms"); ("shape.minor_words", "words");
    ("shape.if_tokens", "tokens");
    ("cse_opt.self_ms", "ms"); ("cse_opt.minor_words", "words");
    ("cse_opt.if_tokens", "tokens");
    ("linearize.self_ms", "ms");
    ("driver.self_ms", "ms"); ("driver.shifts", "count");
    ("driver.reductions", "count");
    ("emit.self_ms", "ms"); ("emit.minor_words", "words");
    ("emit.insns", "count"); ("emit.spills", "count");
    ("emit.transfers", "count");
    ("loader.self_ms", "ms"); ("loader.sites", "count");
    ("loader.long_branches", "count"); ("loader.iterations", "count");
    ("listing.self_ms", "ms"); ("listing.bytes", "bytes");
    ("client.hit_batch_ms", "ms"); ("client.miss_batch_ms", "ms");
    ("client.reply_bytes", "bytes");
    ("server.hit_ratio", "ratio"); ("server.compiles", "count");
    ("server.verified_hits", "count"); ("server.overloaded", "count");
    ("server.evictions", "count");
    ("spec_parse.self_ms", "ms");
    ("cogg_build.splice_ms", "ms"); ("cogg_build.shape_ms", "ms");
    ("cogg_build.templates_recompiled", "count");
    ("cogg_build.reuse_ratio", "ratio");
    ("tables_io.write_ms", "ms"); ("tables_io.read_ms", "ms");
    ("tables_io.bundle_bytes", "bytes");
    ("tables_cache.self_ms", "ms");
    ("check.self_ms", "ms");
  ]

let workloads = [ "compile"; "serve"; "spec-edit" ]

let run_workload ctx workload ~trace =
  let pool, result =
    match workload with
    | "compile" -> W_compile.run ctx ~trace
    | "serve" -> W_serve.run ctx ~trace
    | "spec-edit" -> W_edit.run ctx ~trace
    | w -> Fmt.failwith "unknown workload %s" w
  in
  let metrics =
    match result with
    | `End_to_end ms -> ms
    | `Layers pairs ->
        List.map
          (fun (name, unit_) ->
            m name unit_ (Option.value (List.assoc_opt name pairs) ~default:0.))
          per_layer
  in
  report ctx ~workload ~trace ~pool metrics

(* the cleanup every exit path runs: no child outlives the run, and the
   private directory goes away *)
let with_ctx ctx f =
  let cleanup () =
    (try W_serve.kill_daemons () with _ -> ());
    Proc.stop_spawner ();
    rm_rf ctx.tmp
  in
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  f ()

let usage () =
  prerr_endline
    "usage: main.exe run --pasc PASC --workload compile|serve|spec-edit \
     --seed N --seconds S --trace 0|1\n\
    \       main.exe smoke --pasc PASC\n\
    \       main.exe freeze --seed N";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let get o k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int_of o k =
    match int_of_string_opt (get o k) with Some n -> n | None -> usage ()
  in
  match args with
  | [ "spawner" ] -> Proc.spawner_main ()
  | "freeze" :: rest -> Freeze.write ~seed:(int_of (opts [] rest) "seed")
  | "run" :: rest ->
      Proc.start_spawner ();
      let o = opts [] rest in
      let workload = get o "workload" in
      if not (List.mem workload workloads) then usage ();
      let trace =
        match get o "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let ctx =
        make_ctx ~pasc:(get o "pasc") ~seed:(int_of o "seed")
          ~seconds:(float_of_int (int_of o "seconds"))
          ~smoke:false ~workload
      in
      with_ctx ctx (fun () -> run_workload ctx workload ~trace)
  | "smoke" :: rest ->
      Proc.start_spawner ();
      let o = opts [] rest in
      List.iter
        (fun workload ->
          List.iter
            (fun trace ->
              let ctx =
                make_ctx ~pasc:(get o "pasc") ~seed:1 ~seconds:1. ~smoke:true
                  ~workload
              in
              attempted := 0;
              failed := 0;
              with_ctx ctx (fun () -> run_workload ctx workload ~trace);
              W_serve.kill_daemons ();
              rm_rf ctx.tmp)
            [ false; true ])
        workloads;
      if !wrong > 0 then begin
        Fmt.epr "smoke: %d check(s) failed@." !wrong;
        exit 1
      end
  | _ -> usage ()
