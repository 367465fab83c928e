(* The [compile] workload: one [pasc compile FILE] process at a time, at
   -j 1, on a warm private table cache, over the frozen pool in seeded
   order.  It is the per-file cost a user waits for: process start and
   table load are paid by every operation, and the front end, shaper,
   CSE and code generator do the rest.  Table construction and the
   daemon do no work here. *)

open Common

let compile_args ?(extra = []) (p : prog) =
  Array.of_list
    ([ "pasc"; "compile"; "-j"; "1"; "--spec"; spec_path ] @ extra @ [ p.path ])

let probe (pool : prog array) =
  match Array.find_opt (fun p -> p.name = "std-gcd") pool with
  | Some p -> p
  | None -> pool.(0)

(** [setup_s] for compile and spec-edit: a cold table build into an
    empty private cache, fastest of [reps]; the last repetition's cache
    stays as the run's warm cache. *)
let cold_setup ctx pool ~reps =
  let broken = ref false in
  let rep i =
    let dir = if i = reps then ctx.cache else Printf.sprintf "%s/cold%d" ctx.tmp i in
    rm_rf dir;
    mkdir_p dir;
    let o = Proc.run ~cache:dir ~timeout:60. ctx.pasc (compile_args (probe pool)) in
    note_attempt (Proc.ok o);
    if not (Proc.ok o) then begin
      (* a compiler that cannot build its tables ends the set-up *)
      broken := true;
      complain "cold build exited %d" o.Proc.code
    end;
    if i < reps then rm_rf dir;
    o.Proc.wall_s
  in
  fastest_of reps (fun i -> if !broken then infinity else rep i)

let schedule ctx (pool : prog array) =
  let order = shuffle (rng ctx 1) (Array.init (Array.length pool) Fun.id) in
  if ctx.smoke then Array.sub order 0 16 else order

(* Output check, once per program and outside the timed passes: the
   program's run on the simulator must print what the reference
   interpreter writes. *)
let check_outputs ctx (pool : prog array) order =
  let scratch = Filename.concat ctx.tmp "out.txt" in
  Array.iter
    (fun i ->
      let p = pool.(i) in
      let o, out =
        Proc.run_capture ~cache:ctx.cache ~timeout:60. ~scratch ctx.pasc
          (compile_args ~extra:[ "--run" ] p)
      in
      match interp_output p.source with
      | Error m ->
          note_attempt false;
          if Proc.ok o then complain "%s: compiled and ran, interpreter failed: %s" p.name m
      | Ok expect ->
          let agree = outputs_agree out expect in
          note_attempt (Proc.ok o && agree);
          if Proc.ok o && not agree then
            complain "%s: simulator output differs from the interpreter" p.name)
    order

let process_passes ctx (pool : prog array) order npass : timed =
  let n = Array.length order in
  let wall = Array.make_matrix npass n 0. and cpu = Array.make_matrix npass n 0. in
  let good = Array.make n true and peak = ref 0 in
  let pass k =
    Array.iteri
      (fun i p ->
        let o = Proc.run ~cache:ctx.cache ~timeout:30. ctx.pasc (compile_args pool.(p)) in
        note_attempt (Proc.ok o);
        peak := max !peak o.Proc.maxrss_kib;
        if k >= 0 then begin
          wall.(k).(i) <- o.Proc.wall_s;
          cpu.(k).(i) <- o.Proc.cpu_s;
          if not (Proc.ok o) then good.(i) <- false
        end)
      order
  in
  pass (-1);
  (* the warm-up pass, untimed *)
  for k = 0 to npass - 1 do
    pass k
  done;
  { wall; cpu; good; peak_kib = !peak }

(* -- the traced run ---------------------------------------------------------- *)

let layers =
  [ "tables_load"; "front_end"; "shape"; "cse_opt"; "linearize"; "driver";
    "emit"; "loader"; "listing" ]

let count_names =
  [ "shape.if_tokens"; "cse_opt.if_tokens"; "driver.shifts"; "driver.reductions";
    "emit.insns"; "emit.spills"; "emit.transfers"; "loader.sites";
    "loader.long_branches"; "loader.iterations"; "listing.bytes" ]

exception Compile_failed of string

(* The compile sequence of [pasc compile], call by call through the
   layers' public functions, with a span around each call.  Returns the
   listing, the object bytes and the op's exact counts. *)
let traced_compile sp ids ~cache_dir (source : string) =
  let s name f = Spans.span sp (Hashtbl.find ids name) f in
  let tables = s "tables_load" (fun () -> load_tables ~cache_dir) in
  let checked =
    match s "front_end" (fun () -> Pascal.Sema.front_end source) with
    | Ok c -> c
    | Error m -> raise (Compile_failed m)
  in
  let shaped =
    match s "shape" (fun () -> Shaper.Irgen.shape ~checks:false checked) with
    | Ok sh -> sh
    | Error e -> raise (Compile_failed (Fmt.str "%a" Shaper.Irgen.pp_error e))
  in
  let optimized = s "cse_opt" (fun () -> Shaper.Cse_opt.optimize shaped) in
  let tokens =
    s "linearize" (fun () ->
        Ifl.Tree.linearize_program optimized.Shaper.Irgen.trees)
  in
  let e = Cogg.Emit.create tables in
  let emit_id = Hashtbl.find ids "emit" in
  let reduce ~prod ~rhs ~remap =
    Spans.span sp emit_id (fun () -> Cogg.Emit.reduce e ~prod ~rhs ~remap)
  in
  let outcome =
    match s "driver" (fun () -> Cogg.Driver.parse tables ~reduce tokens) with
    | Ok o -> o
    | Error err -> raise (Compile_failed (Fmt.str "%a" Cogg.Driver.pp_error err))
    | exception Cogg.Emit.Emit_error m -> raise (Compile_failed m)
    | exception Cogg.Regalloc.Pressure m -> raise (Compile_failed m)
  in
  let resolved =
    match s "loader" (fun () -> Cogg.Emit.finish e) with
    | Ok (_, r) -> r
    | Error m -> raise (Compile_failed m)
  in
  let listing = s "listing" (fun () -> Cogg.Emit.listing e) in
  let st = Cogg.Emit.stats e in
  let counts =
    [|
      List.length (Ifl.Tree.linearize_program shaped.Shaper.Irgen.trees);
      List.length tokens;
      outcome.Cogg.Driver.shifts;
      outcome.Cogg.Driver.reductions;
      Cogg.Code_buffer.n_instructions e.Cogg.Emit.buf;
      st.Cogg.Regalloc.n_evictions;
      st.Cogg.Regalloc.n_transfers;
      resolved.Cogg.Loader_gen.n_sites;
      resolved.Cogg.Loader_gen.n_long;
      resolved.Cogg.Loader_gen.iterations;
      String.length listing;
    |]
  in
  (listing, Bytes.to_string resolved.Cogg.Loader_gen.code, counts)

let trace_run ctx pool order ~(facts : fact array) =
  let n = Array.length order in
  let npass_proc = passes ctx ~pass_s:5.0 ~min:2 in
  let npass_in = passes ctx ~pass_s:2.5 ~min:2 in
  let proc = process_passes ctx pool order npass_proc in
  let sp = Spans.create () in
  let ids = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace ids l (Spans.intern sp l)) ("op" :: layers);
  let root = Hashtbl.find ids "op" in
  let cache_dir = ctx.cache in
  let counts = Array.make (List.length count_names) 0 in
  let untraced = Array.make_matrix npass_in n 0. in
  let good = Array.copy proc.good in
  let one_pass k ~traced =
    Array.iteri
      (fun i p ->
        let src = pool.(p).source in
        if traced then begin
          sp.Spans.cur_op <- (k * n) + i;
          let r =
            try Ok (Spans.span sp root (fun () -> traced_compile sp ids ~cache_dir src))
            with Compile_failed m -> Error m
          in
          (* fidelity: the traced sequence must produce Pipeline.compile's
             bytes (and fail where it fails) *)
          (match (r, facts.(p).compiled) with
          | Ok (l, c, cs), Ok (l', c') ->
              if l <> l' || c <> c' then
                complain "%s: traced compile differs from Pipeline.compile" pool.(p).name
              else if k = npass_in - 1 && good.(i) then
                Array.iteri (fun j x -> counts.(j) <- counts.(j) + x) cs
          | Error _, Error _ -> good.(i) <- false
          | _ ->
              good.(i) <- false;
              complain "%s: traced compile and Pipeline.compile disagree on failure"
                pool.(p).name)
        end
        else begin
          (* the same operation untraced, as [pasc compile] runs it *)
          let t0 = Proc.now_ns () in
          ignore (Pipeline.compile (load_tables ~cache_dir) src);
          untraced.(k).(i) <- float_of_int (Proc.now_ns () - t0) *. 1e-9
        end)
      order
  in
  one_pass 0 ~traced:false;
  (* warm-up *)
  for k = 0 to npass_in - 1 do
    one_pass k ~traced:true;
    one_pass k ~traced:false
  done;
  let self_ms, words, traced_ms = Spans.layers sp ~n ~npass:npass_in ~keep:good layers in
  let untraced_ms = 1e3 *. mean (select good (fastest untraced)) in
  let process_ms = 1e3 *. mean (select good (fastest proc.wall)) in
  mkdir_p ".bench_out";
  Spans.write sp ".bench_out/spans-compile.tsv";
  let minor_words l = (l ^ ".minor_words", List.assoc l words) in
  [
    ("other.self_ms", process_ms -. List.fold_left (fun a (_, v) -> a +. v) 0. self_ms);
    ("trace.overhead_ms", traced_ms -. untraced_ms);
    minor_words "front_end"; minor_words "shape"; minor_words "cse_opt"; minor_words "emit";
  ]
  @ List.map (fun (l, v) -> (l ^ ".self_ms", v)) self_ms
  @ List.map2 (fun k v -> (k, float_of_int v)) count_names (Array.to_list counts)

let run ctx ~trace =
  let pool = load_pool () in
  let setup_s = cold_setup ctx pool ~reps:(if ctx.smoke then 1 else 10) in
  let tables = load_tables ~cache_dir:ctx.cache in
  let facts = facts tables pool in
  let order = schedule ctx pool in
  if trace then begin
    let layers = trace_run ctx pool order ~facts in
    check_outputs ctx pool order;
    (pool, `Layers layers)
  end
  else begin
    let t = process_passes ctx pool order (passes ctx ~pass_s:2.0 ~min:3) in
    check_outputs ctx pool order;
    write_ops "compile" (Array.map (fun p -> pool.(p).name) order) t.good t.wall;
    let op_s = select t.good (fastest t.wall) in
    let metrics =
      (m "setup_s" "s" setup_s :: latency_metrics op_s)
      @ [
          m "cpu_ms_per_op" "ms" (1e3 *. mean (select t.good (fastest t.cpu)));
          m "peak_rss_mb" "MiB" (float_of_int t.peak_kib /. 1024.);
        ]
      @ size_metrics tables facts
    in
    (pool, `End_to_end metrics)
  end
