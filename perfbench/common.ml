(* Shared machinery: the run context (private temp directory, child
   environment), the frozen program pool and its references, the timing
   rule, and the result line. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* -- run context --------------------------------------------------------- *)

let spec_path = "specs/amdahl470.cgg"
let pool_dir = "perfbench/pool"

type ctx = {
  pasc : string;
  seed : int;
  seconds : float;
  smoke : bool;  (** minimal schedules and one pass: the smoke test *)
  tmp : string;  (** private per-run directory, relative to the checkout *)
  cache : string;  (** the private table cache, every child's [COGG_CACHE_DIR] *)
}

let make_ctx ~pasc ~seed ~seconds ~smoke ~workload =
  let tmp = Printf.sprintf ".bench_tmp/%s-%d" workload (Unix.getpid ()) in
  rm_rf tmp;
  mkdir_p tmp;
  let cache = Filename.concat tmp "cache" in
  { pasc; seed; seconds; smoke; tmp; cache }

(* -- failure accounting ---------------------------------------------------- *)

(* [attempted]/[failed] count requests (programs, served sources, edits);
   [wrong] counts outputs that differ from their reference.  A failed
   check is recorded, never fatal. *)
let attempted = ref 0
let failed = ref 0
let wrong = ref 0

let note_attempt ok =
  incr attempted;
  if not ok then incr failed

let complain fmt =
  Fmt.kstr
    (fun m ->
      incr wrong;
      if !wrong <= 20 then Fmt.epr "check failed: %s@." m)
    fmt

(* -- the frozen pool ------------------------------------------------------- *)

type prog = { name : string; path : string; source : string }

let load_pool () : prog array =
  Sys.readdir pool_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pas")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat pool_dir f in
         { name = Filename.remove_extension f; path; source = read_file path })
  |> Array.of_list

let pool_digest (pool : prog array) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun p ->
      Buffer.add_string b p.name;
      Buffer.add_char b '\000';
      Buffer.add_string b p.source;
      Buffer.add_char b '\000')
    pool;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* -- references independent of the compiler under test ---------------------- *)

(* What [pasc compile --run] prints for a program, computed by the
   reference interpreter: integer-stream values first, then reals. *)
let interp_output (source : string) : (string, string) result =
  match Pascal.Sema.front_end source with
  | Error m -> Error m
  | Ok checked -> (
      match Pascal.Interp.run checked with
      | Error e -> Error (Fmt.str "%a" Pascal.Interp.pp_error e)
      | Ok r ->
          let b = Buffer.create 256 in
          List.iter
            (function
              | Pascal.Interp.Vint n -> Printf.bprintf b "%d\n" n
              | Pascal.Interp.Vbool v -> Printf.bprintf b "%d\n" (Bool.to_int v)
              | Pascal.Interp.Vchar c -> Printf.bprintf b "%d\n" (Char.code c)
              | _ -> ())
            r.Pascal.Interp.written;
          List.iter
            (function
              | Pascal.Interp.Vreal f -> Buffer.add_string b (Fmt.str "%g\n" f)
              | _ -> ())
            r.Pascal.Interp.written;
          Ok (Buffer.contents b))

(* printed reals may differ in the last digit; compare them numerically *)
let outputs_agree (a : string) (b : string) =
  a = b
  ||
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  List.length la = List.length lb
  && List.for_all2
       (fun x y ->
         x = y
         ||
         match (float_of_string_opt x, float_of_string_opt y) with
         | Some x, Some y ->
             Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.abs y)
         | _ -> false)
       la lb

(** In-process facts about each pool program under the base tables: the
    compile result (the byte reference for served replies and the traced
    sequence), generated-code size and simulated steps. *)
type fact = {
  compiled : (string * string, string) result;  (** listing, object bytes *)
  steps : int;
}

let facts (tables : Cogg.Tables.t) (pool : prog array) : fact array =
  Array.map
    (fun p ->
      match Pipeline.compile tables p.source with
      | Error m -> { compiled = Error m; steps = 0 }
      | Ok c ->
          let steps =
            match Pipeline.execute c with
            | Ok x -> x.Pipeline.outcome.Machine.Runtime.steps
            | Error _ -> 0
          in
          {
            compiled =
              Ok (c.Pipeline.gen.Cogg.Codegen.listing, Pipeline.Batch.code_bytes c);
            steps;
          })
    pool

(* always through a private cache: never the working directory's _cache/ *)
let load_tables ~cache_dir =
  match Cogg.Tables_cache.build_file ~cache_dir spec_path with
  | Ok (t, _) -> t
  | Error es ->
      Fmt.failwith "cannot build %s: %a" spec_path
        (Fmt.list Cogg.Cogg_build.pp_error)
        es

(* -- the timing rule ---------------------------------------------------------- *)

let rng ctx salt = Random.State.make [| ctx.seed; salt |]

let shuffle st (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Timed passes for a run: enough to fill [seconds] at the workload's
    nominal pass cost, at least [min].  A fixed function of the
    arguments, so every run of one seed does the same work and every
    count repeats exactly. *)
let passes ctx ~pass_s ~min =
  if ctx.smoke then 1
  else max min (int_of_float (Float.round (ctx.seconds /. pass_s)))

(** What the process passes of a workload measured. *)
type timed = {
  wall : float array array;  (** [pass][op] seconds *)
  cpu : float array array;  (** [pass][op] the child's CPU seconds *)
  good : bool array;  (** the op succeeded in every pass *)
  peak_kib : int;  (** largest child ru_maxrss *)
}

(** Fastest-of-passes: [times.(pass).(op)] -> per-op minimum. *)
let fastest (times : float array array) : float array =
  let n = Array.length times.(0) in
  Array.init n (fun i ->
      Array.fold_left (fun m row -> Float.min m row.(i)) infinity times)

let quantile (xs : float array) q =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))

(** The elements of [xs] at the indices where [keep] holds. *)
let select keep xs = Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list xs))

let sum = Array.fold_left ( +. ) 0.
let mean xs = if xs = [||] then 0. else sum xs /. float_of_int (Array.length xs)

(** The set-up measurement: fastest of [reps] repetitions of [f], which
    returns its own duration in seconds. *)
let fastest_of reps f =
  let best = ref infinity in
  for i = 1 to reps do
    best := Float.min !best (f i)
  done;
  !best

(* -- results ----------------------------------------------------------------- *)

(** One row per operation, in schedule order, under .bench_out/: its
    name, whether it succeeded, its fastest time and each pass's. *)
let write_ops workload (names : string array) (good : bool array)
    (times : float array array) =
  mkdir_p ".bench_out";
  let oc = open_out (Printf.sprintf ".bench_out/%s-ops.tsv" workload) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "op\tname\tok\tfastest_ms\tpass_ms...\n";
      let best = fastest times in
      Array.iteri
        (fun i name ->
          Printf.fprintf oc "%d\t%s\t%b\t%.4f" i name good.(i) (1e3 *. best.(i));
          Array.iter (fun row -> Printf.fprintf oc "\t%.4f" (1e3 *. row.(i))) times;
          output_char oc '\n')
        names)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

(** The latency metrics of a run, by the timing rule, over the per-op
    fastest times (seconds) of the operations that succeeded. *)
let latency_metrics (op_s : float array) =
  [
    m "ops_per_s" "1/s" (float_of_int (Array.length op_s) /. sum op_s);
    m "latency_ms.p50" "ms" (1e3 *. quantile op_s 0.5);
    m "latency_ms.p90" "ms" (1e3 *. quantile op_s 0.9);
  ]

let size_metrics (tables : Cogg.Tables.t) (facts : fact array) =
  let code = ref 0 and steps = ref 0 in
  Array.iter
    (fun f ->
      match f.compiled with
      | Ok (_, c) ->
          code := !code + String.length c;
          steps := !steps + f.steps
      | Error _ -> ())
    facts;
  let sz = Cogg.Tables_io.sizes tables in
  [
    m "code_bytes" "bytes" (float_of_int !code);
    m "sim_steps" "insns" (float_of_int !steps);
    m "table_bytes" "bytes"
      (float_of_int
         (sz.Cogg.Tables_io.template_array + sz.Cogg.Tables_io.compressed_table));
  ]

let json_num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(** Print every metric by name, a stamp line, and — last — the result
    object [{correct, attempted, failed, metrics}]; also keep a copy with
    the stamp under [.bench_out/]. *)
let report ctx ~workload ~trace ~pool (metrics : metric list) =
  List.iter
    (fun x -> Printf.printf "%-34s %16s %s\n" x.m_name (json_num x.value) x.unit_)
    metrics;
  let stamp =
    Printf.sprintf
      "{\"workload\": \"%s\", \"trace\": %d, \"seed\": %d, \"seconds\": %s, \
       \"nproc\": %d, \"ocaml\": \"%s\", \"pool_digest\": \"%s\", \
       \"pool_size\": %d}"
      workload (Bool.to_int trace) ctx.seed (json_num ctx.seconds)
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (pool_digest pool) (Array.length pool)
  in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
             (json_num x.value) x.unit_)
         metrics)
  in
  let result =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (!wrong = 0) !attempted !failed body
  in
  mkdir_p ".bench_out";
  write_file
    (Printf.sprintf ".bench_out/%s-trace%d.json" workload (Bool.to_int trace))
    (Printf.sprintf "{\"stamp\": %s, \"result\": %s}\n" stamp result);
  Printf.printf "stamp %s\n%s\n%!" stamp result
