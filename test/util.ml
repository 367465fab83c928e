(* Shared test helpers: locating spec files and running generated code. *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let spec_path name =
  match find_up (Sys.getcwd ()) (Filename.concat "specs" name) with
  | Some p -> p
  | None -> Alcotest.failf "cannot locate specs/%s from %s" name (Sys.getcwd ())

(* The real-program bank, examples/programs/*.pas, as (name, source)
   pairs in name order. *)
let example_programs () : (string * string) list =
  let dir =
    match find_up (Sys.getcwd ()) "examples/programs" with
    | Some d -> d
    | None ->
        Alcotest.failf "cannot locate examples/programs from %s" (Sys.getcwd ())
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pas")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let len = in_channel_length ic in
         let text = really_input_string ic len in
         close_in ic;
         (Filename.remove_extension f, text))

let amdahl_tables : Cogg.Tables.t Lazy.t =
  lazy
    (match Cogg.Cogg_build.build_file (spec_path "amdahl470.cgg") with
    | Ok t -> t
    | Error es ->
        Alcotest.failf "amdahl470.cgg failed to build: %a"
          (Fmt.list Cogg.Cogg_build.pp_error)
          es)

(* The second backend, built from its own spec against the RISC-32
   substrate.  Frame discipline and PSA layout are shared with the
   Amdahl target, so the same helpers read its results. *)
let risc32_tables : Cogg.Tables.t Lazy.t =
  lazy
    (match
       Cogg.Cogg_build.build_file
         ~target:(Machine.Targets.find_exn "risc32")
         (spec_path "risc32.cgg")
     with
    | Ok t -> t
    | Error es ->
        Alcotest.failf "risc32.cgg failed to build: %a"
          (Fmt.list Cogg.Cogg_build.pp_error)
          es)

(* Local variable displacements within the frame. *)
let local n = Machine.Runtime.locals_base + (4 * n)

type run = {
  sim : Machine.Sim.t;
  frame : int;
  outcome : Machine.Runtime.outcome;
  genresult : Cogg.Codegen.result_t;
}

(* Generate code for an IF program (textual syntax), boot it, initialize
   locals ([slot, value] pairs against the main frame), run, and return
   the machine.  The simulator and trap set come from the bundle's own
   target, so the same helper drives both backends. *)
let compile_and_run ?(layout = Machine.Runtime.default_layout) ?strategy
    ?(locals = []) ?(floats = []) (tables : Cogg.Tables.t) (if_text : string)
    : run =
  let tgt = tables.Cogg.Tables.target in
  match Cogg.Codegen.generate_string ?strategy tables if_text with
  | Error m -> Alcotest.failf "codegen failed: %s" m
  | Ok genresult -> (
      match tgt.Machine.Target.boot ~layout genresult.Cogg.Codegen.objmod with
      | Error m -> Alcotest.failf "boot failed: %s" m
      | Ok (sim, entry) -> (
          let frame = Machine.Runtime.main_frame layout in
          List.iter
            (fun (slot, v) -> Machine.Sim.store_w sim (frame + local slot) v)
            locals;
          List.iter
            (fun (slot, v) ->
              Machine.Sim.store_f64 sim (frame + local slot) v)
            floats;
          match tgt.Machine.Target.run ~layout sim ~entry with
          | Error m ->
              Alcotest.failf "execution failed: %s\nlisting:\n%s" m
                genresult.Cogg.Codegen.listing
          | Ok outcome -> { sim; frame; outcome; genresult }))

let read_local run slot = Machine.Sim.load_w run.sim (run.frame + local slot)
let read_byte run slot = Machine.Sim.load_u8 run.sim (run.frame + local slot)
let read_half run slot = Machine.Sim.load_h run.sim (run.frame + local slot)

let contains (haystack : string) (needle : string) : bool =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0
