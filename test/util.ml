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
   substrate. *)
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

let contains (haystack : string) (needle : string) : bool =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0
