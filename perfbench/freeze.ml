(* Writes the frozen program pool, once:

     dune exec perfbench/main.exe -- freeze --seed 1982

   The pool is checked in under perfbench/pool/, so the inputs stay fixed
   whatever later happens to the generator or the standard programs.
   Nothing is filtered by whether the compiler accepts it: a program the
   code generator rejects stays in and shows up as a failed request. *)

let generated_per_profile = 21

let write ~seed =
  let dir = Common.pool_dir in
  Common.mkdir_p dir;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".pas" then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let n = ref 0 in
  let put name source =
    Common.write_file
      (Filename.concat dir (Printf.sprintf "%03d-%s.pas" !n name))
      source;
    incr n
  in
  (* the hand-written example programs *)
  let ex = "examples/programs" in
  Sys.readdir ex |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pas")
  |> List.sort String.compare
  |> List.iter (fun f ->
         put ("ex-" ^ Filename.remove_extension f)
           (Common.read_file (Filename.concat ex f)));
  (* the paper's evaluation programs and the standard workloads *)
  List.iter (fun (name, src) -> put ("std-" ^ name) src) Pipeline.Programs.all;
  (* generated programs, rotating through the generator's five profiles *)
  let count = generated_per_profile * Array.length Fuzz.Profile.all in
  for i = 0 to count - 1 do
    let profile = Fuzz.Profile.rotate i in
    let rng = Fuzz.Rng.derive ~seed ~index:i in
    put
      (Printf.sprintf "gen-%s-s%d-i%d" (Fuzz.Profile.to_string profile) seed i)
      (Fuzz.Gen_pascal.source rng profile)
  done;
  Printf.printf "wrote %d programs to %s (pool digest %s)\n" !n dir
    (Common.pool_digest (Common.load_pool ()))
