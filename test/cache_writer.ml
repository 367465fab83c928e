(* A table-cache writer for test_tables_cache's cross-process cases:
     cache_writer.exe CACHE_DIR SPEC_FILE
   stores one entry per spec variant (the spec text plus a numbered
   comment line), in a loop that ends only when the process is killed;
     cache_writer.exe CACHE_DIR SPEC_FILE FIRST COUNT CAP
   stores variants FIRST .. FIRST+COUNT-1, pruning the directory to CAP
   entries after each store, and exits. *)

let variant text i = text ^ Printf.sprintf "* stored variant %d\n" i

let store cache_dir text i =
  match Cogg.Tables_cache.build_text ~cache_dir (variant text i) with
  | Ok _ -> ()
  | Error _ -> exit 2

let () =
  let read spec_file = In_channel.with_open_bin spec_file In_channel.input_all in
  match Sys.argv with
  | [| _; cache_dir; spec_file |] ->
      let text = read spec_file in
      let i = ref 0 in
      while true do
        store cache_dir text !i;
        incr i
      done
  | [| _; cache_dir; spec_file; first; count; cap |] ->
      let text = read spec_file in
      let first = int_of_string first and cap = int_of_string cap in
      for i = first to first + int_of_string count - 1 do
        store cache_dir text i;
        ignore (Cogg.Tables_cache.prune ~cache_dir ~max_entries:cap ())
      done
  | _ ->
      prerr_endline "usage: cache_writer CACHE_DIR SPEC_FILE [FIRST COUNT CAP]";
      exit 2
