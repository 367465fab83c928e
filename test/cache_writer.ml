(* A table-cache writer for test_tables_cache's kill-mid-store case:
     cache_writer.exe CACHE_DIR SPEC_FILE
   stores one entry per spec variant (the spec text plus a numbered
   comment line), in a loop that ends only when the process is killed. *)

let () =
  match Sys.argv with
  | [| _; cache_dir; spec_file |] ->
      let text = In_channel.with_open_bin spec_file In_channel.input_all in
      let i = ref 0 in
      while true do
        let variant = text ^ Printf.sprintf "* stored variant %d\n" !i in
        (match Cogg.Tables_cache.build_text ~cache_dir variant with
        | Ok _ -> ()
        | Error _ -> exit 2);
        incr i
      done
  | _ ->
      prerr_endline "usage: cache_writer CACHE_DIR SPEC_FILE";
      exit 2
