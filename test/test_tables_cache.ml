(* The content-hashed on-disk table cache: a second build of the same
   specification must be served from disk (no LR construction), a hit
   must drive codegen identically to a fresh build, and corrupt or stale
   entries must fall back to a clean rebuild, never an error. *)

let intro_spec =
  {|
* The artificial machine of paper section 1.
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word, iadd, store, ret
$Opcodes
 l, ar, st, bcr
$Constants
 fifteen = 15
$Productions
r.2 ::= word d.1
 using r.2
 l     r.2,d.1
r.1 ::= iadd r.1 r.2
 modifies r.1
 ar    r.1,r.2
lambda ::= store word d.1 r.2
 st    r.2,d.1
lambda ::= ret
 need r.14
 bcr   fifteen,r.14
|}

let intro_if = "store word d:100 iadd word d:100 word d:104 ret"

(* Every test gets its own throwaway cache directory: a fresh temp path
   that does not exist yet (Tables_cache creates it on first store). *)
let fresh_cache_dir () =
  let path = Filename.temp_file "cogg-cache-test" "" in
  Sys.remove path;
  path

let build ?(spec = intro_spec) cache_dir =
  match Cogg.Tables_cache.build_text ~cache_dir spec with
  | Ok (t, origin) -> (t, origin)
  | Error es ->
      Alcotest.failf "cache build failed: %a"
        (Fmt.list Cogg.Cogg_build.pp_error)
        es

let check_origin = Alcotest.(check string)

let origin_str = function
  | Cogg.Tables_cache.Cache_hit -> "hit"
  | Cogg.Tables_cache.Built -> "built"
  | Cogg.Tables_cache.Built_incremental _ -> "incremental"

let test_miss_then_hit () =
  let dir = fresh_cache_dir () in
  let _, o1 = build dir in
  check_origin "first build is a miss" "built" (origin_str o1);
  let _, o2 = build dir in
  check_origin "second build is a hit" "hit" (origin_str o2);
  (* a hit never enters LR construction: the origin is decided before
     Cogg_build would run, which is what makes repeat invocations fast *)
  let (_, o3), rows = Util.with_metrics (fun () -> build dir) in
  check_origin "still a hit" "hit" (origin_str o3);
  Alcotest.(check (pair int int))
    "one hit counted, no miss" (1, 0)
    (List.assoc "tables_cache.hits" rows, List.assoc "tables_cache.misses" rows)

let generate t =
  match Cogg.Codegen.generate_string t intro_if with
  | Ok r -> r
  | Error m -> Alcotest.failf "codegen failed: %s" m

let test_hit_drives_codegen_identically () =
  let dir = fresh_cache_dir () in
  let built, _ = build dir in
  let cached, o = build dir in
  check_origin "served from cache" "hit" (origin_str o);
  let a = generate built and b = generate cached in
  Alcotest.(check string)
    "identical listings" a.Cogg.Codegen.listing b.Cogg.Codegen.listing;
  Alcotest.(check bytes)
    "identical code bytes"
    a.Cogg.Codegen.resolved.Cogg.Loader_gen.code
    b.Cogg.Codegen.resolved.Cogg.Loader_gen.code

let clobber path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let test_corrupt_entry_rebuilds () =
  let dir = fresh_cache_dir () in
  let _, _ = build dir in
  let path = Cogg.Tables_cache.entry_path ~cache_dir:dir intro_spec in
  Alcotest.(check bool) "entry exists" true (Sys.file_exists path);
  (* garbage *)
  clobber path "this is not a table bundle";
  let _, o = build dir in
  check_origin "garbage entry is a clean miss" "built" (origin_str o);
  (* the rebuild repaired the entry *)
  let _, o2 = build dir in
  check_origin "repaired entry hits" "hit" (origin_str o2);
  (* truncation *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let whole = really_input_string ic n in
  close_in ic;
  clobber path (String.sub whole 0 (n / 2));
  let _, o3 = build dir in
  check_origin "truncated entry is a clean miss" "built" (origin_str o3)

let test_modified_spec_misses () =
  let dir = fresh_cache_dir () in
  let _, _ = build dir in
  let edited = intro_spec ^ "* a trailing comment changes the digest\n" in
  Alcotest.(check bool)
    "different key" true
    (Cogg.Tables_cache.entry_path ~cache_dir:dir intro_spec
    <> Cogg.Tables_cache.entry_path ~cache_dir:dir edited);
  (* a miss, but one the lineage pointer turns into an incremental
     rebuild spliced from the original entry *)
  let _, o = build ~spec:edited dir in
  check_origin "edited spec misses and rebuilds incrementally" "incremental"
    (origin_str o);
  let _, o2 = build dir in
  check_origin "original entry untouched" "hit" (origin_str o2)

let test_concurrent_store_same_entry () =
  (* several domains race to build and store the same spec into one
     fresh cache directory.  Unique temp names + atomic rename mean no
     interleaving can corrupt the entry: every racer must succeed, and
     the surviving entry must be valid (next build is a hit that drives
     codegen identically to a fresh build). *)
  let dir = fresh_cache_dir () in
  let racers = 4 in
  let results = Array.make racers None in
  Cogg.Pool.with_pool ~domains:racers (fun pool ->
      Cogg.Pool.run_parallel pool
        (Array.init racers (fun i _slot ->
             results.(i) <- Some (Cogg.Tables_cache.build_text ~cache_dir:dir intro_spec))));
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok _) -> ()
      | Some (Error es) ->
          Alcotest.failf "racer %d failed: %a" i
            (Fmt.list Cogg.Cogg_build.pp_error)
            es
      | None -> Alcotest.failf "racer %d never ran" i)
    results;
  let path = Cogg.Tables_cache.entry_path ~cache_dir:dir intro_spec in
  Alcotest.(check bool) "entry exists" true (Sys.file_exists path);
  (* no orphaned temp files survive the race *)
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "no temp litter" [] leftovers;
  let cached, o = build dir in
  check_origin "entry left by the race hits" "hit" (origin_str o);
  let fresh =
    match Cogg.Cogg_build.build_string intro_spec with
    | Ok t -> t
    | Error es ->
        Alcotest.failf "fresh build failed: %a"
          (Fmt.list Cogg.Cogg_build.pp_error)
          es
  in
  let a = generate fresh and b = generate cached in
  Alcotest.(check string)
    "raced entry drives codegen identically" a.Cogg.Codegen.listing
    b.Cogg.Codegen.listing

let test_mode_is_part_of_key () =
  let dir = fresh_cache_dir () in
  let _, _ = build dir in
  match Cogg.Tables_cache.build_text ~mode:Cogg.Lookahead.Lalr ~cache_dir:dir
          intro_spec
  with
  | Ok (_, o) -> check_origin "lalr does not hit the slr entry" "built" (origin_str o)
  | Error es ->
      Alcotest.failf "lalr build failed: %a"
        (Fmt.list Cogg.Cogg_build.pp_error)
        es

(* -- size cap / eviction ------------------------------------------------------ *)

let variant i = intro_spec ^ Printf.sprintf "* cache-churn variant %d\n" i

let entry_count dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             String.length n > 9
             && String.sub n 0 5 = "cogg-"
             && Filename.check_suffix n ".cgt")
      |> List.length

let test_prune_enforces_cap () =
  let dir = fresh_cache_dir () in
  for i = 1 to 5 do
    ignore (build ~spec:(variant i) dir)
  done;
  Alcotest.(check int) "five distinct entries stored" 5 (entry_count dir);
  (* a cap above the population deletes nothing *)
  Alcotest.(check int)
    "roomy cap is a no-op" 0
    (Cogg.Tables_cache.prune ~cache_dir:dir ~max_entries:8 ());
  let pruned, rows =
    Util.with_metrics (fun () ->
        Cogg.Tables_cache.prune ~cache_dir:dir ~max_entries:3 ())
  in
  Alcotest.(check int) "pruning to three deletes two" 2 pruned;
  Alcotest.(check int) "three entries remain" 3 (entry_count dir);
  Alcotest.(check int)
    "evictions counted" 2
    (List.assoc "tables_cache.evictions" rows);
  (* idempotent at the cap *)
  Alcotest.(check int)
    "already at the cap" 0
    (Cogg.Tables_cache.prune ~cache_dir:dir ~max_entries:3 ());
  (* survivors are valid entries: whichever variants remain still load *)
  let alive =
    List.filter
      (fun i ->
        Sys.file_exists
          (Cogg.Tables_cache.entry_path ~cache_dir:dir (variant i)))
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "survivors are cache entries" 3 (List.length alive);
  List.iter
    (fun i ->
      let _, o = build ~spec:(variant i) dir in
      check_origin "survivor still hits" "hit" (origin_str o))
    alive

let test_store_auto_prunes () =
  (* every store runs the pruner with the env-configured cap, so a
     daemon churning through specs keeps its cache directory bounded *)
  let dir = fresh_cache_dir () in
  Unix.putenv "COGG_CACHE_MAX_ENTRIES" "2";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "COGG_CACHE_MAX_ENTRIES" "")
    (fun () ->
      for i = 1 to 4 do
        ignore (build ~spec:(variant i) dir)
      done;
      Alcotest.(check bool)
        (Fmt.str "directory stays within the cap (%d entries)"
           (entry_count dir))
        true
        (entry_count dir <= 2))

(* -- integrity: corrupt entries, orphaned temp files, killed writers ------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (offset, length) of each section of a bundle, from its directory *)
let section_extents bytes =
  let pos = ref Cogg.Tables_io.directory_end in
  List.init Cogg.Tables_io.n_sections (fun i ->
      let len =
        Int32.to_int
          (String.get_int32_le bytes (Cogg.Tables_io.header_bytes + (4 * i)))
      in
      let p = !pos in
      pos := p + len;
      (p, len))

(* listing and code bytes of every example program, or the error *)
let compile_examples tables =
  List.map
    (fun (name, src) ->
      match Pipeline.compile tables src with
      | Ok c ->
          ( name,
            c.Pipeline.gen.Cogg.Codegen.listing
            ^ Bytes.to_string
                c.Pipeline.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.code )
      | Error m -> (name, "error: " ^ m))
    (Util.example_programs ())

(* One flipped bit in any section (or in the header) of a stored
   amdahl470 entry is a miss, never a hit; the rewritten entry then hits
   and compiles the example programs exactly as a fresh build does. *)
let test_flipped_entry_is_a_miss () =
  let dir = fresh_cache_dir () in
  let text = read_file (Util.spec_path "amdahl470.cgg") in
  let _ = build ~spec:text dir in
  let path = Cogg.Tables_cache.entry_path ~cache_dir:dir text in
  let bytes = read_file path in
  let expected = compile_examples (Lazy.force Util.amdahl_tables) in
  let targets =
    (8, "header (checksum)")
    :: List.mapi
         (fun i (off, len) -> (off + (len / 2), Printf.sprintf "section %d" i))
         (section_extents bytes)
  in
  List.iter
    (fun (pos, what) ->
      let b = Bytes.of_string bytes in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor 0x10);
      clobber path (Bytes.to_string b);
      let _, o = build ~spec:text dir in
      check_origin (what ^ ": a flipped entry is a miss") "built" (origin_str o);
      let t, o = build ~spec:text dir in
      check_origin (what ^ ": the rewritten entry hits") "hit" (origin_str o);
      Alcotest.(check string) (what ^ ": entry restored") bytes (read_file path);
      Alcotest.(check (list (pair string string)))
        (what ^ ": examples compile as from a fresh build")
        expected (compile_examples t))
    targets

let temp_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  |> List.sort compare

(* the pid of a child that has exited and been reaped *)
let dead_pid () =
  let pid =
    Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  pid

(* A writer killed between creating its temp file and the rename leaves
   the file behind.  [prune] removes it once the writer's process is
   gone, for entries and lineage pointers alike, and keeps a live
   writer's. *)
let test_prune_removes_orphans () =
  let dir = fresh_cache_dir () in
  let _ = build dir in
  let entry =
    Filename.basename (Cogg.Tables_cache.entry_path ~cache_dir:dir intro_spec)
  and lineage =
    Filename.basename (Cogg.Tables_cache.lineage_path ~cache_dir:dir ())
  in
  let dead = dead_pid () and live = Unix.getpid () in
  let tmp base pid = Printf.sprintf "%s.%d.0.7.tmp" base pid in
  List.iter
    (fun name -> clobber (Filename.concat dir name) "half-written")
    [ tmp entry dead; tmp lineage dead; tmp entry live ];
  Alcotest.(check int)
    "two orphans removed, no entry evicted" 2
    (Cogg.Tables_cache.prune ~cache_dir:dir ~max_entries:8 ());
  Alcotest.(check (list string))
    "the live writer's temp file stays" [ tmp entry live ] (temp_files dir);
  Sys.remove (Filename.concat dir (tmp entry live));
  let _, o = build dir in
  check_origin "the entry still hits" "hit" (origin_str o)

let writer_path () =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) "cache_writer.exe"
  in
  if Sys.file_exists p then p
  else Alcotest.failf "cache_writer.exe not found at %s" p

(* A process storing entries in a loop is killed with SIGKILL, wherever
   it happens to be.  Afterwards every entry it may have written is a
   verified hit or a clean miss, and [prune] leaves no temp file. *)
let test_killed_writer () =
  let dir = fresh_cache_dir () in
  Unix.mkdir dir 0o755;
  let spec_file = Filename.concat dir "intro.cgg" in
  clobber spec_file intro_spec;
  let writer = writer_path () in
  let pid =
    Unix.create_process writer [| writer; dir; spec_file |] Unix.stdin
      Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let stored =
    Array.fold_left
      (fun n f -> if Filename.check_suffix f ".cgt" then n + 1 else n)
      0 (Sys.readdir dir)
  in
  Alcotest.(check bool) "the writer stored entries" true (stored > 0);
  let fresh = generate (fst (build (fresh_cache_dir ()))) in
  for i = 0 to stored do
    let spec = intro_spec ^ Printf.sprintf "* stored variant %d\n" i in
    let t, _ = build ~spec dir in
    Alcotest.(check string)
      (Printf.sprintf "variant %d drives codegen as a fresh build" i)
      fresh.Cogg.Codegen.listing (generate t).Cogg.Codegen.listing
  done;
  ignore (Cogg.Tables_cache.prune ~cache_dir:dir ());
  Alcotest.(check (list string)) "no temp file survives" [] (temp_files dir)

let () =
  Alcotest.run "tables_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "hit drives codegen identically" `Quick
            test_hit_drives_codegen_identically;
          Alcotest.test_case "corrupt entry rebuilds" `Quick
            test_corrupt_entry_rebuilds;
          Alcotest.test_case "modified spec misses" `Quick
            test_modified_spec_misses;
          Alcotest.test_case "concurrent stores race safely" `Quick
            test_concurrent_store_same_entry;
          Alcotest.test_case "mode is part of the key" `Quick
            test_mode_is_part_of_key;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "prune enforces the cap" `Quick
            test_prune_enforces_cap;
          Alcotest.test_case "store auto-prunes" `Quick test_store_auto_prunes;
          Alcotest.test_case "prune removes orphaned temp files" `Quick
            test_prune_removes_orphans;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "a flip in any section is a miss" `Quick
            test_flipped_entry_is_a_miss;
          Alcotest.test_case "a killed writer leaves no wrong hit" `Quick
            test_killed_writer;
        ] );
    ]
