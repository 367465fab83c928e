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
  let hits_before = (Cogg.Tables_cache.stats ()).Cogg.Tables_cache.hits in
  let _, o3 = build dir in
  check_origin "still a hit" "hit" (origin_str o3);
  Alcotest.(check int)
    "hit counter advanced" (hits_before + 1)
    (Cogg.Tables_cache.stats ()).Cogg.Tables_cache.hits

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
  let evictions_before =
    (Cogg.Tables_cache.stats ()).Cogg.Tables_cache.evictions
  in
  Alcotest.(check int)
    "pruning to three deletes two" 2
    (Cogg.Tables_cache.prune ~cache_dir:dir ~max_entries:3 ());
  Alcotest.(check int) "three entries remain" 3 (entry_count dir);
  Alcotest.(check int)
    "eviction counter advanced" (evictions_before + 2)
    (Cogg.Tables_cache.stats ()).Cogg.Tables_cache.evictions;
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
        ] );
    ]
