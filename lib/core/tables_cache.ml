(** On-disk cache of built table bundles.

    LR construction over the full amdahl470 specification dominates every
    [pasc]/[coggc] invocation, yet its result depends only on the
    specification text and the target.  The cache keys an entry on a
    digest of (format version, target, spec text) and stores the
    {!Tables_io} serialization, so a second run on an unchanged spec skips
    {!Cogg_build.build} entirely and a modified spec simply hashes to a
    different entry.  Corrupt or truncated entries are indistinguishable
    from misses (the bundle's checksum is checked before anything is
    decoded):
    the tables are rebuilt and the entry rewritten, never surfaced as an
    error. *)

(* Bumping this invalidates every existing entry; it must change whenever
   the Tables_io bundle format does, or when table construction starts
   producing different (still correct) bytes — v7: bundles carry the
   incremental appendix (per-production content hashes, lookahead mode),
   and a per-lineage pointer file lets a miss on an edited spec locate
   the previous build and splice instead of rebuilding from scratch;
   v8: the CGB6 bundle drops the profile-specialized table and its
   profile digest; v9: the CGB7 bundle, checksummed, with cells at their
   narrowest widths and a section directory; v10: the CGB8 bundle, whose
   checksum is two word-at-a-time lanes instead of an MD5, with every
   byte after the header as in CGB7.  Since v10 an entry's name carries
   the version too ([entry_prefix]). *)
let format_version = 10

type origin = Cache_hit | Built | Built_incremental of Cogg_build.incr_stats

let pp_origin ppf = function
  | Cache_hit -> Fmt.string ppf "cache hit"
  | Built -> Fmt.string ppf "built from spec"
  | Built_incremental st ->
      Fmt.pf ppf "incrementally rebuilt (%a)" Cogg_build.pp_incr_stats st

let m_hits = Metrics.sum "tables_cache.hits"
let m_misses = Metrics.sum "tables_cache.misses"
let m_evictions = Metrics.sum "tables_cache.evictions"

let src = Logs.Src.create "cogg.tables-cache" ~doc:"CoGG table cache"

module Log = (val Logs.src_log src : Logs.LOG)

let default_dir () =
  match Sys.getenv_opt "COGG_CACHE_DIR" with
  | Some d -> d
  | None -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat d "cogg"
      | _ -> "_cache")

let key ?(target = Machine.Targets.default) (spec_text : string) : string =
  (* the target name is part of the key: the same spec text checked
     against two machines yields different bundles.  The text is
     digested on its own and only that digest joins the short prefix,
     so a lookup never copies the spec *)
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "cogg-tables-v%d:%s:%s" format_version
          target.Machine.Target.name (Digest.string spec_text)))

(* Every entry's name starts with this, so [prune] can tell an entry of
   an older format, which no key can hit again, by its name alone. *)
let entry_prefix = Printf.sprintf "cogg-v%d-" format_version

(** Cache file an unchanged spec would hit; exposed so tests (and curious
    users) can inspect or corrupt the entry. *)
let entry_path ?target ?cache_dir (spec_text : string) : string =
  let dir = match cache_dir with Some d -> d | None -> default_dir () in
  Filename.concat dir (entry_prefix ^ key ?target spec_text ^ ".cgt")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* "cogg-<name><suffix>": an entry (".cgt", of any format) or a lineage
   pointer (".ptr") *)
let cache_file suffix name =
  String.length name > 9
  && String.sub name 0 5 = "cogg-"
  && Filename.check_suffix name suffix

let is_entry = cache_file ".cgt"
let is_pointer = cache_file ".ptr"

(* -- lineage pointers --------------------------------------------------------

   Entries are keyed by the spec text, so an edited spec is a clean miss
   — by design, but it also severs the edited spec from the build of its
   previous revision, which is precisely what an incremental rebuild
   wants to splice from.  The bridge is one pointer file per lineage
   (format version x target, everything in the key except the text):
   it names the newest entry stored for that lineage.  On a miss, the
   pointer locates the previous partial build; the pointer itself is a
   hint — stale, pruned-away or corrupt targets simply degrade to a
   scratch build. *)

let lineage_path ?(target = Machine.Targets.default) ?cache_dir () : string =
  let dir = match cache_dir with Some d -> d | None -> default_dir () in
  let tag =
    Printf.sprintf "cogg-lineage-v%d:%s" format_version
      target.Machine.Target.name
  in
  Filename.concat dir ("cogg-" ^ Digest.to_hex (Digest.string tag) ^ ".ptr")

let read_lineage (lpath : string) : string option =
  if not (Sys.file_exists lpath) then None
  else
    match read_file lpath with
    | name when is_entry (String.trim name) -> Some (String.trim name)
    | _ -> None
    | exception Sys_error _ -> None

(* -- storing and pruning -------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Best effort, atomic via rename: a half-written entry must never be
   observable (a concurrent reader would treat it as corrupt and rebuild,
   but there is no reason to risk it).  The temp name embeds the pid, the
   domain id and a per-process counter, so two concurrent builders — two
   processes racing on a shared cache dir, or two domains of one pool —
   can never open the same temp file and publish each other's
   half-written bytes through the rename. *)
let tmp_counter = Atomic.make 0

(* Size cap: spec edits never overwrite an entry (every distinct spec
   text is a distinct entry), so a spec author's edit loop, or a
   long-lived daemon serving edited specs, must not grow the cache
   directory without bound.  Entries are evicted
   oldest-first by modification time (the entry just written was just
   touched, so it is always the newest); ties break by file name so the
   victim set is deterministic.  Everything is best effort — a
   concurrently deleted file is simply skipped. *)
let default_max_entries = 64

(* The pid of the writer behind a temp file [write_atomic] names
   "cogg-<key>.<cgt|ptr>.<pid>.<domain>.<n>.tmp", or [None] for any
   other name. *)
let tmp_writer name =
  if String.length name < 5 || String.sub name 0 5 <> "cogg-" then None
  else
    match List.rev (String.split_on_char '.' name) with
    | "tmp" :: _n :: _domain :: pid :: ("cgt" | "ptr") :: _ ->
        int_of_string_opt pid
    | _ -> None

let process_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* A writer killed between creating its temp file and the rename leaves
   the file behind; once its process is gone, nothing will ever rename
   or remove it. *)
let remove_orphans dir names =
  Array.fold_left
    (fun removed name ->
      match tmp_writer name with
      | Some pid when not (process_alive pid) -> (
          let path = Filename.concat dir name in
          match Sys.remove path with
          | () ->
              Log.info (fun f ->
                  f "removed %s (its writer, pid %d, is gone)" path pid);
              removed + 1
          | exception Sys_error _ -> removed)
      | _ -> removed)
    0 names

(* Delete every entry of an older format (one whose name lacks
   [entry_prefix]) without opening it. *)
let remove_stale_entries dir names =
  Array.fold_left
    (fun removed name ->
      if is_entry name && not (String.starts_with ~prefix:entry_prefix name)
      then
        let path = Filename.concat dir name in
        match Sys.remove path with
        | () ->
            Log.info (fun f -> f "removed %s (an older cache format)" path);
            removed + 1
        | exception Sys_error _ -> removed
      else removed)
    0 names

(* Delete the oldest [.cgt] entries beyond [cap]. *)
let evict_oldest dir names cap =
  let entries =
    Array.to_list names
    |> List.filter_map (fun name ->
           if not (is_entry name) then None
           else
             let path = Filename.concat dir name in
             match Unix.stat path with
             | st -> Some (st.Unix.st_mtime, name, path)
             | exception Unix.Unix_error _ -> None)
  in
  let n = List.length entries in
  if n <= cap then 0
  else begin
    let oldest_first =
      List.sort
        (fun (ma, na, _) (mb, nb, _) ->
          match Float.compare ma mb with 0 -> String.compare na nb | c -> c)
        entries
    in
    let victims = List.filteri (fun i _ -> i < n - cap) oldest_first in
    List.fold_left
      (fun removed (_, _, path) ->
        match Sys.remove path with
        | () ->
            Metrics.add m_evictions 1;
            Log.info (fun f -> f "evicted %s (cache over %d entries)" path cap);
            removed + 1
        | exception Sys_error _ -> removed)
      0 victims
  end

(* A lineage pointer is dead when no current [lineage_path] forms its
   name (one left by an older format version) or when it names no entry
   that exists (evicted, never stored, or garbage): no miss will follow
   it to a build again.  The live names are read now, not as [names]
   listed them before the evictions, so a pointer rewritten since to
   name an entry just evicted goes too. *)
let remove_dead_pointers dir names =
  let live =
    List.map
      (fun (_, target) ->
        Filename.basename (lineage_path ~target ~cache_dir:dir ()))
      Machine.Targets.all
  in
  let stale =
    List.filter
      (fun name -> is_pointer name && not (List.mem name live))
      (Array.to_list names)
  in
  let dangling name =
    let path = Filename.concat dir name in
    match read_lineage path with
    | Some entry -> not (Sys.file_exists (Filename.concat dir entry))
    | None -> Sys.file_exists path
  in
  List.fold_left
    (fun removed name ->
      let path = Filename.concat dir name in
      match Sys.remove path with
      | () ->
          Log.info (fun f -> f "removed dead lineage pointer %s" path);
          removed + 1
      | exception Sys_error _ -> removed)
    0
    (stale @ List.filter dangling live)

let prune ?cache_dir ?max_entries () : int =
  let dir = match cache_dir with Some d -> d | None -> default_dir () in
  let cap =
    match max_entries with Some n -> max 1 n | None -> default_max_entries
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      let orphans = remove_orphans dir names in
      let stale = remove_stale_entries dir names in
      let evicted = evict_oldest dir names cap in
      orphans + stale + evicted + remove_dead_pointers dir names

let write_atomic path bytes =
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.%d.%d.%d.tmp" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  output_string oc bytes;
  close_out oc;
  Sys.rename tmp path

let store path bytes =
  try
    write_atomic path bytes;
    (* the cap covers the directory the entry landed in, which may be a
       caller-supplied cache_dir rather than the default *)
    ignore (prune ~cache_dir:(Filename.dirname path) ())
  with Sys_error m -> Log.warn (fun f -> f "cannot store cache entry: %s" m)

let store_lineage (lpath : string) (entry_name : string) =
  match read_lineage lpath with
  | Some name when name = entry_name -> ()
  | _ -> (
      try write_atomic lpath entry_name
      with Sys_error m ->
        Log.warn (fun f -> f "cannot store lineage pointer: %s" m))

let load path : Tables.t option =
  if not (Sys.file_exists path) then None
  else
    match Tables_io.read (read_file path) with
    | t -> Some t
    | exception Tables_io.Corrupt m ->
        Log.info (fun f -> f "discarding corrupt entry %s (%s)" path m);
        None
    | exception Sys_error m ->
        Log.info (fun f -> f "cannot read entry %s (%s)" path m);
        None

(** [build_text ?cache_dir text] returns the tables for a
    specification given as text, via the cache.  On a miss, the lineage
    pointer is consulted for the previous build of the same target's
    line: when one loads, the rebuild is incremental —
    {!Cogg_build.build_incremental} splices every artifact the edit
    left untouched — and still byte-identical to a scratch build, so
    the stored entry is the same either way. *)
let build_text ?target ?cache_dir (text : string) :
    (Tables.t * origin, Cogg_build.error list) result =
  let path = entry_path ?target ?cache_dir text in
  let lpath = lineage_path ?target ?cache_dir () in
  match load path with
  | Some t ->
      Metrics.add m_hits 1;
      (* keep the lineage pointing at the newest build, so the *next*
         edit diffs against this revision *)
      store_lineage lpath (Filename.basename path);
      Log.info (fun f -> f "hit %s" path);
      Ok (t, Cache_hit)
  | None -> (
      Metrics.add m_misses 1;
      let previous =
        match read_lineage lpath with
        | Some name when name <> Filename.basename path ->
            load (Filename.concat (Filename.dirname path) name)
        | _ -> None
      in
      let built =
        match previous with
        | Some prev ->
            Cogg_build.build_incremental_string ?target ~previous:prev text
        | None ->
            Result.map
              (fun t ->
                (t, Cogg_build.
                     {
                       spliced_tables = false;
                       templates_reused = 0;
                       templates_recompiled = 0;
                     }))
              (Cogg_build.build_string ?target text)
      in
      match built with
      | Error es -> Error es
      | Ok (t, st) ->
          store path (Tables_io.write t);
          store_lineage lpath (Filename.basename path);
          let origin =
            if
              st.Cogg_build.spliced_tables
              || st.Cogg_build.templates_reused > 0
            then Built_incremental st
            else Built
          in
          Log.info (fun f -> f "miss; %a: %s" pp_origin origin path);
          Ok (t, origin))

(** [build_file ?cache_dir path] is {!build_text} over the file's
    contents: the digest covers the text, so editing the spec in place is
    a clean miss, not a stale hit. *)
let build_file ?target ?cache_dir (path : string) :
    (Tables.t * origin, Cogg_build.error list) result =
  match read_file path with
  | text -> build_text ?target ?cache_dir text
  | exception Sys_error m -> Error [ { Cogg_build.line = 0; msg = m } ]
