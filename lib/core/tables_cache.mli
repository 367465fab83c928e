(** On-disk cache of built table bundles, keyed by a content digest of the
    specification (plus lookahead mode and serialization-format version).

    A hit loads the {!Tables_io} bundle and skips LR construction
    entirely; a miss builds with {!Cogg_build} and stores the result.
    A bundle's MD5 is checked before anything in it is decoded, so
    corrupt, truncated or stale entries are always a miss and a rebuild,
    never an error and never a wrong hit.  Entries live in
    [$COGG_CACHE_DIR], else [$XDG_CACHE_HOME/cogg], else [_cache/] under
    the working directory. *)

type origin = Cache_hit | Built | Built_incremental of Cogg_build.incr_stats
(** [Built_incremental] is a miss answered by splicing the previous
    build of the same lineage ({!Cogg_build.build_incremental}); the
    stored bytes are identical to a scratch build, only cheaper. *)

val pp_origin : Format.formatter -> origin -> unit

val default_max_entries : int
(** The entry-count cap {!prune} enforces when neither [?max_entries]
    nor [$COGG_CACHE_MAX_ENTRIES] overrides it. *)

val prune : ?cache_dir:string -> ?max_entries:int -> unit -> int
(** Enforce the size cap on a cache directory: when it holds more than
    [max_entries] (default [$COGG_CACHE_MAX_ENTRIES], else
    {!default_max_entries}) bundle entries, delete the excess
    oldest-first by modification time (ties by name, so the victim set
    is deterministic).  Also delete the temp files of entries and
    lineage pointers whose writer's process is gone (a writer killed
    before its rename); a live writer's temp file stays.  Returns the
    number of files deleted.  Best effort and race-tolerant —
    concurrently removed files are skipped, errors are swallowed.
    Every successful [store] runs this automatically, so a long-lived
    daemon's cache directory stays bounded. *)

val key : ?target:Machine.Target.t -> mode:Lookahead.mode -> string -> string
(** Digest a specification text into its cache key.  The [target]'s name
    (default: the Amdahl 470) is part of the key, so the same spec text
    checked against two machines never shares an entry. *)

val entry_path :
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  ?cache_dir:string ->
  string ->
  string
(** [entry_path spec_text] is the cache file a given specification text
    maps to (whether or not it exists yet). *)

val lineage_path :
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  ?cache_dir:string ->
  unit ->
  string
(** The pointer file naming the newest entry of a (mode, target)
    lineage — everything in the key except the spec text.  A
    miss follows it to the previous partial build and rebuilds
    incrementally; it is refreshed on every hit and store. *)

val build_text :
  ?pool:Pool.t ->
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  ?cache_dir:string ->
  string ->
  (Tables.t * origin, Cogg_build.error list) result
(** Tables for a specification given as text, through the cache.
    [pool] parallelizes the build on a miss; the stored bundle is
    byte-identical at any worker count.  [target] selects the machine
    substrate the spec is checked against. *)

val build_file :
  ?pool:Pool.t ->
  ?mode:Lookahead.mode ->
  ?target:Machine.Target.t ->
  ?cache_dir:string ->
  string ->
  (Tables.t * origin, Cogg_build.error list) result
(** Tables for a specification file, through the cache.  The key covers
    the file's contents, so an edited spec is a clean miss. *)
