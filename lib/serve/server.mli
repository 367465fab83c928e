(** The [pascd] daemon: a persistent compile service over a
    Unix-domain socket.

    One process loads the driving tables once (through
    {!Cogg.Tables_cache}), then serves {!Wire} compile requests from
    many clients, scheduling misses onto a {!Cogg.Pool} and answering
    repeated compilations from a sharded {!Cogg.Result_cache} keyed by
    (table digest, option fingerprint, source digest).

    Correctness gate: every compile is deterministic (the fuzz
    subsystem's oracle), so a cached response must be byte-identical to
    a fresh compile.  The daemon enforces this twice — once at startup
    (the determinism oracle must pass on a known program before the
    socket opens) and, under the default [Verify_once] policy, once per
    cache entry (the first hit recompiles and compares; a mismatch
    expels the entry, bumps [gate_failures] and serves the fresh
    bytes).

    Admission control: compile requests wait in a bounded queue; when
    it is full the request is answered [Overloaded] immediately and
    nothing is compiled — a loaded daemon degrades by refusing work,
    never by growing without bound. *)

type verify_mode =
  | Verify_never  (** trust the cache (benchmark fast path) *)
  | Verify_once
      (** first hit per entry recompiles and compares; later hits are
          served inline (the default) *)
  | Verify_always  (** every hit recompiles and compares (test mode) *)

type stats = {
  requests : int;  (** frames decoded, any kind *)
  compiles : int;  (** compilations actually run on the pool *)
  inline_hits : int;  (** hits answered without compiling *)
  verified_hits : int;  (** hits that recompiled, compared equal *)
  overloaded : int;  (** requests refused by admission control *)
  gate_failures : int;  (** cached bytes differed from a fresh compile *)
  oversized : int;
      (** replies too large for the wire, answered by a structured
          error instead *)
  cache : Cogg.Result_cache.stats;
}

type t

val create :
  ?pool:Cogg.Pool.t ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?cache_shards:int ->
  ?verify:verify_mode ->
  ?self_check:bool ->
  table_key:string ->
  socket_path:string ->
  Cogg.Tables.t ->
  (t, string) result
(** Bind the socket and prepare the serve state.  [table_key] is the
    table bundle's cache key ({!Cogg.Tables_cache.key}), mixed into
    every result-cache key so results from different specifications (or
    targets) can never be confused.  [queue_capacity] bounds the
    pending-compile queue (default 64); [cache_capacity] the result
    cache (default 256 entries over [cache_shards] shards).
    [self_check] (default true) runs the determinism oracle on a known
    program before binding and refuses to serve if it fails.  A stale
    socket file at [socket_path] is replaced. *)

val run : t -> unit
(** Serve until a [Shutdown] request arrives: accept connections, parse
    frames, answer cache hits inline, drain queued compiles through the
    pool.  Pending compiles are drained (and answered) before the
    socket is closed and unlinked. *)

val stats : t -> stats
val stats_text : t -> string
(** The [Stats_reply] rendering: one [key value] per line. *)
