(** The [pascd] daemon: a persistent compile service over a
    Unix-domain socket.

    One process loads the driving tables once (through
    {!Cogg.Tables_cache}), then serves {!Wire} compile requests from
    many clients, scheduling misses onto a {!Cogg.Pool} and answering
    repeated compilations from a {!Result_cache} keyed by the source's
    digest.  Every request compiles as [Pipeline.compile tables source]
    does, with its defaults; the tables are the daemon's for its whole
    life, so the source is the whole key.

    Correctness gate: every compile is deterministic (the fuzz
    subsystem's oracle), so a cached response must be byte-identical to
    a fresh compile.  The daemon enforces this twice — once at startup
    (the determinism oracle must pass on a known program before the
    socket opens) and once per cache entry (its first hit recompiles
    and compares; a mismatch caches the fresh bytes over the entry,
    bumps [gate_failures] and serves them).

    Single owner: while {!run} runs, its thread alone touches the [t] —
    connections, queue, counters and result cache; the pool's domains
    run the compiles themselves and nothing else.  Call {!stats_text}
    before or after {!run}, not beside it.

    Admission control: compile requests wait in a bounded queue; when
    it is full the request is answered [Overloaded] immediately and
    nothing is compiled — a loaded daemon degrades by refusing work,
    never by growing without bound. *)

type t

val create :
  ?pool:Cogg.Pool.t ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  socket_path:string ->
  Cogg.Tables.t ->
  (t, string) result
(** Bind the socket and prepare the serve state.  [queue_capacity]
    bounds the pending-compile queue (default 64); [cache_capacity] the
    result cache (default 256 entries).  The determinism oracle runs on
    a known program before binding; if it fails, nothing is served.  A
    stale socket file at [socket_path] is replaced.  A listening socket
    whose descriptor [select] cannot watch (1024 or above) is an
    [Error]. *)

val run : t -> unit
(** Serve until a [Shutdown] request arrives: accept connections, parse
    frames, answer cache hits inline, drain queued compiles through the
    pool.  Pending compiles are drained (and answered) before the
    socket is closed and unlinked.  Out of descriptors, or handed one
    [select] cannot watch (which it closes at once, dropping that
    connection), it stops accepting until a connection closes. *)

val stats_text : t -> string
(** The [Stats_reply] rendering: one [key value] per line, in this
    order: [requests] (frames decoded, any kind), [compiles]
    (compilations run on the pool), [inline_hits] (hits answered without
    compiling), [verified_hits] (hits that recompiled and compared
    equal), [overloaded] (requests refused by admission control),
    [gate_failures] (cached bytes that differed from a fresh compile),
    [oversized] (replies too large for the wire, answered by a
    structured error), the result cache's [cache_hits], [cache_misses],
    [cache_evictions] and [cache_entries], [queue_capacity],
    [pool_size], and last the served [target]'s name. *)
