(** Content-addressed, in-memory result cache.

    The compile service's second cache tier: where {!Cogg.Tables_cache}
    amortizes table {e construction} across processes, this caches the
    {e output} of individual compilations within a long-lived process,
    keyed by a content digest of (table identity, option fingerprint,
    source text).  Because every compile is deterministic (the fuzz
    subsystem's byte-identical-recompile oracle), a cached value is
    exactly what a fresh compile would produce — the service still
    gates hits against that property (see {!Server}).

    It holds exactly [capacity] entries: storing a new key into a full
    cache evicts the oldest key stored (insertion order, FIFO).

    Single owner: an instance is not safe to share between threads or
    domains.  The service touches it only from its event-loop thread,
    never from the pool's domains, so it needs no lock.  Hit, miss and
    eviction counts are plain per-instance fields. *)

type 'v t

type stats = { hits : int; misses : int; evictions : int; entries : int }

val create : capacity:int -> 'v t
(** An empty cache holding at most [capacity] entries (at least one). *)

val find : 'v t -> string -> 'v option
(** Look the key up, counting a hit or a miss. *)

val store : 'v t -> string -> 'v -> unit
(** Insert (or replace) the key's value.  A new key stored into a full
    cache first evicts the oldest entry; replacement keeps the key's
    original age. *)

val length : 'v t -> int
(** Current number of entries. *)

val stats : 'v t -> stats
(** This instance's counters and entry count. *)
