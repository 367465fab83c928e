(** A Domain-based worker pool for batch compilation: a batch's
    compiles, the daemon's, and the fuzz engine's rounds.

    The pool owns [size - 1] long-lived worker domains; the caller's own
    domain participates in every parallel region, so a pool of size 1
    spawns nothing and runs everything inline.  Work is distributed by
    chunked index claiming over an atomic cursor, which keeps the
    per-element overhead at one fetch-and-add per chunk and makes the
    result array's element order independent of scheduling: [map] always
    returns results positioned by input index, so parallel output is
    deterministic whenever [f] itself is. *)

type t

exception Worker_failed of int
(** A worker finished a parallel region without placing a result and
    without reporting an exception (an abnormally terminated domain);
    carries the index of the abandoned input.  A registered
    [Printexc] printer renders it descriptively. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool of [domains] total workers
    (including the calling domain); defaults to
    [Domain.recommended_domain_count ()].  Clamped to [1, 128]. *)

val size : t -> int
(** Total parallelism, including the calling domain. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] applies [f] to every element, in parallel, and
    returns the results in input order.  If any application raises, the
    remaining chunks are abandoned, every worker is joined back to an
    idle state, and the first exception observed is re-raised in the
    caller (exception-safe join: the pool remains usable). *)

val maybe : t option -> ('a -> 'b) -> 'a array -> 'b array
(** [maybe pool f arr] is [map] when a pool is supplied and a plain
    sequential [Array.map] otherwise — the sequential fallback every
    [?pool] entry point shares. *)

val shutdown : t -> unit
(** Join and tear down the worker domains.  Idempotent; the pool must be
    idle (no [map] in flight). *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val run_parallel : t -> (int -> unit) array -> unit
(** [run_parallel pool thunks] runs every thunk (passed its own index)
    across the pool; a bare fork-join for heterogeneous work such as
    concurrent-store tests.  Same exception behaviour as [map]. *)
