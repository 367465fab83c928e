(** Client side of the [pascd] compile service.

    A thin blocking wrapper over {!Wire} for one-shot requests, plus an
    interleaved batch submitter that never deadlocks against the
    daemon's synchronous replies: {!compile_batch} multiplexes sends
    and receives through [select], so replies are drained while
    requests are still going out and neither side can stall on a full
    socket buffer. *)

type t

val connect : string -> (t, string) result
(** Connect to the daemon's Unix-domain socket at the given path.  The
    connection reads every reply through its one {!Wire.inbuf}. *)

val close : t -> unit

val request : t -> Wire.request -> (Wire.reply, string) result
(** Send one request and block for one reply.  Only safe when no other
    replies are in flight on this connection. *)

val ping : t -> (unit, string) result
val stats : t -> (string, string) result

val pause : t -> int -> (unit, string) result
(** Ask the daemon to stop draining its compile queue for [ms]
    milliseconds (the backpressure test hook). *)

val shutdown : t -> (unit, string) result
(** Ask the daemon to drain and exit; waits for [Bye]. *)

val compile : t -> string -> (Wire.reply, string) result
(** Compile one source (request id 0). *)

val compile_batch :
  t -> ?retry:bool -> string array -> (Wire.reply array, string) result
(** Submit every source (ids [0..n-1]) and collect all replies, indexed
    by id — so the array lines up with the input whatever order the
    daemon answered in, and [Wire.fingerprint] of the result is
    comparable to [Pipeline.Batch.fingerprint] of a direct batch.

    [retry] (default [false]) honors the daemon's backoff hint: any
    [Overloaded] slots are resubmitted exactly once, after sleeping the
    longest [retry_after_ms] among them.  A slot rejected twice keeps
    its [Overloaded] reply — the bound is what keeps a saturated daemon
    from turning the client into a hot retry loop. *)
