(** Wire protocol of the [pascd] compile service.

    Frames are length-prefixed: a 32-bit big-endian payload length
    followed by the payload, in both directions.  Payloads are tagged by
    their first byte and carry fixed-width integers big-endian, so the
    encoding is byte-identical across platforms and a capture of one
    session replays exactly.

    The protocol is deliberately minimal: one request per frame, one
    reply per request, replies matched to compile requests by the
    caller-chosen [id] (replies may arrive out of request order — cached
    results are answered inline while misses wait for the compile
    pool). *)

type request =
  | Compile of { id : int; source : string }
      (** compile [source] as [Pipeline.compile] does with its defaults *)
  | Stats  (** counters snapshot, as a [Stats_reply] text *)
  | Ping  (** liveness probe; answered [Ack] *)
  | Pause of int
      (** stop draining the compile queue for this many milliseconds
          (admission control keeps running, so the queue fills and
          overflow requests get [Overloaded]) — the deterministic
          backpressure test hook *)
  | Shutdown  (** drain, answer [Bye], exit the serve loop *)

type outcome = (string * string, string) result
(** A compile's observable output: [Ok (listing, object_bytes)] or
    [Error message] — the same bytes {!Pipeline.Batch.fingerprint}
    digests. *)

type reply =
  | Compiled of { id : int; cached : bool; outcome : outcome }
  | Overloaded of { id : int; retry_after_ms : int }
      (** admission control rejected the request: the pending queue was
          full.  Nothing was compiled.  [retry_after_ms] is the server's
          backoff hint — how long it expects to need before the queue
          has room (derived from any active pause plus the queue depth);
          0 means "retry whenever". *)
  | Stats_reply of string
      (** [key value] lines, the last naming the serving target *)
  | Ack
  | Bye

val max_frame : int
(** Upper bound on payload sizes in both directions (defence against
    garbage on the socket, not a protocol limit).  The read side rejects
    larger length prefixes; {!add_request} and {!add_reply} refuse to
    frame them. *)

exception Frame_too_large of int
(** Raised by {!add_request} and {!add_reply}, with the payload's size,
    when a payload exceeds {!max_frame}; the frame is taken back out of
    the buffer first, so no byte of it is ever sent.  An oversized frame
    could never be received, so sending it would only desynchronize the
    stream. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run [f], retrying on [EINTR] — the wrapper every blocking
    [read]/[write]/[select] in this protocol goes through, so signal
    delivery (timers, profilers) can never tear a frame. *)

val oversized_substitute : reply -> size:int -> reply
(** The reply a server sends in place of one whose encoding came out at
    [size] > {!max_frame}: same id, structured [Error] outcome.  Its own
    encoding always fits. *)

type out
(** Outgoing frames, encoded in place: each frame's 4-byte length is
    reserved, its payload written straight after it, and the length
    patched in; one buffer can hold several frames back to back, and a
    payload's strings are copied once, into these bytes. *)

val out : unit -> out
(** An empty buffer. *)

val add_request : out -> request -> unit
(** Append one length-prefixed request frame.  Raises
    {!Frame_too_large}, leaving the buffer as it was. *)

val add_reply : out -> reply -> unit
(** Append one length-prefixed reply frame.  Raises
    {!Frame_too_large}, leaving the buffer as it was. *)

val out_bytes : out -> Bytes.t
val out_length : out -> int
(** The frames are [Bytes.sub (out_bytes o) 0 (out_length o)]. *)

val write_out : Unix.file_descr -> out -> unit
(** Write every frame in the buffer, looping until all bytes are out.
    Raises [Unix.Unix_error] on a dead peer. *)

val decode_request_in :
  Bytes.t -> pos:int -> len:int -> (request, string) result
(** [decode_request_in b ~pos ~len] decodes the payload held in [len]
    bytes of [b] from [pos], as a receive buffer holds it: a compile
    request's source is copied once, out of [b].  A payload it cannot
    read, a compile frame in the retired ['C'] format among them, is an
    [Error]. *)

val decode_reply_in : Bytes.t -> pos:int -> len:int -> (reply, string) result
(** Decode a reply payload in place, as {!decode_request_in}: a compile
    reply's listing and code are each copied once, out of [b]; an
    [Overloaded] payload shorter than its 9 bytes is an [Error]. *)

(** {2 Receive buffers}

    The one frame reader: the daemon and the client each keep one
    buffer per connection.  It holds the connection's received bytes
    not yet framed, in [\[start, stop)] of [bytes]; each read lands in
    place after [stop].  A full buffer first slides its unframed bytes
    to the front; when the frame in progress cannot fit, they move to a
    new buffer of twice the size, or of the frame's whole length once
    its prefix is in.  So a frame's bytes are copied a bounded number of
    times however they arrive, and a frame is decoded where it lies
    ({!decode_request_in}, {!decode_reply_in}). *)

type inbuf = {
  mutable bytes : Bytes.t;
  mutable start : int;
  mutable stop : int;
}

val inbuf : unit -> inbuf

val read_into : Unix.file_descr -> inbuf -> int
(** One [Unix.read] into the buffer, after making room; the count read,
    0 at end of stream.  Raises [Unix.Unix_error] as [Unix.read] does. *)

val next_frame : inbuf -> (int * int) option
(** The position and length of the next complete frame's payload, which
    it consumes; [None] until one is complete.  Raises [Failure] on a
    length prefix over {!max_frame}. *)

val drained : inbuf -> unit
(** When every received byte has been framed, rewind the buffer and
    shrink it back to its starting size. *)

val fingerprint : reply array -> string
(** Digest an id-ordered reply array exactly the way
    {!Pipeline.Batch.fingerprint} digests its result array: a served
    batch and a direct batch produced the same compilations iff the two
    fingerprints are equal.  Non-[Compiled] replies fold in a distinct
    separator so a dropped or overloaded slot can never collide with a
    real result. *)
