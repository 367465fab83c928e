(** The [pascd] daemon loop.

    Single-threaded event loop (select over the listen socket and every
    connection) plus a {!Cogg.Pool} for the compiles themselves:

    - frames are parsed incrementally per connection, out of one
      growable receive buffer that [Unix.read] fills in place;
    - a compile request first probes the result cache — a verified hit
      is answered inline, right in the event loop, with no pool
      round-trip (the fast path the benchmark measures);
    - everything else joins a bounded pending queue (full queue =>
      [Overloaded], the admission-control contract) and is drained in
      batches through [Pipeline.Batch.map_largest_first], exactly like
      [Pipeline.Batch.compile_all] — so a served batch is byte-identical
      to a direct one;
    - [Pause n] suspends draining for [n] ms without suspending
      admission, which lets a test fill the queue deterministically.

    The loop thread owns every mutable structure here, the result cache
    included; the pool's domains run [run_compile] and nothing else.

    Replies are written synchronously; a client that floods requests
    without reading replies can stall the loop on a full socket buffer
    (documented in DESIGN.md — acceptable for a trusted local service,
    where clients are our own [Client] module, which interleaves reads
    with writes). *)

let src = Logs.Src.create "cogg.serve" ~doc:"pascd compile service"

module Log = (val Logs.src_log src : Logs.LOG)

(* a cache entry: the reply body plus whether the determinism gate has
   confirmed it against a fresh compile *)
type entry = { body : Wire.outcome; mutable verified : bool }

type conn = {
  fd : Unix.file_descr;
  inb : Wire.inbuf;  (** received bytes not yet framed *)
  mutable alive : bool;
}

type job = {
  j_conn : conn;
  j_id : int;
  j_source : string;
  j_key : string;
  j_expect : entry option;
      (** an unverified cached entry to gate the fresh compile against *)
}

type t = {
  tables : Cogg.Tables.t;
  pool : Cogg.Pool.t option;
  sock : Unix.file_descr;
  socket_path : string;
  queue_capacity : int;
  cache : entry Result_cache.t;
  pending : job Queue.t;
  mutable conns : conn list;
  mutable accepting : bool;
      (** false after [accept] ran out of descriptors: the listening
          socket stays readable then, so it is left out of [select]
          until a connection closes, or until a [select] times out (an
          [ENFILE] is freed by other processes, not by our clients) *)
  mutable pause_until : float;
  mutable stop : bool;
  mutable n_requests : int;
  mutable n_compiles : int;
  mutable n_inline_hits : int;
  mutable n_verified_hits : int;
  mutable n_overloaded : int;
  mutable n_gate_failures : int;
  mutable n_oversized : int;
}

let stats_text (t : t) : string =
  let cache = Result_cache.stats t.cache in
  let b = Buffer.create 256 in
  let line k v = Buffer.add_string b (Printf.sprintf "%s %d\n" k v) in
  line "requests" t.n_requests;
  line "compiles" t.n_compiles;
  line "inline_hits" t.n_inline_hits;
  line "verified_hits" t.n_verified_hits;
  line "overloaded" t.n_overloaded;
  line "gate_failures" t.n_gate_failures;
  line "oversized" t.n_oversized;
  line "cache_hits" cache.Result_cache.hits;
  line "cache_misses" cache.Result_cache.misses;
  line "cache_evictions" cache.Result_cache.evictions;
  line "cache_entries" cache.Result_cache.entries;
  line "queue_capacity" t.queue_capacity;
  line "pool_size"
    (match t.pool with Some p -> Cogg.Pool.size p | None -> 1);
  Buffer.add_string b
    (Printf.sprintf "target %s\n"
       t.tables.Cogg.Tables.target.Machine.Target.name);
  Buffer.contents b

(* -- the compile itself ------------------------------------------------------- *)

(** One compilation, [Pipeline.compile]'s defaults, exceptions
    contained (a crash must fail one request, not the pool batch it rode
    in). *)
let run_compile (tables : Cogg.Tables.t) (source : string) : Wire.outcome =
  match Pipeline.compile tables source with
  | Ok c ->
      Ok (c.Pipeline.gen.Cogg.Codegen.listing, Pipeline.Batch.code_bytes c)
  | Error m -> Error m
  | exception e -> Error ("internal: " ^ Printexc.to_string e)

(* -- connection plumbing ------------------------------------------------------ *)

let close_conn (t : t) (c : conn) =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    (* a descriptor is free again *)
    t.accepting <- true
  end

let send (t : t) (c : conn) (r : Wire.reply) =
  if c.alive then begin
    (* encode once, straight into the frame; a reply too big for the
       wire (a pathological listing or object image) is replaced by a
       structured error the client can actually receive, instead of an
       un-receivable frame that would get the connection dropped at the
       peer's length check *)
    let o = Wire.out () in
    (try Wire.add_reply o r
     with Wire.Frame_too_large n ->
       t.n_oversized <- t.n_oversized + 1;
       Log.warn (fun f -> f "reply of %d bytes exceeds the frame cap" n);
       Wire.add_reply o (Wire.oversized_substitute r ~size:n));
    try Wire.write_out c.fd o
    with Unix.Unix_error _ | Sys_error _ ->
      Log.info (fun f -> f "client went away mid-reply");
      close_conn t c
  end

(* -- request handling --------------------------------------------------------- *)

(** The backoff hint an overloaded reply carries: the remainder of any
    active pause (during which the queue cannot drain at all) plus a
    small per-queued-job estimate, so a deeper queue asks for a longer
    wait.  A hint, not a promise — the client's retry still goes through
    admission control like any other request. *)
let retry_after_ms (t : t) : int =
  let pause_ms =
    let rem = t.pause_until -. Unix.gettimeofday () in
    if rem > 0. then int_of_float (Float.ceil (rem *. 1000.)) else 0
  in
  pause_ms + (2 * Queue.length t.pending) + 1

let enqueue (t : t) (job : job) =
  if Queue.length t.pending >= t.queue_capacity then begin
    t.n_overloaded <- t.n_overloaded + 1;
    send t job.j_conn
      (Wire.Overloaded { id = job.j_id; retry_after_ms = retry_after_ms t })
  end
  else Queue.add job t.pending

(* The result-cache key is the source's digest alone: a daemon serves
   one [Tables.t] for its whole life and compiles every request the same
   way, so the source is all that can tell two compiles apart. *)
let handle_compile (t : t) (c : conn) ~id (source : string) =
  let key = Digest.string source in
  let job expect =
    {
      j_conn = c;
      j_id = id;
      j_source = source;
      j_key = key;
      j_expect = expect;
    }
  in
  match Result_cache.find t.cache key with
  | Some e when e.verified ->
      (* the fast path: a verified hit never touches the pool — answered
         right here in the event loop *)
      t.n_inline_hits <- t.n_inline_hits + 1;
      send t c (Wire.Compiled { id; cached = true; outcome = e.body })
  | Some e -> enqueue t (job (Some e))
  | None -> enqueue t (job None)

let handle_request (t : t) (c : conn) (req : Wire.request) =
  t.n_requests <- t.n_requests + 1;
  match req with
  | Wire.Compile { id; source } -> handle_compile t c ~id source
  | Wire.Stats -> send t c (Wire.Stats_reply (stats_text t))
  | Wire.Ping -> send t c Wire.Ack
  | Wire.Pause ms ->
      t.pause_until <- Unix.gettimeofday () +. (float_of_int ms /. 1000.);
      send t c Wire.Ack
  | Wire.Shutdown ->
      t.stop <- true;
      send t c Wire.Bye

(* -- queue draining ----------------------------------------------------------- *)

(** Drain every pending compile through the pool in one batch, claimed
    largest source first and placed by index (the same helper and the
    same determinism argument as [Batch.compile_all]), then apply the
    cache policy and reply in request order. *)
let drain (t : t) =
  if not (Queue.is_empty t.pending) then begin
    let jobs = Array.of_seq (Queue.to_seq t.pending) in
    Queue.clear t.pending;
    let results =
      Pipeline.Batch.map_largest_first t.pool
        ~size:(fun j -> String.length j.j_source)
        (fun j -> run_compile t.tables j.j_source)
        jobs
    in
    t.n_compiles <- t.n_compiles + Array.length jobs;
    Array.iteri
      (fun i (j : job) ->
        let fresh = results.(i) in
        match j.j_expect with
        | Some e ->
            if e.body = fresh then begin
              (* determinism gate passed: the cached bytes are what a
                 fresh compile produces *)
              e.verified <- true;
              t.n_verified_hits <- t.n_verified_hits + 1;
              send t j.j_conn
                (Wire.Compiled { id = j.j_id; cached = true; outcome = fresh })
            end
            else begin
              (* gate failure: cache the fresh bytes over the lying
                 entry, serve them, and count it loudly — this should
                 never happen while the determinism oracle holds *)
              t.n_gate_failures <- t.n_gate_failures + 1;
              Log.err (fun f ->
                  f "determinism gate failure for key %s (entry replaced)"
                    (Digest.to_hex j.j_key));
              Result_cache.store t.cache j.j_key
                { body = fresh; verified = false };
              send t j.j_conn
                (Wire.Compiled { id = j.j_id; cached = false; outcome = fresh })
            end
        | None ->
            Result_cache.store t.cache j.j_key
              { body = fresh; verified = false };
            send t j.j_conn
              (Wire.Compiled { id = j.j_id; cached = false; outcome = fresh }))
      jobs
  end

(* -- frame extraction --------------------------------------------------------- *)

(** Consume every complete frame buffered on the connection; a protocol
    violation (oversized frame, undecodable request) drops the
    connection — there is no way to resynchronize a framed stream. *)
let rec process_frames (t : t) (c : conn) =
  match Wire.next_frame c.inb with
  | None -> ()
  | exception Failure m ->
      Log.warn (fun f -> f "dropping client: %s" m);
      close_conn t c
  | Some (pos, len) -> (
      match Wire.decode_request_in c.inb.Wire.bytes ~pos ~len with
      | Error m ->
          Log.warn (fun f -> f "dropping client: %s" m);
          close_conn t c
      | Ok req ->
          handle_request t c req;
          if c.alive && not t.stop then process_frames t c)

let on_readable (t : t) (c : conn) =
  match Wire.read_into c.fd c.inb with
  | 0 -> close_conn t c
  | _ ->
      process_frames t c;
      Wire.drained c.inb
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn t c

(* -- lifecycle ---------------------------------------------------------------- *)

let create ?pool ?(queue_capacity = 64) ?(cache_capacity = 256) ~socket_path
    (tables : Cogg.Tables.t) : (t, string) result =
  (* the cache's correctness premise, checked before we serve a single
     byte: recompiling a known program is byte-identical *)
  match Fuzz.Oracle.determinism tables Pipeline.Programs.gcd with
  | (Fuzz.Oracle.Fail _ | Fuzz.Oracle.Crash _ | Fuzz.Oracle.Skip _) as st ->
      Error
        (Fmt.str "determinism self-check failed: %a" Fuzz.Oracle.pp_status st)
  | Fuzz.Oracle.Pass -> (
      try
        if Sys.file_exists socket_path then Sys.remove socket_path;
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX socket_path);
        Unix.listen sock 64;
        Ok
          {
            tables;
            pool;
            sock;
            socket_path;
            queue_capacity = max 1 queue_capacity;
            cache = Result_cache.create ~capacity:cache_capacity;
            pending = Queue.create ();
            conns = [];
            accepting = true;
            pause_until = 0.;
            stop = false;
            n_requests = 0;
            n_compiles = 0;
            n_inline_hits = 0;
            n_verified_hits = 0;
            n_overloaded = 0;
            n_gate_failures = 0;
            n_oversized = 0;
          }
      with
      | Unix.Unix_error (e, _, _) ->
          Error
            (Fmt.str "cannot bind %s: %s" socket_path (Unix.error_message e))
      | Sys_error m -> Error m)

let run (t : t) : unit =
  (* a client closing mid-write must be an EPIPE error, not a signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Log.info (fun f -> f "serving on %s" t.socket_path);
  while not t.stop do
    let now = Unix.gettimeofday () in
    let paused = now < t.pause_until in
    if not paused then drain t;
    let timeout =
      if paused then Float.max 0.001 (t.pause_until -. now) else 1.0
    in
    let fds = List.map (fun c -> c.fd) t.conns in
    let fds = if t.accepting then t.sock :: fds else fds in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> t.accepting <- true
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.sock then begin
              match Unix.accept t.sock with
              | cfd, _ ->
                  t.conns <-
                    { fd = cfd; inb = Wire.inbuf (); alive = true } :: t.conns
              | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _)
                ->
                  Log.warn (fun f ->
                      f "out of descriptors: not accepting until a client leaves");
                  t.accepting <- false
              | exception Unix.Unix_error _ -> ()
            end
            else
              match List.find_opt (fun c -> c.fd = fd) t.conns with
              | Some c -> on_readable t c
              | None -> ())
          readable
  done;
  (* answer whatever was admitted before the shutdown frame *)
  drain t;
  List.iter (fun c -> close_conn t c) t.conns;
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (try Sys.remove t.socket_path with Sys_error _ -> ());
  Log.info (fun f -> f "shut down")
