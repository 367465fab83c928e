(** Wire protocol of the [pascd] compile service: length-prefixed
    frames, tagged payloads, big-endian integers.  See wire.mli for the
    frame grammar; this module is pure encoding plus the one receive
    buffer both ends read frames through. *)

type request =
  | Compile of { id : int; source : string }
  | Stats
  | Ping
  | Pause of int
  | Shutdown

type outcome = (string * string, string) result

type reply =
  | Compiled of { id : int; cached : bool; outcome : outcome }
  | Overloaded of { id : int; retry_after_ms : int }
  | Stats_reply of string
  | Ack
  | Bye

(* 16 MiB: far above any real listing + object image, far below what a
   corrupt length prefix could ask us to allocate *)
let max_frame = 1 lsl 24

exception Frame_too_large of int

(* -- outgoing frames -------------------------------------------------------- *)

(* Frames are encoded in place: [frame] reserves a frame's 4-byte length
   at the end of the buffer, the payload's encoder writes straight after
   it, and the length is patched in when the payload is done.  A buffer
   can hold several frames back to back.  Each frame first reserves room
   for its whole payload (a compile request's source, a reply's listing
   and code), so a payload's strings are copied once, into the bytes
   that go to the socket. *)
type out = { mutable buf : Bytes.t; mutable len : int }

let out () = { buf = Bytes.create 256; len = 0 }
let out_bytes o = o.buf
let out_length o = o.len

let reserve o n =
  if o.len + n > Bytes.length o.buf then begin
    let nb = Bytes.create (max (o.len + n) (2 * Bytes.length o.buf)) in
    Bytes.blit o.buf 0 nb 0 o.len;
    o.buf <- nb
  end

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.buf o.len c;
  o.len <- o.len + 1

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.blit_string s 0 o.buf o.len n;
  o.len <- o.len + n

let set_u32 b pos n =
  Bytes.set b pos (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b (pos + 1) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b (pos + 2) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b (pos + 3) (Char.chr (n land 0xff))

let put_u32 o n =
  reserve o 4;
  set_u32 o.buf o.len n;
  o.len <- o.len + 4

(* One frame of the payload [encode] writes, [size] bytes or about.  The
   cap holds on the send side too: the receiver would reject the length
   prefix anyway, so a payload over [max_frame] is taken back out and
   refused before any byte of it can go out, which leaves the stream
   clean for a recovery reply. *)
let frame o ~size encode =
  let start = o.len in
  reserve o (4 + size);
  o.len <- start + 4;
  encode o;
  let n = o.len - start - 4 in
  if n > max_frame then begin
    o.len <- start;
    raise (Frame_too_large n)
  end;
  set_u32 o.buf start n

(* -- requests ----------------------------------------------------------------- *)

let request_size = function
  | Compile { source; _ } -> 5 + String.length source
  | Stats | Ping | Pause _ | Shutdown -> 5

let encode_request_into o (r : request) =
  match r with
  | Compile { id; source } ->
      (* 'c': a frame in the retired 'C' format (id, then three option
         bytes) is refused as an unknown request, not read as source *)
      add_char o 'c';
      put_u32 o id;
      add_string o source
  | Stats -> add_char o 'S'
  | Ping -> add_char o 'P'
  | Pause ms ->
      add_char o 'Z';
      put_u32 o ms
  | Shutdown -> add_char o 'Q'

let add_request o r =
  frame o ~size:(request_size r) (fun o -> encode_request_into o r)

(* A payload is decoded where it lies, [len] bytes of [b] from [pos]:
   the strings a message carries are its only copies. *)
let get_u32 b pos =
  (Char.code (Bytes.get b pos) lsl 24)
  lor (Char.code (Bytes.get b (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get b (pos + 2)) lsl 8)
  lor Char.code (Bytes.get b (pos + 3))

let decode_request_in (b : Bytes.t) ~(pos : int) ~(len : int) :
    (request, string) result =
  if len = 0 then Error "empty request frame"
  else
    match Bytes.get b pos with
    | 'c' ->
        if len < 5 then Error "truncated compile request"
        else
          Ok
            (Compile
               {
                 id = get_u32 b (pos + 1);
                 source = Bytes.sub_string b (pos + 5) (len - 5);
               })
    | 'S' -> Ok Stats
    | 'P' -> Ok Ping
    | 'Z' ->
        if len < 5 then Error "truncated pause request"
        else Ok (Pause (get_u32 b (pos + 1)))
    | 'Q' -> Ok Shutdown
    | c -> Error (Printf.sprintf "unknown request tag %d" (Char.code c))

(* -- replies ------------------------------------------------------------------ *)

let reply_size = function
  | Compiled { outcome = Ok (listing, code); _ } ->
      11 + String.length listing + String.length code
  | Compiled { outcome = Error msg; _ } -> 7 + String.length msg
  | Overloaded _ -> 9
  | Stats_reply text -> 1 + String.length text
  | Ack | Bye -> 1

let encode_reply_into o (r : reply) =
  match r with
  | Compiled { id; cached; outcome } -> (
      add_char o 'R';
      put_u32 o id;
      add_char o (if cached then '\001' else '\000');
      match outcome with
      | Ok (listing, code) ->
          add_char o 'K';
          put_u32 o (String.length listing);
          add_string o listing;
          add_string o code
      | Error msg ->
          add_char o 'E';
          add_string o msg)
  | Overloaded { id; retry_after_ms } ->
      add_char o 'O';
      put_u32 o id;
      put_u32 o retry_after_ms
  | Stats_reply text ->
      add_char o 'T';
      add_string o text
  | Ack -> add_char o 'A'
  | Bye -> add_char o 'B'

let add_reply o r =
  frame o ~size:(reply_size r) (fun o -> encode_reply_into o r)

let decode_reply_in (b : Bytes.t) ~(pos : int) ~(len : int) :
    (reply, string) result =
  let n = len and at i = Bytes.get b (pos + i) in
  let sub i k = Bytes.sub_string b (pos + i) k in
  if n = 0 then Error "empty reply frame"
  else
    match at 0 with
    | 'R' ->
        if n < 7 then Error "truncated compile reply"
        else
          let id = get_u32 b (pos + 1) in
          let cached = at 5 = '\001' in
          (match at 6 with
          | 'K' ->
              if n < 11 then Error "truncated compile reply body"
              else
                let ll = get_u32 b (pos + 7) in
                if 11 + ll > n then Error "listing length out of range"
                else
                  let listing = sub 11 ll in
                  let code = sub (11 + ll) (n - 11 - ll) in
                  Ok (Compiled { id; cached; outcome = Ok (listing, code) })
          | 'E' -> Ok (Compiled { id; cached; outcome = Error (sub 7 (n - 7)) })
          | c -> Error (Printf.sprintf "bad outcome tag %d" (Char.code c)))
    | 'O' ->
        if n < 9 then Error "truncated overloaded reply"
        else
          Ok
            (Overloaded
               { id = get_u32 b (pos + 1); retry_after_ms = get_u32 b (pos + 5) })
    | 'T' -> Ok (Stats_reply (sub 1 (n - 1)))
    | 'A' -> Ok Ack
    | 'B' -> Ok Bye
    | c -> Error (Printf.sprintf "unknown reply tag %d" (Char.code c))

(* -- frame I/O ---------------------------------------------------------------- *)

(* Partial-transfer loops must survive signal delivery: a timer or
   profiling signal landing mid-[read]/[write] returns EINTR (OCaml
   installs handlers without SA_RESTART), and before this helper a
   signal-bombed client would tear a frame in half and desynchronize the
   stream.  Only EINTR is retried — real errors still raise. *)
let rec retry_eintr (f : unit -> 'a) : 'a =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(** Substitute for a reply whose encoding exceeds [max_frame]: same id
    and shape, but carrying a structured error the peer can actually
    receive (the read side rejects oversized frames, so sending the real
    bytes would only get the connection dropped). *)
let oversized_substitute (r : reply) ~(size : int) : reply =
  let msg =
    Printf.sprintf "reply too large for the wire (%d bytes > %d frame cap)"
      size max_frame
  in
  match r with
  | Compiled { id; cached; _ } -> Compiled { id; cached; outcome = Error msg }
  | Overloaded _ | Stats_reply _ | Ack | Bye -> Stats_reply msg

let write_out (fd : Unix.file_descr) (o : out) : unit =
  let sent = ref 0 in
  while !sent < o.len do
    sent :=
      !sent + retry_eintr (fun () -> Unix.write fd o.buf !sent (o.len - !sent))
  done

(* -- receive buffers --------------------------------------------------------- *)

type inbuf = {
  mutable bytes : Bytes.t;
  mutable start : int;
  mutable stop : int;
}

(* a receive buffer starts at this size, and [drained] returns it there *)
let inbuf_size = 65536

let inbuf () = { bytes = Bytes.create inbuf_size; start = 0; stop = 0 }

let read_into fd (b : inbuf) : int =
  let size = Bytes.length b.bytes in
  if b.stop = size then begin
    (* the frame in progress, once its length prefix is in, says how
       much room it needs *)
    let pending = b.stop - b.start in
    let frame =
      if pending < 4 then 0 else 4 + min max_frame (get_u32 b.bytes b.start)
    in
    let bytes =
      if b.start > 0 && frame <= size then b.bytes
      else Bytes.create (max (2 * size) frame)
    in
    Bytes.blit b.bytes b.start bytes 0 pending;
    b.bytes <- bytes;
    b.stop <- b.stop - b.start;
    b.start <- 0
  end;
  let n = Unix.read fd b.bytes b.stop (Bytes.length b.bytes - b.stop) in
  b.stop <- b.stop + n;
  n

let next_frame (b : inbuf) : (int * int) option =
  if b.stop - b.start < 4 then None
  else
    let n = get_u32 b.bytes b.start in
    if n > max_frame then
      failwith (Printf.sprintf "oversized frame (%d bytes)" n)
    else if b.stop - b.start < 4 + n then None
    else begin
      b.start <- b.start + 4 + n;
      Some (b.start - n, n)
    end

let drained (b : inbuf) =
  if b.start = b.stop then begin
    b.start <- 0;
    b.stop <- 0;
    if Bytes.length b.bytes > inbuf_size then b.bytes <- Bytes.create inbuf_size
  end

(* -- batch fingerprint -------------------------------------------------------- *)

(** Byte-for-byte the {!Pipeline.Batch.fingerprint} construction, over
    replies instead of results; anything that is not a [Compiled] reply
    folds in its own separator so it can never collide with one. *)
let fingerprint (replies : reply array) : string =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun r ->
      match r with
      | Compiled { outcome = Ok (listing, code); _ } ->
          Buffer.add_string buf listing;
          Buffer.add_char buf '\000';
          Buffer.add_string buf code;
          Buffer.add_char buf '\001'
      | Compiled { outcome = Error m; _ } ->
          Buffer.add_string buf m;
          Buffer.add_char buf '\002'
      | Overloaded _ | Stats_reply _ | Ack | Bye ->
          Buffer.add_char buf '\003')
    replies;
  Digest.to_hex (Digest.string (Buffer.contents buf))
