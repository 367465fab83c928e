(** Client side of the [pascd] compile service (see client.mli). *)

type t = {
  fd : Unix.file_descr;
  inb : Wire.inbuf;  (** received bytes not yet framed *)
  mutable open_ : bool;
}

let connect (path : string) : (t, string) result =
  try
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_UNIX path);
      Ok { fd; inb = Wire.inbuf (); open_ = true }
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | Unix.Unix_error (e, _, _) ->
      Error (Fmt.str "cannot connect to %s: %s" path (Unix.error_message e))
  | Sys_error m -> Error m

let close (t : t) =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Read until the next whole frame is buffered.  Replies are read in
   place and decoded where they lie, so a reply of n bytes costs O(n)
   copying however it arrives. *)
let rec await_frame (t : t) : int * int =
  match Wire.next_frame t.inb with
  | Some frame -> frame
  | None ->
      if Wire.retry_eintr (fun () -> Wire.read_into t.fd t.inb) = 0 then
        failwith "daemon closed the connection";
      await_frame t

let request (t : t) (req : Wire.request) : (Wire.reply, string) result =
  try
    let o = Wire.out () in
    Wire.add_request o req;
    Wire.write_out t.fd o;
    let pos, len = await_frame t in
    let reply = Wire.decode_reply_in t.inb.Wire.bytes ~pos ~len in
    Wire.drained t.inb;
    reply
  with
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Failure m -> Error m
  | Wire.Frame_too_large sz ->
      Error
        (Fmt.str "request too large for the wire (%d bytes > %d frame cap)" sz
           Wire.max_frame)

let ping (t : t) : (unit, string) result =
  match request t Wire.Ping with
  | Ok Wire.Ack -> Ok ()
  | Ok _ -> Error "expected Ack"
  | Error _ as e -> e

let stats (t : t) : (string, string) result =
  match request t Wire.Stats with
  | Ok (Wire.Stats_reply s) -> Ok s
  | Ok _ -> Error "expected Stats_reply"
  | Error _ as e -> e

let pause (t : t) (ms : int) : (unit, string) result =
  match request t (Wire.Pause ms) with
  | Ok Wire.Ack -> Ok ()
  | Ok _ -> Error "expected Ack"
  | Error _ as e -> e

let shutdown (t : t) : (unit, string) result =
  match request t Wire.Shutdown with
  | Ok Wire.Bye -> Ok ()
  | Ok _ -> Error "expected Bye"
  | Error _ as e -> e

let compile (t : t) (source : string) : (Wire.reply, string) result =
  request t (Wire.Compile { id = 0; source })

(* -- interleaved batch -------------------------------------------------------- *)

(** Submit [n] compile requests and collect [n] replies without ever
    blocking on a write while replies are waiting: all outgoing frames
    are concatenated into one buffer and pushed with [single_write] as
    the socket accepts them, and the socket is read whenever it is
    readable.  The daemon replies synchronously (hits inline, misses
    after a drain), so interleaving is what prevents the
    both-sides-blocked-on-write deadlock a naive send-all-then-read-all
    client would risk on large batches. *)
let compile_batch (t : t) ?(retry = false) (sources : string array) :
    (Wire.reply array, string) result =
  let n = Array.length sources in
  if n = 0 then Ok [||]
  else begin
    let replies = Array.make n None in
    (* one select-interleaved send/receive round over the given ids;
       replies land in [replies] by id (overwriting — a retry round
       replaces the [Overloaded] placeholder with the real answer) *)
    let exchange (ids : int array) : unit =
      let outstanding = Array.make n false in
      Array.iter (fun id -> outstanding.(id) <- true) ids;
      let frames = Wire.out () in
      Array.iter
        (fun id ->
          Wire.add_request frames (Wire.Compile { id; source = sources.(id) }))
        ids;
      let out = Wire.out_bytes frames and out_len = Wire.out_length frames in
      let sent = ref 0 in
      let received = ref 0 in
      let want = Array.length ids in
      let rec take_replies () =
        match Wire.next_frame t.inb with
        | None -> ()
        | Some (pos, len) -> (
            match Wire.decode_reply_in t.inb.Wire.bytes ~pos ~len with
            | Error m -> failwith m
            | Ok reply ->
                (match reply with
                | (Wire.Compiled { id; _ } | Wire.Overloaded { id; _ })
                  when id >= 0 && id < n && outstanding.(id) ->
                    outstanding.(id) <- false;
                    incr received;
                    replies.(id) <- Some reply
                | _ -> failwith "unexpected reply in batch");
                take_replies ())
      in
      while !received < want do
        let want_write = !sent < out_len in
        let readable, writable, _ =
          Wire.retry_eintr (fun () ->
              Unix.select [ t.fd ] (if want_write then [ t.fd ] else []) [] 5.0)
        in
        if readable = [] && writable = [] then
          failwith "timed out waiting for the daemon";
        if readable <> [] then begin
          if Wire.retry_eintr (fun () -> Wire.read_into t.fd t.inb) = 0 then
            failwith "daemon closed the connection";
          take_replies ();
          Wire.drained t.inb
        end;
        if writable <> [] && !sent < out_len then
          sent :=
            !sent
            + Wire.retry_eintr (fun () ->
                  Unix.single_write t.fd out !sent (out_len - !sent))
      done
    in
    try
      exchange (Array.init n Fun.id);
      (* one bounded retry: resubmit the rejected ids after honoring the
         longest backoff hint the daemon sent.  A second rejection stands
         — the caller sees [Overloaded] and decides. *)
      if retry then begin
        let rejected = ref [] and hint = ref 0 in
        Array.iteri
          (fun id r ->
            match r with
            | Some (Wire.Overloaded { retry_after_ms; _ }) ->
                rejected := id :: !rejected;
                hint := max !hint retry_after_ms
            | _ -> ())
          replies;
        match List.rev !rejected with
        | [] -> ()
        | ids ->
            Unix.sleepf (float_of_int !hint /. 1000.);
            exchange (Array.of_list ids)
      end;
      Ok (Array.map Option.get replies)
    with
    | Failure m -> Error m
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | Wire.Frame_too_large sz ->
        Error
          (Fmt.str "request too large for the wire (%d bytes > %d frame cap)"
             sz Wire.max_frame)
  end
