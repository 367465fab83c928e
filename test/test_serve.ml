(* The compile service end to end: the shipped `pasc serve` on a
   throwaway socket, driven through Serve.Client.  The properties:
   served batches are byte-identical to direct Pipeline compiles, cache
   hits are byte-identical to misses, admission control answers
   Overloaded deterministically, restarts are cold/warm equivalent,
   concurrent clients all see the same bytes, and however a frame's
   bytes arrive it costs linear work. *)

let pasc =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/pasc.exe"

(* every daemon this process starts shares one private table cache: the
   first builds and stores the tables, the rest load them *)
let cache_dir =
  lazy
    (let d = Filename.temp_dir "pascd-test-cache" "" in
     at_exit (fun () ->
         Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
         Sys.rmdir d);
     d)

(* [f pid sock]; with [fd_limit], the daemon runs under a shell's
   [ulimit -n], which execs it, so [pid] is the daemon's *)
let with_daemon_pid ?(spec = "amdahl470.cgg") ?(args = []) ?fd_limit
    (f : int -> string -> 'a) : 'a =
  let sock = Filename.temp_file "pascd-test" ".sock" in
  Sys.remove sock;
  let argv =
    [ pasc; "serve"; "--socket"; sock; "--spec"; Util.spec_path spec ] @ args
  in
  let prog, argv =
    match fd_limit with
    | None -> (pasc, Array.of_list argv)
    | Some n ->
        ( "/bin/sh",
          Array.of_list
            ("sh" :: "-c" :: Printf.sprintf "ulimit -n %d; exec \"$0\" \"$@\"" n
            :: argv) )
  in
  (* the first definition of a variable is the one getenv finds *)
  let env =
    Array.append
      [| "COGG_CACHE_DIR=" ^ Lazy.force cache_dir |]
      (Unix.environment ())
  in
  let pid =
    Unix.create_process_env prog argv env Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (match Serve.Client.connect sock with
      | Ok c ->
          ignore (Serve.Client.shutdown c);
          Serve.Client.close c
      | Error _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
      ignore (Unix.waitpid [] pid);
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f pid sock)

let with_daemon ?spec ?args f = with_daemon_pid ?spec ?args (fun _ sock -> f sock)

(* the daemon loads its tables before binding, so give it a while *)
let connect_retry sock =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Serve.Client.connect sock with
    | Ok c -> c
    | Error m ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "daemon did not come up: %s" m
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let with_client sock f =
  let c = connect_retry sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let sources () = Array.of_list (List.map snd Pipeline.Programs.all)

let jobs () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       Pipeline.Programs.all)

let direct_fingerprint =
  lazy
    (Pipeline.Batch.fingerprint
       (Pipeline.Batch.compile_all (Lazy.force Util.amdahl_tables) (jobs ())))

let batch c srcs =
  match Serve.Client.compile_batch c srcs with
  | Ok replies -> replies
  | Error m -> Alcotest.failf "batch failed: %s" m

let check_all_cached what expect replies =
  Array.iteri
    (fun i r ->
      match r with
      | Serve.Wire.Compiled { cached; _ } ->
          if cached <> expect then
            Alcotest.failf "%s: reply %d has cached=%b, wanted %b" what i
              cached expect
      | _ -> Alcotest.failf "%s: reply %d is not a compile result" what i)
    replies

(* (a) a served batch is byte-identical to compiling directly *)
let test_batch_matches_direct () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          let replies = batch c (sources ()) in
          check_all_cached "cold batch" false replies;
          Alcotest.(check string)
            "served fingerprint equals the direct Pipeline fingerprint"
            (Lazy.force direct_fingerprint)
            (Serve.Wire.fingerprint replies)))

(* (b) a cache hit serves exactly the bytes the miss produced — the
   first hit of an entry recompiles and compares, so a gate failure
   would surface in the stats, and later hits run no compile *)
let test_hit_equals_miss () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          let src = snd (List.hd Pipeline.Programs.all) in
          let compile what =
            match Serve.Client.compile c src with
            | Ok r -> r
            | Error m -> Alcotest.failf "%s failed: %s" what m
          in
          let miss = compile "miss" in
          let hit = compile "hit" in
          let inline = compile "inline hit" in
          (match (miss, hit, inline) with
          | ( Serve.Wire.Compiled { cached = false; outcome = o1; _ },
              Serve.Wire.Compiled { cached = true; outcome = o2; _ },
              Serve.Wire.Compiled { cached = true; outcome = o3; _ } ) ->
              Alcotest.(check bool)
                "hit outcomes byte-identical to miss" true (o1 = o2 && o1 = o3)
          | _ -> Alcotest.fail "expected a miss then two hits");
          match Serve.Client.stats c with
          | Error m -> Alcotest.failf "stats failed: %s" m
          | Ok text ->
              let keys =
                [ "compiles"; "inline_hits"; "verified_hits"; "gate_failures" ]
              in
              Alcotest.(check (list string))
                "the first hit was verified, the second compiled nothing, \
                 and the gate never failed"
                [ "compiles 2"; "inline_hits 1"; "verified_hits 1";
                  "gate_failures 0" ]
                (List.filter
                   (fun l ->
                     List.mem (List.hd (String.split_on_char ' ' l)) keys)
                   (String.split_on_char '\n' text))))

(* (c) admission control: with the drain paused and a queue of two,
   exactly the first two of eight unique compiles are admitted and the
   other six are refused *)
let test_overloaded_backpressure () =
  with_daemon ~args:[ "--queue"; "2" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.pause c 800 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "pause failed: %s" m);
          let gcd = Pipeline.Programs.gcd in
          let unique =
            Array.init 8 (fun i -> Printf.sprintf "{ refusal %d }\n%s" i gcd)
          in
          let replies = batch c unique in
          Array.iteri
            (fun i r ->
              match r with
              | Serve.Wire.Compiled { cached = false; outcome = Ok _; _ }
                when i < 2 ->
                  ()
              | Serve.Wire.Overloaded _ when i >= 2 -> ()
              | Serve.Wire.Compiled _ when i < 2 ->
                  Alcotest.failf "admitted request %d did not compile" i
              | _ ->
                  Alcotest.failf
                    "request %d: wanted %s, got something else" i
                    (if i < 2 then "a compile" else "Overloaded"))
            replies;
          (* once the pause lapses and the queue drains, service resumes *)
          match Serve.Client.compile c gcd with
          | Ok (Serve.Wire.Compiled { outcome = Ok _; _ }) -> ()
          | Ok _ -> Alcotest.fail "post-pause compile was refused"
          | Error m -> Alcotest.failf "post-pause compile failed: %s" m))

(* (c2) the backoff hint: with the drain paused and the queue full,
   every rejection carries a positive retry_after_ms (pause remainder
   plus queue depth) *)
let test_retry_after_hint () =
  with_daemon ~args:[ "--queue"; "1" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.pause c 600 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "pause failed: %s" m);
          let gcd = Pipeline.Programs.gcd in
          let unique =
            Array.init 3 (fun i -> Printf.sprintf "{ hint %d }\n%s" i gcd)
          in
          let replies = batch c unique in
          Array.iteri
            (fun i r ->
              match r with
              | Serve.Wire.Compiled { outcome = Ok _; _ } when i = 0 -> ()
              | Serve.Wire.Overloaded { retry_after_ms; _ } when i > 0 ->
                  if retry_after_ms <= 0 then
                    Alcotest.failf "rejection %d: hint %d is not positive" i
                      retry_after_ms
              | _ -> Alcotest.failf "reply %d has the wrong shape" i)
            replies))

(* (c3) honoring the hint: a pause-driven burst that overflows the
   queue becomes an all-Ok batch under [~retry:true] — the rejected
   slots are resubmitted once, after the daemon's suggested backoff,
   by which time the pause has lapsed and the queue has drained *)
let test_retry_recovers () =
  with_daemon ~args:[ "--queue"; "4" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.pause c 400 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "pause failed: %s" m);
          let gcd = Pipeline.Programs.gcd in
          let unique =
            Array.init 6 (fun i -> Printf.sprintf "{ retry %d }\n%s" i gcd)
          in
          match Serve.Client.compile_batch c ~retry:true unique with
          | Error m -> Alcotest.failf "retrying batch failed: %s" m
          | Ok replies ->
              Array.iteri
                (fun i r ->
                  match r with
                  | Serve.Wire.Compiled { cached = false; outcome = Ok _; _ }
                    ->
                      ()
                  | Serve.Wire.Overloaded _ ->
                      Alcotest.failf
                        "reply %d still Overloaded after the bounded retry" i
                  | _ -> Alcotest.failf "reply %d has the wrong shape" i)
                replies))

(* (d) restart equivalence: a cold daemon, a warm cache, and a fresh
   daemon all produce the same fingerprint *)
let test_restart_cold_warm () =
  let first_cold, first_warm =
    with_daemon (fun sock ->
        with_client sock (fun c ->
            let cold = batch c (sources ()) in
            check_all_cached "cold" false cold;
            let warm = batch c (sources ()) in
            check_all_cached "warm" true warm;
            (Serve.Wire.fingerprint cold, Serve.Wire.fingerprint warm)))
  in
  Alcotest.(check string) "warm equals cold" first_cold first_warm;
  let second_cold =
    with_daemon (fun sock ->
        with_client sock (fun c ->
            let cold = batch c (sources ()) in
            check_all_cached "restarted cold" false cold;
            Serve.Wire.fingerprint cold))
  in
  Alcotest.(check string) "fresh daemon equals the old one" first_cold
    second_cold;
  Alcotest.(check string) "and both equal the direct pipeline"
    (Lazy.force direct_fingerprint) second_cold

(* (e) concurrent clients on their own connections all read identical
   bytes — the cache and the pool never cross results *)
let test_concurrent_clients () =
  with_daemon ~args:[ "--jobs"; "2" ] (fun sock ->
      (* one pass to warm the cache so the racers mix hits and misses *)
      with_client sock (fun c -> ignore (batch c (sources ())));
      let n = 4 in
      let fingerprints = Array.make n "" in
      let racer i =
        with_client sock (fun c ->
            fingerprints.(i) <- Serve.Wire.fingerprint (batch c (sources ())))
      in
      let threads = Array.init n (fun i -> Thread.create racer i) in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i fp ->
          Alcotest.(check string)
            (Printf.sprintf "client %d matches the direct pipeline" i)
            (Lazy.force direct_fingerprint)
            fp)
        fingerprints)

(* a length-prefixed frame, as Wire.add_request and Wire.add_reply
   put it on the socket *)
let framed payload =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.to_string b ^ payload

(* the frame [add] appends for [m], and its payload *)
let frame_of add m =
  let o = Serve.Wire.out () in
  add o m;
  Bytes.sub_string (Serve.Wire.out_bytes o) 0 (Serve.Wire.out_length o)

let payload_of add m =
  let f = frame_of add m in
  String.sub f 4 (String.length f - 4)

(* the payload of the next frame on a raw connection, read through a
   receive buffer as the client and the daemon read; [None] once the
   peer has closed it *)
let rec read_payload fd inb =
  match Serve.Wire.next_frame inb with
  | Some (pos, len) -> Some (Bytes.sub_string inb.Serve.Wire.bytes pos len)
  | None ->
      if Serve.Wire.read_into fd inb = 0 then None else read_payload fd inb

(* (f) send-side frame cap: an oversized payload is refused before a
   single byte goes out, so the stream stays clean for a recovery
   reply: framing it raises, the frames already in the buffer stay as
   they were, and writing the buffer sends only those.  Before the cap,
   the writer would happily emit a frame the peer's length check must
   drop the connection over. *)
let test_write_frame_cap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let o = Serve.Wire.out () in
      Serve.Wire.add_request o Serve.Wire.Ping;
      let before = Serve.Wire.out_length o in
      (* a compile payload is 5 bytes plus the source *)
      let big =
        Serve.Wire.Compile
          { id = 1; source = String.make (Serve.Wire.max_frame - 4) 'x' }
      in
      (match Serve.Wire.add_request o big with
      | () -> Alcotest.fail "oversized frame was framed"
      | exception Serve.Wire.Frame_too_large n ->
          Alcotest.(check int) "reported size" (Serve.Wire.max_frame + 1) n);
      Alcotest.(check int) "the buffer is as it was" before
        (Serve.Wire.out_length o);
      Serve.Wire.write_out a o;
      (* nothing leaked: the peer reads the ping frame and no more *)
      Unix.set_nonblock b;
      let got = Bytes.create 64 in
      let n = Unix.read b got 0 64 in
      Alcotest.(check string) "only the frame before the refused one"
        (frame_of Serve.Wire.add_request Serve.Wire.Ping)
        (Bytes.sub_string got 0 n);
      match Unix.read b got 0 1 with
      | _ -> Alcotest.fail "bytes of the refused frame were written"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ())

(* (g) a reply whose encoding exceeds the cap is replaced by a
   structured error carrying the same id, and the substitute itself
   fits the wire *)
let test_oversized_substitute () =
  let huge = String.make (Serve.Wire.max_frame + 64) 'L' in
  let r =
    Serve.Wire.Compiled { id = 7; cached = false; outcome = Ok (huge, "") }
  in
  let size =
    match Serve.Wire.add_reply (Serve.Wire.out ()) r with
    | () -> Alcotest.fail "the synthetic reply was framed"
    | exception Serve.Wire.Frame_too_large n -> n
  in
  Alcotest.(check bool)
    "the synthetic reply really is oversized" true
    (size > Serve.Wire.max_frame);
  match Serve.Wire.oversized_substitute r ~size with
  | Serve.Wire.Compiled { id = 7; cached = false; outcome = Error m } as sub -> (
      Alcotest.(check bool) "error names the cap" true
        (Util.contains m "frame cap");
      match Serve.Wire.add_reply (Serve.Wire.out ()) sub with
      | () -> ()
      | exception Serve.Wire.Frame_too_large _ ->
          Alcotest.fail "substitute does not fit the wire")
  | _ -> Alcotest.fail "substitute lost the reply's id or shape"

(* (h) the stats reply names the serving target, and a daemon serving
   the second backend really compiles for it *)
let test_stats_target () =
  let check_target c name =
    match Serve.Client.stats c with
    | Ok text ->
        Alcotest.(check bool)
          ("stats name " ^ name) true
          (List.mem ("target " ^ name) (String.split_on_char '\n' text))
    | Error m -> Alcotest.failf "stats failed: %s" m
  in
  with_daemon (fun sock ->
      with_client sock (fun c -> check_target c "amdahl470"));
  with_daemon ~spec:"risc32.cgg" ~args:[ "--target"; "risc32" ] (fun sock ->
      with_client sock (fun c ->
          check_target c "risc32";
          match Serve.Client.compile c Pipeline.Programs.gcd with
          | Ok (Serve.Wire.Compiled { outcome = Ok _; _ }) -> ()
          | Ok _ -> Alcotest.fail "risc32 daemon refused a known program"
          | Error m -> Alcotest.failf "compile failed: %s" m))

(* the stats reply's keys, in order; perfbench's serve workload parses
   six of them (requests, inline_hits, compiles, verified_hits,
   overloaded, cache_evictions) by name *)
let test_stats_keys () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          match Serve.Client.stats c with
          | Error m -> Alcotest.failf "stats failed: %s" m
          | Ok text ->
              Alcotest.(check (list string))
                "keys"
                [
                  "requests"; "compiles"; "inline_hits"; "verified_hits";
                  "overloaded"; "gate_failures"; "oversized"; "cache_hits";
                  "cache_misses"; "cache_evictions"; "cache_entries";
                  "queue_capacity"; "pool_size"; "target";
                ]
                (String.split_on_char '\n' text
                |> List.filter (( <> ) "")
                |> List.map (fun l -> List.hd (String.split_on_char ' ' l)))))

(* (i) EINTR immunity: a 1ms interval timer signal-bombs the client for
   the whole of a large batch; every read/write/select in the framing
   path must retry rather than tear a frame.  Pre-fix, Unix.write in
   write_frame (or the batch's select/read/single_write) raises
   Unix_error EINTR and the batch fails. *)
let test_eintr_signal_bomb () =
  with_daemon ~args:[ "--jobs"; "2" ] (fun sock ->
      with_client sock (fun c ->
          let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
          let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
          ignore (Unix.setitimer Unix.ITIMER_REAL tick);
          Fun.protect
            ~finally:(fun () ->
              ignore
                (Unix.setitimer Unix.ITIMER_REAL
                   { Unix.it_interval = 0.; it_value = 0. });
              Sys.set_signal Sys.sigalrm old)
            (fun () ->
              (* a large all-miss batch first: plenty of frames in both
                 directions while the timer fires *)
              let gcd = Pipeline.Programs.gcd in
              let unique =
                Array.init 48 (fun i ->
                    Printf.sprintf "{ eintr %d }\n%s" i gcd)
              in
              Array.iteri
                (fun i r ->
                  match r with
                  | Serve.Wire.Compiled { outcome = Ok _; _ } -> ()
                  | _ -> Alcotest.failf "bombed batch: reply %d not Ok" i)
                (batch c unique);
              (* and the standing corpus must still digest identically *)
              Alcotest.(check string)
                "signal-bombed batch matches the direct pipeline"
                (Lazy.force direct_fingerprint)
                (Serve.Wire.fingerprint (batch c (sources ()))))))

(* CPU seconds a process has used: /proc/PID/stat's utime and stime,
   in the 100 ticks a second Linux reports them in *)
let cpu_seconds pid =
  let s =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  let i = String.rindex s ')' in
  let fields =
    String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
  in
  float_of_int
    (int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12))
  /. 100.

(* (i) a daemon out of descriptors does not spin.  Under [ulimit -n 20]
   it accepts what it can; the listening socket then stays readable
   while [accept] fails with EMFILE, so a loop that keeps polling it
   spins until a client leaves.  Over one second it must use under a
   quarter second of CPU, and once a client disconnects a queued one is
   accepted and answered. *)
let test_out_of_descriptors () =
  with_daemon_pid ~fd_limit:20 (fun pid sock ->
      with_client sock (fun c ->
          (match Serve.Client.ping c with
          | Ok () -> ()
          | Error m -> Alcotest.failf "ping: %s" m);
          let clients =
            Array.init 24 (fun _ ->
                let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                Unix.connect fd (Unix.ADDR_UNIX sock);
                fd)
          in
          Fun.protect
            ~finally:(fun () ->
              Array.iter
                (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                clients)
            (fun () ->
              Unix.sleepf 0.3;
              let cpu0 = cpu_seconds pid in
              Unix.sleepf 1.0;
              let cpu = cpu_seconds pid -. cpu0 in
              if cpu >= 0.25 then
                Alcotest.failf
                  "out of descriptors, the daemon used %.2f s of CPU in 1 s" cpu;
              let ping = frame_of Serve.Wire.add_request Serve.Wire.Ping in
              Array.iter
                (fun fd -> ignore (Unix.write_substring fd ping 0 (String.length ping)))
                clients;
              (* the accepted clients answer; the rest wait in the queue *)
              let inbs = Array.map (fun _ -> Serve.Wire.inbuf ()) clients in
              let acked fd inb =
                match read_payload fd inb with
                | Some p ->
                    Serve.Wire.decode_reply_in (Bytes.of_string p) ~pos:0
                      ~len:(String.length p)
                    = Ok Serve.Wire.Ack
                | None -> false
              in
              let index fd =
                let rec go i = if clients.(i) = fd then i else go (i + 1) in
                go 0
              in
              (* answers until none comes for half a second *)
              let rec answered waiting =
                match Unix.select waiting [] [] 0.5 with
                | [], _, _ -> waiting
                | ready, _, _ ->
                    List.iter
                      (fun fd ->
                        if not (acked fd inbs.(index fd)) then
                          Alcotest.failf "client %d: no Ack" (index fd))
                      ready;
                    answered (List.filter (fun fd -> not (List.mem fd ready)) waiting)
              in
              let waiting = answered (Array.to_list clients) in
              if waiting = [] then
                Alcotest.fail "every client was accepted under ulimit -n 20";
              (* one accepted client leaves; a queued one is served *)
              (match
                 List.find_opt
                   (fun fd -> not (List.mem fd waiting))
                   (Array.to_list clients)
               with
              | Some leaver -> Unix.shutdown leaver Unix.SHUTDOWN_ALL
              | None -> Alcotest.fail "no client was accepted under ulimit -n 20");
              match Unix.select waiting [] [] 5.0 with
              | [], _, _ ->
                  Alcotest.fail "no queued client was served after one left"
              | fd :: _, _, _ ->
                  Alcotest.(check bool) "the queued client gets its Ack" true
                    (acked fd inbs.(index fd)))))

let requests =
  Serve.Wire.
    [ Compile { id = 7; source = Pipeline.Programs.gcd };
      Compile { id = 0xFFFF_FFFF; source = "" }; Stats; Ping; Pause 250;
      Shutdown ]

(* a compile request in the format compile requests had before they lost
   their options: tag 'C', the u32 id, three option bytes (cse, checks
   and dispatch, each 0 for the daemon's default), then the source *)
let retired_compile_payload =
  "C\000\000\000\007\000\000\000" ^ Pipeline.Programs.gcd

(* [decode_in] on a payload held in bytes of its own length, so a read
   past the payload raises instead of landing in a neighbour's bytes *)
let decode decode_in s =
  decode_in (Bytes.of_string s) ~pos:0 ~len:(String.length s)

(* (j) a peer from before that change fails loudly: its compile frame is
   refused as an unknown request, never read as source, the daemon drops
   that client's connection without a reply, and it keeps serving every
   other client *)
let test_undecodable_request_drops_client () =
  (match decode Serve.Wire.decode_request_in retired_compile_payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a retired compile frame decoded as a request");
  with_daemon (fun sock ->
      with_client sock (fun good ->
          let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close raw with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect raw (Unix.ADDR_UNIX sock);
              let bytes = framed retired_compile_payload in
              ignore (Unix.write_substring raw bytes 0 (String.length bytes));
              match read_payload raw (Serve.Wire.inbuf ()) with
              | None -> ()
              | Some _ ->
                  Alcotest.fail "the daemon answered a retired compile frame");
          Alcotest.(check string)
            "the other client is still served correctly"
            (Lazy.force direct_fingerprint)
            (Serve.Wire.fingerprint (batch good (sources ())))))

(* (k) however a client splits or joins its frames, the reply bytes are
   the ones Client.compile gets: one compile frame written a byte at a
   time, then two frames in one write (each a fresh miss, like the
   reference, so every reply is the same bytes) *)
let test_split_and_joined_frames () =
  let source i = Printf.sprintf "{ split %d }\n%s" i Pipeline.Programs.gcd in
  let frame i =
    frame_of Serve.Wire.add_request
      (Serve.Wire.Compile { id = 0; source = source i })
  in
  with_daemon (fun sock ->
      with_client sock (fun c ->
          let want =
            match Serve.Client.compile c (source 0) with
            | Ok r -> payload_of Serve.Wire.add_reply r
            | Error m -> Alcotest.failf "reference compile failed: %s" m
          in
          let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close raw)
            (fun () ->
              Unix.connect raw (Unix.ADDR_UNIX sock);
              let write s =
                ignore (Unix.write_substring raw s 0 (String.length s))
              in
              let inb = Serve.Wire.inbuf () in
              let reply what =
                match read_payload raw inb with
                | Some r -> Alcotest.(check string) what want r
                | None -> Alcotest.failf "%s: connection closed" what
              in
              String.iter (fun ch -> write (String.make 1 ch)) (frame 1);
              reply "frame written a byte at a time";
              write (frame 2 ^ frame 3);
              reply "first of two frames in one write";
              reply "second of two frames in one write")))

(* (l) a frame near the cap is read in linear time, encoded once and
   decoded in place: a 15 MiB compile request through an in-process
   daemon allocates under 3.5x its source (3.0x: the client's frame,
   a receive buffer sized to the frame and the decoded source; 4.1x
   when the buffer doubled its way up to the frame, 5.1x when the
   source was also copied out of the frame before decoding, 6.1x when
   the cache key also concatenated it, 8.2x when each frame's payload
   was copied into a growing Buffer, out of it, and again behind its
   length prefix; a reader that appends every 64 KiB read to a string
   allocates over 100x) *)
let test_big_frame_allocation () =
  let sock = Filename.temp_file "pascd-big" ".sock" in
  Sys.remove sock;
  let server =
    match
      Serve.Server.create ~socket_path:sock (Lazy.force Util.amdahl_tables)
    with
    | Ok s -> s
    | Error m -> Alcotest.failf "create failed: %s" m
  in
  let loop = Thread.create Serve.Server.run server in
  Fun.protect
    ~finally:(fun () ->
      with_client sock (fun c -> ignore (Serve.Client.shutdown c));
      Thread.join loop)
    (fun () ->
      let source =
        "{" ^ String.make (15 lsl 20) 'x' ^ "}\n" ^ Pipeline.Programs.gcd
      in
      with_client sock (fun c ->
          let before = Gc.allocated_bytes () in
          let r = Serve.Client.compile c source in
          let ratio =
            (Gc.allocated_bytes () -. before)
            /. float_of_int (String.length source)
          in
          (match r with
          | Ok (Serve.Wire.Compiled { outcome = Ok _; _ }) -> ()
          | _ -> Alcotest.fail "the 15 MiB request did not compile");
          if ratio >= 3.5 then
            Alcotest.failf "allocated %.2fx the source (bound 3.5x)" ratio))

(* (m) a batch whose reply runs to megabytes is received with linear
   copying: its replies equal [Client.compile]'s byte for byte, and the
   batch client allocates under 3x the reply bytes (2.5x: its request
   frames, a receive buffer sized to the big frame and the decoded
   listings and code; a client that appended every 64 KiB read to a
   string, and cut the rest out after every frame, allocated 14.4x) *)
let long_program n =
  let b = Buffer.create (24 * n) in
  Buffer.add_string b "program long;\nvar a, b : integer;\nbegin\n  a := 0; b := 1;\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "  a := a + %d * b;\n" i)
  done;
  Buffer.add_string b "  write(a)\nend.\n";
  Buffer.contents b

let outcome_of = function
  | Serve.Wire.Compiled { outcome = Ok o; _ } -> o
  | _ -> Alcotest.fail "expected a compiled program"

let test_big_reply_batch () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          let srcs = [| long_program 8000; Pipeline.Programs.gcd |] in
          let single =
            Array.map
              (fun s ->
                match Serve.Client.compile c s with
                | Ok r -> outcome_of r
                | Error m -> Alcotest.failf "compile failed: %s" m)
              srcs
          in
          let before = Gc.allocated_bytes () in
          let replies = batch c srcs in
          let allocated = Gc.allocated_bytes () -. before in
          let batched = Array.map outcome_of replies in
          Alcotest.(check bool)
            "batch replies equal single compiles" true (batched = single);
          let reply_bytes =
            Array.fold_left
              (fun acc (listing, code) ->
                acc + String.length listing + String.length code)
              0 batched
          in
          if reply_bytes < 1 lsl 20 then
            Alcotest.failf "the reply is only %d bytes" reply_bytes;
          let ratio = allocated /. float_of_int reply_bytes in
          if ratio >= 3. then
            Alcotest.failf "allocated %.2fx the reply bytes (bound 3x)" ratio))

(* -- the codec alone, without a daemon ------------------------------------ *)

let replies =
  Serve.Wire.
    [ Compiled { id = 3; cached = true; outcome = Ok ("L 1,8(13)\n", "\000") };
      Compiled { id = 5; cached = false; outcome = Error "syntax error" };
      Overloaded { id = 0xFFFF_FFFF; retry_after_ms = 1500 };
      Stats_reply "requests 3\ntarget amdahl470\n"; Ack; Bye ]

(* each message, framed, decodes where it lies in the encoder's buffer *)
let roundtrip add decode_in messages () =
  List.iter
    (fun m ->
      let o = Serve.Wire.out () in
      add o m;
      match
        decode_in (Serve.Wire.out_bytes o) ~pos:4
          ~len:(Serve.Wire.out_length o - 4)
      with
      | Ok m' when m' = m -> ()
      | Ok _ -> Alcotest.fail "a message changed across the codec"
      | Error e -> Alcotest.failf "an encoded message failed to decode: %s" e)
    messages

(* an Overloaded reply without its backoff hint (tag and id, 5 bytes) is
   refused, not read as "retry whenever" *)
let test_short_overloaded_refused () =
  match decode Serve.Wire.decode_reply_in "O\000\000\000\001" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a 5-byte Overloaded payload decoded"

(* decoding is total: every prefix of a real payload, and arbitrary bytes
   behind every tag, come back as [Ok] or [Error], never as an exception
   that would take down a connection handler *)
let decodes_totally s =
  ignore (decode Serve.Wire.decode_request_in s);
  ignore (decode Serve.Wire.decode_reply_in s)

let test_prefixes_decode_totally () =
  List.iter
    (fun payload ->
      String.iteri (fun n _ -> decodes_totally (String.sub payload 0 n)) payload)
    ((retired_compile_payload
     :: List.map (payload_of Serve.Wire.add_request) requests)
    @ List.map (payload_of Serve.Wire.add_reply) replies)

let prop_decoders_total =
  QCheck.Test.make ~count:2000 ~name:"decoders are total on arbitrary frames"
    QCheck.(
      pair
        (oneofl (List.of_seq (String.to_seq "cCSPZHQROThAB\000")))
        (string_of_size Gen.(0 -- 24)))
    (fun (tag, rest) ->
      decodes_totally (String.make 1 tag ^ rest);
      true)

let () =
  Alcotest.run "serve"
    [
      ( "service",
        [
          Alcotest.test_case "served batch matches direct compile" `Quick
            test_batch_matches_direct;
          Alcotest.test_case "cache hit equals miss byte-for-byte" `Quick
            test_hit_equals_miss;
          Alcotest.test_case "overload answers Overloaded" `Quick
            test_overloaded_backpressure;
          Alcotest.test_case "rejections carry a backoff hint" `Quick
            test_retry_after_hint;
          Alcotest.test_case "bounded retry honors the hint" `Quick
            test_retry_recovers;
          Alcotest.test_case "restart is cold/warm equivalent" `Quick
            test_restart_cold_warm;
          Alcotest.test_case "concurrent clients agree" `Quick
            test_concurrent_clients;
          Alcotest.test_case "stats reply keys in order" `Quick
            test_stats_keys;
        ] );
      ( "wire robustness",
        [
          Alcotest.test_case "send-side frame cap refuses cleanly" `Quick
            test_write_frame_cap;
          Alcotest.test_case "oversized reply becomes a structured error"
            `Quick test_oversized_substitute;
          Alcotest.test_case "stats name the serving target" `Quick
            test_stats_target;
          Alcotest.test_case "EINTR bombing never tears a frame" `Quick
            test_eintr_signal_bomb;
          Alcotest.test_case "undecodable request drops only its client"
            `Quick test_undecodable_request_drops_client;
          Alcotest.test_case "split and joined frames get the same reply"
            `Quick test_split_and_joined_frames;
          Alcotest.test_case "a 15 MiB frame allocates linearly" `Quick
            test_big_frame_allocation;
          Alcotest.test_case "a megabyte reply batch copies linearly" `Quick
            test_big_reply_batch;
          Alcotest.test_case "out of descriptors, the daemon does not spin"
            `Quick test_out_of_descriptors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "requests round-trip" `Quick
            (roundtrip Serve.Wire.add_request Serve.Wire.decode_request_in
               requests);
          Alcotest.test_case "replies round-trip" `Quick
            (roundtrip Serve.Wire.add_reply Serve.Wire.decode_reply_in replies);
          Alcotest.test_case "a hintless Overloaded reply is refused" `Quick
            test_short_overloaded_refused;
          Alcotest.test_case "frame prefixes decode totally" `Quick
            test_prefixes_decode_totally;
          QCheck_alcotest.to_alcotest prop_decoders_total;
        ] );
    ]
