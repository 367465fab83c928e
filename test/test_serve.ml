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

let with_daemon ?(spec = "amdahl470.cgg") ?(args = []) (f : string -> 'a) :
    'a =
  let sock = Filename.temp_file "pascd-test" ".sock" in
  Sys.remove sock;
  let argv =
    Array.of_list
      ([ pasc; "serve"; "--socket"; sock; "--spec"; Util.spec_path spec ]
      @ args)
  in
  (* the first definition of a variable is the one getenv finds *)
  let env =
    Array.append
      [| "COGG_CACHE_DIR=" ^ Lazy.force cache_dir |]
      (Unix.environment ())
  in
  let pid =
    Unix.create_process_env pasc argv env Unix.stdin Unix.stdout Unix.stderr
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
    (fun () -> f sock)

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
   would surface in the stats *)
let test_hit_equals_miss () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          let src = snd (List.hd Pipeline.Programs.all) in
          let miss =
            match Serve.Client.compile c src with
            | Ok r -> r
            | Error m -> Alcotest.failf "miss failed: %s" m
          in
          let hit =
            match Serve.Client.compile c src with
            | Ok r -> r
            | Error m -> Alcotest.failf "hit failed: %s" m
          in
          (match (miss, hit) with
          | ( Serve.Wire.Compiled { cached = false; outcome = o1; _ },
              Serve.Wire.Compiled { cached = true; outcome = o2; _ } ) ->
              Alcotest.(check bool)
                "hit outcome byte-identical to miss" true (o1 = o2)
          | _ -> Alcotest.fail "expected a miss then a hit");
          match Serve.Client.stats c with
          | Error m -> Alcotest.failf "stats failed: %s" m
          | Ok text ->
              let has line = List.mem line (String.split_on_char '\n' text) in
              Alcotest.(check (pair bool bool))
                "the hit was verified, and the gate never failed" (true, true)
                (has "verified_hits 1", has "gate_failures 0")))

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

(* (f) send-side frame cap: an oversized payload is refused before a
   single byte goes out, so the stream stays clean for a recovery
   reply.  Pre-fix, write_frame would happily emit a frame the peer's
   length check must drop the connection over. *)
let test_write_frame_cap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let big = String.make (Serve.Wire.max_frame + 1) 'x' in
      (match Serve.Wire.write_frame a big with
      | () -> Alcotest.fail "oversized frame was written"
      | exception Serve.Wire.Frame_too_large n ->
          Alcotest.(check int) "reported size" (Serve.Wire.max_frame + 1) n);
      (* nothing leaked: the peer has nothing to read *)
      Unix.set_nonblock b;
      match Unix.read b (Bytes.create 1) 0 1 with
      | _ -> Alcotest.fail "bytes were written before the size check"
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
  let size = String.length (Serve.Wire.encode_reply r) in
  Alcotest.(check bool)
    "the synthetic reply really is oversized" true
    (size > Serve.Wire.max_frame);
  match Serve.Wire.oversized_substitute r ~size with
  | Serve.Wire.Compiled { id = 7; cached = false; outcome = Error m } as sub ->
      Alcotest.(check bool) "error names the cap" true
        (Util.contains m "frame cap");
      Alcotest.(check bool) "substitute fits the wire" true
        (String.length (Serve.Wire.encode_reply sub) <= Serve.Wire.max_frame)
  | _ -> Alcotest.fail "substitute lost the reply's id or shape"

(* (h) Hello names the serving target, the stats report it too, and a
   daemon serving the second backend really compiles for it *)
let test_hello_target () =
  with_daemon (fun sock ->
      with_client sock (fun c ->
          match Serve.Client.hello c with
          | Ok t -> Alcotest.(check string) "default daemon" "amdahl470" t
          | Error m -> Alcotest.failf "hello failed: %s" m));
  with_daemon ~spec:"risc32.cgg" ~args:[ "--target"; "risc32" ] (fun sock ->
      with_client sock (fun c ->
          (match Serve.Client.hello c with
          | Ok t -> Alcotest.(check string) "risc32 daemon" "risc32" t
          | Error m -> Alcotest.failf "hello failed: %s" m);
          (match Serve.Client.stats c with
          | Ok text ->
              Alcotest.(check bool) "stats name the target" true
                (Util.contains text "target risc32")
          | Error m -> Alcotest.failf "stats failed: %s" m);
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

(* every option set a request can carry: cse and checks each defaulted,
   on or off, times the three dispatch choices *)
let all_options =
  let bools = [ None; Some true; Some false ] in
  List.concat_map
    (fun cse ->
      List.concat_map
        (fun checks ->
          List.map
            (fun dispatch -> { Serve.Wire.cse; checks; dispatch })
            Serve.Wire.[ Default; Flat; Comb ])
        bools)
    bools

let requests =
  Serve.Wire.(
    List.mapi
      (fun id options ->
        Compile { id; options; source = Pipeline.Programs.gcd })
      all_options
    @ [ Compile { id = 0xFFFF_FFFF; options = default_options; source = "" };
        Stats; Ping; Pause 250; Hello; Shutdown ])

(* a compile frame whose dispatch byte is [b]: 'C', the u32 id, then the
   options tag (cse, checks, dispatch) *)
let compile_frame_with_dispatch b =
  let frame = Bytes.of_string (Serve.Wire.encode_request (List.hd requests)) in
  Bytes.set frame 7 (Char.chr b);
  Bytes.to_string frame

(* (j) an undecodable request — a compile frame carrying dispatch byte
   3, a tag no dispatch answers to — drops that client's connection
   without a reply, and the daemon keeps serving every other client *)
let test_undecodable_request_drops_client () =
  let frame = compile_frame_with_dispatch 3 in
  (match Serve.Wire.decode_request frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dispatch byte 3 decoded as a request");
  with_daemon (fun sock ->
      with_client sock (fun good ->
          let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close raw with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect raw (Unix.ADDR_UNIX sock);
              Serve.Wire.write_frame raw frame;
              match Serve.Wire.read_frame raw with
              | None -> ()
              | Some _ ->
                  Alcotest.fail "the daemon answered an undecodable request");
          Alcotest.(check string)
            "the other client is still served correctly"
            (Lazy.force direct_fingerprint)
            (Serve.Wire.fingerprint (batch good (sources ())))))

(* a length-prefixed frame, as Wire.write_frame puts it on the socket *)
let framed payload =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.to_string b ^ payload

(* (k) however a client splits or joins its frames, the reply bytes are
   the ones Client.compile gets: one compile frame written a byte at a
   time, then two frames in one write (each a fresh miss, like the
   reference, so every reply is the same bytes) *)
let test_split_and_joined_frames () =
  let source i = Printf.sprintf "{ split %d }\n%s" i Pipeline.Programs.gcd in
  let frame i =
    framed
      (Serve.Wire.encode_request
         (Serve.Wire.Compile
            {
              id = 0;
              options = Serve.Wire.default_options;
              source = source i;
            }))
  in
  with_daemon (fun sock ->
      with_client sock (fun c ->
          let want =
            match Serve.Client.compile c (source 0) with
            | Ok r -> Serve.Wire.encode_reply r
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
              let reply what =
                match Serve.Wire.read_frame raw with
                | Some r -> Alcotest.(check string) what want r
                | None -> Alcotest.failf "%s: connection closed" what
              in
              String.iter (fun ch -> write (String.make 1 ch)) (frame 1);
              reply "frame written a byte at a time";
              write (frame 2 ^ frame 3);
              reply "first of two frames in one write";
              reply "second of two frames in one write")))

(* (l) a frame near the cap is read in linear time: a 15 MiB compile
   request through an in-process daemon allocates under 24x its source
   (a reader that appends every 64 KiB read to a string allocates over
   100x) *)
let test_big_frame_allocation () =
  let sock = Filename.temp_file "pascd-big" ".sock" in
  Sys.remove sock;
  let server =
    match
      Serve.Server.create ~table_key:"big-frame" ~socket_path:sock
        (Lazy.force Util.amdahl_tables)
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
          if ratio >= 24. then
            Alcotest.failf "allocated %.1fx the source (bound 24x)" ratio))

(* -- the codec alone, without a daemon ------------------------------------ *)

let replies =
  Serve.Wire.
    [ Compiled { id = 3; cached = true; outcome = Ok ("L 1,8(13)\n", "\000") };
      Compiled { id = 5; cached = false; outcome = Error "syntax error" };
      Overloaded { id = 0xFFFF_FFFF; retry_after_ms = 1500 };
      Stats_reply "requests 3\n"; Hello_reply "amdahl470"; Ack; Bye ]

let roundtrip encode decode messages () =
  List.iter
    (fun m ->
      match decode (encode m) with
      | Ok m' when m' = m -> ()
      | Ok _ -> Alcotest.fail "a message changed across the codec"
      | Error e -> Alcotest.failf "an encoded message failed to decode: %s" e)
    messages

(* the options tag is result-cache key material: distinct option sets
   must never share a tag *)
let test_options_tags_distinct () =
  let tags = List.map Serve.Wire.options_tag all_options in
  Alcotest.(check int)
    "one tag per option set" (List.length all_options)
    (List.length (List.sort_uniq compare tags))

(* dispatch bytes 0-2 decode to Default, Flat and Comb; every other byte
   names no dispatch and fails to decode *)
let test_dispatch_byte_range () =
  for b = 0 to 255 do
    match Serve.Wire.decode_request (compile_frame_with_dispatch b) with
    | Ok (Serve.Wire.Compile { options; _ })
      when List.nth_opt Serve.Wire.[ Default; Flat; Comb ] b
           = Some options.dispatch ->
        ()
    | Error _ when b > 2 -> ()
    | _ -> Alcotest.failf "dispatch byte %d misdecoded" b
  done

(* decoding is total: every prefix of a real frame, and arbitrary bytes
   behind every tag, come back as [Ok] or [Error], never as an exception
   that would take down a connection handler *)
let decodes_totally s =
  ignore (Serve.Wire.decode_request s);
  ignore (Serve.Wire.decode_reply s)

let test_prefixes_decode_totally () =
  List.iter
    (fun frame ->
      String.iteri (fun n _ -> decodes_totally (String.sub frame 0 n)) frame)
    (List.map Serve.Wire.encode_request requests
    @ List.map Serve.Wire.encode_reply replies)

let prop_decoders_total =
  QCheck.Test.make ~count:2000 ~name:"decoders are total on arbitrary frames"
    QCheck.(
      pair
        (oneofl (List.of_seq (String.to_seq "CSPZHQROThAB\000")))
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
          Alcotest.test_case "hello names the serving target" `Quick
            test_hello_target;
          Alcotest.test_case "EINTR bombing never tears a frame" `Quick
            test_eintr_signal_bomb;
          Alcotest.test_case "undecodable request drops only its client"
            `Quick test_undecodable_request_drops_client;
          Alcotest.test_case "split and joined frames get the same reply"
            `Quick test_split_and_joined_frames;
          Alcotest.test_case "a 15 MiB frame allocates linearly" `Quick
            test_big_frame_allocation;
        ] );
      ( "codec",
        [
          Alcotest.test_case "requests round-trip" `Quick
            (roundtrip Serve.Wire.encode_request Serve.Wire.decode_request
               requests);
          Alcotest.test_case "replies round-trip" `Quick
            (roundtrip Serve.Wire.encode_reply Serve.Wire.decode_reply replies);
          Alcotest.test_case "options tags are distinct" `Quick
            test_options_tags_distinct;
          Alcotest.test_case "dispatch byte range" `Quick
            test_dispatch_byte_range;
          Alcotest.test_case "frame prefixes decode totally" `Quick
            test_prefixes_decode_totally;
          QCheck_alcotest.to_alcotest prop_decoders_total;
        ] );
    ]
