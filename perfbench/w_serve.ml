(* The [serve] workload: a [pasc serve -j 2] daemon on a warm private
   cache, one Serve.Client connection, 8-source batches the way [pasc
   client a.pas b.pas ...] sends them.  Three batches in four come from
   the hot set (the whole pool, which the daemon's result cache holds in
   full: its capacity is set so nothing is evicted); one in four carries
   fresh sources, unique per pass, which the daemon always compiles on
   its pool.  Hits and misses form separate modes, so p50 falls on hit
   batches and p90 on miss batches.  Serve.Wire, the server loop, the
   result cache and the daemon's domain pool do most of the work. *)

open Common

let live : Proc.daemon list ref = ref []

let kill_daemons () =
  List.iter Proc.kill !live;
  live := []

let batch_size = 8

let serve_args sock =
  [| "pasc"; "serve"; "--socket"; sock; "-j"; "2"; "--cache"; "65536";
     "--spec"; spec_path |]

(* Spawn a daemon and wait for its first answered ping; the socket path
   is relative to the checkout, which keeps it short. *)
let start ctx k =
  let sock = Printf.sprintf "%s/d%d.sock" ctx.tmp k in
  let d = Proc.spawn ~cache:ctx.cache ctx.pasc (serve_args sock) in
  live := d :: !live;
  let deadline = d.Proc.started + 30_000_000_000 in
  let rec attempt () =
    match Serve.Client.connect sock with
    | Ok c -> (
        match Serve.Client.ping c with
        | Ok () -> Some c
        | Error _ ->
            Serve.Client.close c;
            again ())
    | Error _ -> again ()
  and again () =
    if Proc.now_ns () > deadline || Proc.exited d.Proc.pid then None
    else begin
      Unix.sleepf 0.0002;
      attempt ()
    end
  in
  let c = attempt () in
  let secs = float_of_int (Proc.now_ns () - d.Proc.started) *. 1e-9 in
  (d, c, secs)

let stop d c =
  ignore (Serve.Client.shutdown c);
  Serve.Client.close c;
  let o = Proc.finish ~timeout:30. d in
  live := List.filter (fun x -> x != d) !live;
  o

type batch = { hot : bool; progs : int array }

(* Batches are stratified by source size: the members sorted by length
   form [batch_size] strata and a batch takes one program from each, so
   every batch costs about the same and the latency distribution does
   not hinge on which programs the seed happens to group.  Hot: six
   permutations of the members, fresh: two — every pass compiles each
   program exactly twice, so the totals do not depend on the seed
   either; the seed picks the groupings and the order. *)
let batches ctx (pool : prog array) (members : int array) =
  let st = rng ctx 2 in
  let sorted = Array.copy members in
  Array.stable_sort
    (fun a b -> compare (String.length pool.(a).source) (String.length pool.(b).source))
    sorted;
  let per = Array.length sorted / batch_size in
  let strata = Array.init batch_size (fun s -> Array.sub sorted (s * per) per) in
  let chunks hot perms =
    List.concat
      (List.init perms (fun _ ->
           let shuffled = Array.map (fun a -> shuffle st (Array.copy a)) strata in
           List.init per (fun j ->
               { hot; progs = Array.init batch_size (fun s -> shuffled.(s).(j)) })))
  in
  let hot_perms, fresh_perms = if ctx.smoke then (3, 1) else (6, 2) in
  shuffle st (Array.of_list (chunks true hot_perms @ chunks false fresh_perms))

let fresh_source ~pass ~slot src = Printf.sprintf "{ fresh %d.%d }\n%s" pass slot src

let stats_of text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ k; v ] -> Option.map (fun n -> (k, float_of_int n)) (int_of_string_opt v)
         | _ -> None)

let run ctx ~trace =
  let pool = load_pool () in
  (* warm the private table cache: serve set-up is measured on a warm one *)
  let o =
    Proc.run ~cache:ctx.cache ~timeout:60. ctx.pasc
      (W_compile.compile_args (W_compile.probe pool))
  in
  note_attempt (Proc.ok o);
  let tables = load_tables ~cache_dir:ctx.cache in
  let facts = facts tables pool in
  let members =
    let all = Array.init (Array.length pool) Fun.id in
    if ctx.smoke then Array.sub (shuffle (rng ctx 3) all) 0 16 else all
  in
  let sched = batches ctx pool members in
  let nb = Array.length sched in
  (* set-up: spawn to first answered ping, fastest of twenty; the last
     daemon serves the run *)
  let reps = if ctx.smoke then 1 else 20 in
  let peak = ref 0 in
  let daemon = ref None in
  let broken = ref false in
  let setup_s =
    fastest_of reps (fun k ->
        if !broken then infinity
        else
          let d, c, secs = start ctx k in
          match c with
          | None ->
              (* a daemon that dies or never answers ends the set-up *)
              broken := true;
              complain "daemon %d never answered a ping" k;
              Proc.kill d;
              infinity
          | Some c ->
              if k < reps then peak := max !peak (stop d c).Proc.maxrss_kib
              else daemon := Some (d, c);
              secs)
  in
  let npass = passes ctx ~pass_s:1.25 ~min:3 in
  let warm = 2 in
  let times = Array.make_matrix npass nb 0. in
  let cpu = Array.make npass infinity in
  let answered = Array.make nb true in
  let reply_bytes = ref 0 in
  let layers = ref [] in
  let sp = Spans.create () in
  let client_id = Spans.intern sp "client" in
  (match !daemon with
  | None -> Array.fill answered 0 nb false
  | Some (d, c) ->
      let pass p =
        (* p < warm: untimed passes that fill the result cache and pass
           every hot entry through the daemon's verify-once gate *)
        let k = p - warm in
        let traced = trace && k >= 0 && k mod 2 = 0 in
        let cpu0 = Proc.proc_cpu d.Proc.pid +. Proc.self_cpu () in
        reply_bytes := 0;
        Array.iteri
          (fun b { hot; progs } ->
            let sources =
              Array.mapi
                (fun j i ->
                  if hot then pool.(i).source
                  else fresh_source ~pass:p ~slot:((b * batch_size) + j) pool.(i).source)
                progs
            in
            let t0 = Proc.now_ns () in
            let send () =
              Proc.watching ~timeout:30. d.Proc.pid (fun () ->
                  Serve.Client.compile_batch c ~retry:true sources)
            in
            let r =
              if traced then begin
                sp.Spans.cur_op <- (k * nb) + b;
                Spans.span sp client_id send
              end
              else send ()
            in
            let t1 = Proc.now_ns () in
            if k >= 0 then times.(k).(b) <- float_of_int (t1 - t0) *. 1e-9;
            match r with
            | Error m ->
                answered.(b) <- false;
                Array.iter (fun _ -> note_attempt false) progs;
                if !wrong < 5 then complain "batch failed: %s" m
            | Ok replies ->
                Array.iteri
                  (fun j reply ->
                    let i = progs.(j) in
                    match reply with
                    | Serve.Wire.Compiled { outcome; _ } ->
                        (match outcome with
                        | Ok (l, code) -> reply_bytes := !reply_bytes + String.length l + String.length code
                        | Error m -> reply_bytes := !reply_bytes + String.length m);
                        (* every served reply must be the bytes an
                           in-process Pipeline.compile produces *)
                        if outcome <> facts.(i).compiled then
                          complain "%s: served bytes differ from Pipeline.compile"
                            pool.(i).name;
                        note_attempt (Result.is_ok outcome && outcome = facts.(i).compiled)
                    | _ ->
                        answered.(b) <- false;
                        note_attempt false)
                  replies)
          sched;
        if k >= 0 then
          cpu.(k) <-
            (Proc.proc_cpu d.Proc.pid +. Proc.self_cpu () -. cpu0) /. float_of_int nb
      in
      for p = 0 to warm + npass - 1 do
        pass p
      done;
      (* the comment that makes a fresh source unique changes nothing the
         compiler emits: confirm on a seeded sample *)
      let st = rng ctx 4 in
      for _ = 1 to 8 do
        let i = members.(Random.State.int st (Array.length members)) in
        let src = fresh_source ~pass:0 ~slot:0 pool.(i).source in
        let got =
          match Pipeline.compile tables src with
          | Ok c -> Ok (c.Pipeline.gen.Cogg.Codegen.listing, Pipeline.Batch.code_bytes c)
          | Error m -> Error m
        in
        if got <> facts.(i).compiled then
          complain "%s: a fresh variant compiles differently" pool.(i).name
      done;
      let stats =
        match Serve.Client.stats c with Ok s -> stats_of s | Error _ -> []
      in
      let o = stop d c in
      peak := max !peak o.Proc.maxrss_kib;
      daemon := None;
      if trace then begin
        let stat k = Option.value (List.assoc_opt k stats) ~default:0. in
        (* mean over answered batches passing [keep] of their fastest
           time among the passes passing [in_pass]; even passes are traced *)
        let mean_fastest ~in_pass keep =
          let rows = List.filteri (fun k _ -> in_pass k) (Array.to_list times) in
          let xs = ref [] in
          Array.iteri
            (fun b bt ->
              if answered.(b) && keep bt then
                xs := List.fold_left (fun m row -> Float.min m row.(b)) infinity rows :: !xs)
            sched;
          1e3 *. mean (Array.of_list !xs)
        in
        let traced_pass k = k mod 2 = 0 in
        let load_ms =
          1e3
          *. fastest_of 5 (fun _ ->
                 let t0 = Proc.now_ns () in
                 ignore (load_tables ~cache_dir:ctx.cache);
                 float_of_int (Proc.now_ns () - t0) *. 1e-9)
        in
        mkdir_p ".bench_out";
        Spans.write sp ".bench_out/spans-serve.tsv";
        layers :=
          [
            ("client.hit_batch_ms", mean_fastest ~in_pass:traced_pass (fun bt -> bt.hot));
            ("client.miss_batch_ms", mean_fastest ~in_pass:traced_pass (fun bt -> not bt.hot));
            ("client.reply_bytes", float_of_int !reply_bytes);
            ("server.hit_ratio", stat "inline_hits" /. Float.max 1. (stat "requests"));
            ("server.compiles", stat "compiles");
            ("server.verified_hits", stat "verified_hits");
            ("server.overloaded", stat "overloaded");
            ("server.evictions", stat "cache_evictions");
            ("tables_load.self_ms", load_ms);
            ( "trace.overhead_ms",
              if npass < 2 then 0.
              else
                mean_fastest ~in_pass:traced_pass (fun _ -> true)
                -. mean_fastest ~in_pass:(fun k -> not (traced_pass k)) (fun _ -> true) );
          ]
      end);
  write_ops "serve"
    (Array.mapi (fun b bt -> Printf.sprintf "%d-%s" b (if bt.hot then "hit" else "fresh")) sched)
    answered times;
  let op_s = select answered (fastest times) in
  if trace then (pool, `Layers !layers)
  else
    ( pool,
      `End_to_end
        ((m "setup_s" "s" setup_s :: latency_metrics op_s)
        @ [
            m "cpu_ms_per_op" "ms" (1e3 *. Array.fold_left Float.min infinity cpu);
            m "peak_rss_mb" "MiB" (float_of_int !peak /. 1024.);
          ]
        @ size_metrics tables facts) )
