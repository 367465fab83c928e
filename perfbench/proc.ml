(* Child processes with their own accounting.  Every operation the
   benchmark times is a process ([pasc compile], the [pasc serve]
   daemon), reaped with wait4 so its CPU time and peak RSS are the
   child's own, and every wait runs under a watchdog that kills a child
   outliving its timeout.

   Children are started by a small spawner process (this executable in
   [spawner] mode), launched before the benchmark loads anything.  Linux
   charges a child with the resident size its parent had when it forked
   or vforked, so spawning straight from the benchmark would report the
   benchmark's own footprint as the compiler's peak RSS; forking from the
   small spawner keeps [maxrss_kib] the child's.  The spawner times each
   operation itself, from fork to reap. *)

external wait4 : int -> int * int * float * int = "perfbench_wait4"
external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external self_cpu : unit -> float = "perfbench_self_cpu"

type outcome = {
  code : int;  (** exit status, or 128 + signal *)
  wall_s : float;
  cpu_s : float;  (** user + system CPU of the child *)
  maxrss_kib : int;
  timed_out : bool;
}

(** Exited 0 within its timeout. *)
let ok o = o.code = 0 && not o.timed_out

(* -- the watchdog (in whichever process waits) ------------------------------ *)

let watched = ref 0
let fired = ref false

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if !watched > 0 then begin
           fired := true;
           try Unix.kill !watched Sys.sigkill with Unix.Unix_error _ -> ()
         end))

let arm secs =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = secs })

(** Run [f] with [pid] under the watchdog: after [timeout] seconds the
    pid is sent SIGKILL, which makes whatever [f] blocks on return. *)
let watching ~timeout pid f =
  watched := pid;
  fired := false;
  arm timeout;
  Fun.protect
    ~finally:(fun () ->
      arm 0.;
      watched := 0)
    f

let rec reap pid =
  match wait4 pid with
  | -1, _, _, _ -> reap pid
  | -2, _, _, _ -> (255, 0., 0)
  | _, code, cpu, rss -> (code, cpu, rss)

(* -- the spawner ---------------------------------------------------------------

   Requests and replies are single tab-separated lines:
     run TIMEOUT CACHE_DIR STDOUT PROG ARG...  ->  CODE WALL_NS CPU_S RSS TIMED_OUT
     start CACHE_DIR PROG ARG...               ->  PID START_NS
     reap PID TIMEOUT                          ->  CODE WALL_NS CPU_S RSS TIMED_OUT
   STDOUT is a file to truncate and write, or [-] for /dev/null.  Every
   child gets COGG_CACHE_DIR and none of the other COGG_ variables, which
   would change what it does (worker counts, incremental switches). *)

let spawner_main () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let base_env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.length kv >= 5 && String.sub kv 0 5 = "COGG_"))
  in
  let fork_exec cache out prog args =
    let env = Array.of_list (("COGG_CACHE_DIR=" ^ cache) :: base_env) in
    match Unix.fork () with
    | 0 -> (
        try
          Unix.dup2 null Unix.stdin;
          Unix.dup2 out Unix.stdout;
          Unix.dup2 null Unix.stderr;
          Unix.execve prog (Array.of_list args) env
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  let started = Hashtbl.create 4 in
  let wait_reply pid t0 timeout =
    let code, cpu, rss = watching ~timeout pid (fun () -> reap pid) in
    Printf.sprintf "%d\t%d\t%.9f\t%d\t%b" code (now_ns () - t0) cpu rss !fired
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
        let reply =
          match String.split_on_char '\t' line with
          | "run" :: timeout :: cache :: out :: prog :: args ->
              let fd =
                if out = "-" then null
                else Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
              in
              let t0 = now_ns () in
              let pid = fork_exec cache fd prog args in
              let r = wait_reply pid t0 (float_of_string timeout) in
              if fd != null then Unix.close fd;
              r
          | "start" :: cache :: prog :: args ->
              let t0 = now_ns () in
              let pid = fork_exec cache null prog args in
              Hashtbl.replace started pid t0;
              Printf.sprintf "%d\t%d" pid t0
          | [ "reap"; pid; timeout ] ->
              let pid = int_of_string pid in
              let t0 = Option.value (Hashtbl.find_opt started pid) ~default:(now_ns ()) in
              wait_reply pid t0 (float_of_string timeout)
          | _ -> "error"
        in
        print_string reply;
        print_char '\n';
        flush stdout;
        loop ()
  in
  loop ()

(* -- the benchmark side -------------------------------------------------------- *)

type spawner = { pid : int; oc : out_channel; ic : in_channel }

let spawner : spawner option ref = ref None

(** Start the spawner; call before the benchmark grows. *)
let start_spawner () =
  let r1, w1 = Unix.pipe ~cloexec:true () and r2, w2 = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "spawner" |]
      r1 w2 Unix.stderr
  in
  Unix.close r1;
  Unix.close w2;
  spawner :=
    Some { pid; oc = Unix.out_channel_of_descr w1; ic = Unix.in_channel_of_descr r2 }

let stop_spawner () =
  match !spawner with
  | None -> ()
  | Some s ->
      spawner := None;
      close_out_noerr s.oc;
      ignore (watching ~timeout:10. s.pid (fun () -> reap s.pid));
      close_in_noerr s.ic

let request fields =
  match !spawner with
  | None -> failwith "spawner not started"
  | Some s ->
      output_string s.oc (String.concat "\t" fields);
      output_char s.oc '\n';
      flush s.oc;
      String.split_on_char '\t' (input_line s.ic)

let outcome_of = function
  | [ code; wall; cpu; rss; timed_out ] ->
      {
        code = int_of_string code;
        wall_s = float_of_string wall *. 1e-9;
        cpu_s = float_of_string cpu;
        maxrss_kib = int_of_string rss;
        timed_out = bool_of_string timed_out;
      }
  | _ -> failwith "malformed spawner reply"

(** [run ~cache ~timeout prog args] runs [prog] with COGG_CACHE_DIR set to
    [cache] (stdin, stderr and — unless [stdout] names a file — stdout on
    /dev/null), waits for it and returns its accounting.  [args]
    includes argv[0]. *)
let run ?(stdout = "-") ~cache ~timeout prog (args : string array) : outcome =
  outcome_of
    (request
       ([ "run"; string_of_float timeout; cache; stdout; prog ] @ Array.to_list args))

(** Run a command and return its standard output with the accounting
    (used outside the timed passes, for output checks). *)
let run_capture ~cache ~timeout ~scratch prog args : outcome * string =
  let o = run ~stdout:scratch ~cache ~timeout prog args in
  let ic = open_in_bin scratch in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (o, s)

(** A long-lived child (the daemon): started now, reaped by {!finish}. *)
type daemon = { pid : int; mutable reaped : outcome option; started : int }

let spawn ~cache prog (args : string array) : daemon =
  match request ([ "start"; cache; prog ] @ Array.to_list args) with
  | [ pid; started ] ->
      { pid = int_of_string pid; reaped = None; started = int_of_string started }
  | _ -> failwith "malformed spawner reply"

(** Reap the daemon, killing it if it has not exited within [timeout]. *)
let finish ~timeout (d : daemon) : outcome =
  match d.reaped with
  | Some o -> o
  | None ->
      let o =
        outcome_of
          (request [ "reap"; string_of_int d.pid; string_of_float timeout ])
      in
      d.reaped <- Some o;
      o

(** Kill and reap (the cleanup path: never leaves a child behind). *)
let kill (d : daemon) =
  if d.reaped = None then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (finish ~timeout:10. d)
  end

(* the fields of /proc/PID/stat after the parenthesised command name,
   which start at field 3 (the state) *)
let proc_stat pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  let i = String.rindex line ')' in
  Array.of_list
    (String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2)))

(** CPU seconds (user + system, all threads) a live process has used so
    far — fields 14 and 15; resolution is one clock tick (10 ms). *)
let proc_cpu pid : float =
  let f = proc_stat pid in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(** Whether a child has exited (it stays a zombie until reaped). *)
let exited pid =
  match proc_stat pid with f -> f.(0) = "Z" | exception Sys_error _ -> true
