(* The traced run's span recorder.  It is the benchmark's own — it does
   not use Cogg.Trace or Cogg.Metrics, so reworking those modules cannot
   shift the measurement.  A span is (name, start, stop, parent, op);
   spans live in flat growable arrays (no per-span allocation on the
   recording path) and are written out once, when the run ends.  Each
   span also carries the minor words allocated between its ends, read
   on the recording domain, so allocation counts are exact. *)

type t = {
  mutable name : int array;
  mutable start : int array;  (** ns, monotonic *)
  mutable stop : int array;
  mutable parent : int array;  (** span index, -1 at the root *)
  mutable op : int array;
  mutable words : float array;  (** minor words allocated inside *)
  mutable n : int;
  mutable open_ : int;  (** innermost open span, -1 when none *)
  mutable cur_op : int;
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (** reversed *)
}

let create () =
  let cap = 1 lsl 16 in
  {
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    words = Array.make cap 0.;
    n = 0;
    open_ = -1;
    cur_op = 0;
    names = Hashtbl.create 32;
    name_list = [];
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.add t.names s i;
      t.name_list <- s :: t.name_list;
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a z =
    let b = Array.make cap z in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- g t.name 0;
  t.start <- g t.start 0;
  t.stop <- g t.stop 0;
  t.parent <- g t.parent 0;
  t.op <- g t.op 0;
  t.words <- g t.words 0.

let enter t (name : int) : int =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.open_;
  t.op.(i) <- t.cur_op;
  t.open_ <- i;
  t.words.(i) <- Gc.minor_words ();
  t.start.(i) <- Proc.now_ns ();
  i

let leave t (i : int) =
  t.stop.(i) <- Proc.now_ns ();
  t.words.(i) <- Gc.minor_words () -. t.words.(i);
  t.open_ <- t.parent.(i)

(** [span t name f] records [f ()] as a span named [name] (interned by
    the caller with {!intern}), closing it on exceptions too. *)
let span t name f =
  let i = enter t name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let duration t i = t.stop.(i) - t.start.(i)

(** Self time of every span: its duration minus its direct children's. *)
let self_ns t : int array =
  let self = Array.init t.n (fun i -> duration t i) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

let name_of t = Array.of_list (List.rev t.name_list)

(** Write every span as one tab-separated line:
    index, name, op, parent, start_ns, stop_ns, minor_words. *)
let write t path =
  let names = name_of t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "span\tname\top\tparent\tstart_ns\tstop_ns\tminor_words\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%.0f\n" i names.(t.name.(i))
          t.op.(i) t.parent.(i) t.start.(i) t.stop.(i) t.words.(i)
      done)

(** Per-layer figures from a recorder whose op ids are [pass * n + index]
    and whose operations are root spans named [op]: for each operation
    kept by [keep], the self times of [names] in its fastest pass and
    their minor words in the last pass (exact, the same in every pass).
    Returns the self times averaged over the kept operations (ms), the
    words summed over them, and the mean fastest operation time (ms). *)
let layers t ~n ~npass ~(keep : bool array) (names : string list) =
  let ids = List.map (fun l -> Hashtbl.find_opt t.names l) names in
  let nl = List.length names in
  let self = self_ns t in
  let root = Hashtbl.find t.names "op" in
  let total = Array.make (npass * n) max_int in
  let ns = Array.make_matrix (npass * n) nl 0 in
  let words = Array.make_matrix (npass * n) nl 0. in
  for i = 0 to t.n - 1 do
    let op = t.op.(i) and nm = t.name.(i) in
    if nm = root then total.(op) <- duration t i
    else
      List.iteri
        (fun l id ->
          if id = Some nm then begin
            ns.(op).(l) <- ns.(op).(l) + self.(i);
            words.(op).(l) <- words.(op).(l) +. t.words.(i)
          end)
        ids
  done;
  let ms = Array.make nl 0. and w = Array.make nl 0. in
  let op_ms = ref 0. and kept = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      let best = ref i in
      for k = 1 to npass - 1 do
        if total.((k * n) + i) < total.(!best) then best := (k * n) + i
      done;
      incr kept;
      op_ms := !op_ms +. (float_of_int total.(!best) *. 1e-6);
      for l = 0 to nl - 1 do
        ms.(l) <- ms.(l) +. (float_of_int ns.(!best).(l) *. 1e-6);
        w.(l) <- w.(l) +. words.(((npass - 1) * n) + i).(l)
      done
    end
  done;
  let per_op x = if !kept = 0 then 0. else x /. float_of_int !kept in
  ( List.mapi (fun l name -> (name, per_op ms.(l))) names,
    List.mapi (fun l name -> (name, w.(l))) names,
    per_op !op_ms )
