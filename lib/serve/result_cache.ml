(** Content-addressed, in-memory result cache (see the mli).

    One owner: the compile service calls it only from its event-loop
    thread, so the table and the queue need no lock.  [order] holds
    exactly the keys of [tbl], oldest first: a key joins it when it is
    first stored and leaves it only when it is evicted. *)

type 'v t = {
  capacity : int;
  tbl : (string, 'v) Hashtbl.t;
  order : string Queue.t;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ~capacity : 'v t =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 64;
    order = Queue.create ();
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
  }

let find (t : 'v t) (key : string) : 'v option =
  let r = Hashtbl.find_opt t.tbl key in
  (match r with
  | Some _ -> t.n_hits <- t.n_hits + 1
  | None -> t.n_misses <- t.n_misses + 1);
  r

let store (t : 'v t) (key : string) (v : 'v) : unit =
  if not (Hashtbl.mem t.tbl key) then begin
    if Hashtbl.length t.tbl >= t.capacity then begin
      Hashtbl.remove t.tbl (Queue.take t.order);
      t.n_evictions <- t.n_evictions + 1
    end;
    Queue.add key t.order
  end;
  Hashtbl.replace t.tbl key v

let length (t : 'v t) : int = Hashtbl.length t.tbl

let stats (t : 'v t) : stats =
  {
    hits = t.n_hits;
    misses = t.n_misses;
    evictions = t.n_evictions;
    entries = length t;
  }
