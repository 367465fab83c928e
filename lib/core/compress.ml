(** Parse-table compression.

    Two classical techniques, composable (the paper's "compressed" table,
    Table 2, notes its tables are "by no means minimally compressed"):

    - default reductions: the most common reduce action of a row becomes
      the row default, removing those entries from the row (error
      detection is delayed by at most a few reductions, never lost);
    - row-displacement ("comb") packing: the remaining sparse rows are
      overlaid into a single value array with a check array.

    Entry encoding (16-bit): 0 = error, 1 = accept, 2+2k = shift k,
    3+2k = reduce k. *)

type method_ =
  | No_compression
  | Defaults_only
  | Comb_only
  | Defaults_and_comb

let encode_action : Parse_table.action -> int = function
  | Error -> 0
  | Accept -> 1
  | Shift s -> 2 + (2 * s)
  | Reduce p -> 3 + (2 * p)

let decode_action (v : int) : Parse_table.action =
  if v = 0 then Error
  else if v = 1 then Accept
  else if v mod 2 = 0 then Shift ((v - 2) / 2)
  else Reduce ((v - 3) / 2)

type t = {
  n_states : int;
  n_syms : int;
  method_ : method_;
  row_index : int array; (* state -> shared row id *)
  defaults : int array; (* per-row default entry (encoded) *)
  offsets : int array; (* per-row displacement into value/check *)
  value : int array;
  check : int array; (* owning column symbol + 1, 0 = free *)
  size_bytes : int;
}

(** Size in bytes of the uncompressed table: one 16-bit entry per
    (state, symbol) pair. *)
let uncompressed_bytes (pt : Parse_table.t) =
  Parse_table.n_states pt * Grammar.n_syms pt.Parse_table.grammar * 2

(* Default selection.  The candidates are the reduce actions present in
   the row (shifts and errors are never defaulted: a defaulted shift
   would consume input wrongly).  Candidates rank by cell count, then
   by the smaller encoding: a strict total order, so the choice is
   independent of hash iteration order. *)
let row_default method_ (row : Parse_table.action array) : int =
  match method_ with
  | No_compression | Comb_only -> 0
  | Defaults_only | Defaults_and_comb ->
      let counts = Hashtbl.create 8 in
      Array.iter
        (fun a ->
          match a with
          | Parse_table.Reduce _ ->
              let v = encode_action a in
              Hashtbl.replace counts v
                (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
          | _ -> ())
        row;
      let best = ref 0 and best_key = ref (min_int, min_int) in
      Hashtbl.iter
        (fun v c ->
          let key = (c, -v) in
          if key > !best_key then begin
            best_key := key;
            best := v
          end)
        counts;
      !best

(* Per-state (default, significant entries) extraction — the
   n_states x n_syms sweep, each state independent, mapped over the
   pool; results land by state index, so the outcome is worker-count
   invariant. *)
let extract_rows ?pool method_ (pt : Parse_table.t) :
    (int * (int * int) list) array =
  Pool.maybe pool
    (fun row ->
      let d = row_default method_ row in
      let entries = ref [] in
      Array.iteri
        (fun sym a ->
          let v = encode_action a in
          if v <> d && v <> 0 then entries := (sym, v) :: !entries)
        row;
      (d, List.rev !entries))
    pt.Parse_table.actions

(* Row sharing: map distinct (default, entries) values to row ids;
   returns the state->row map and the distinct rows in first-seen
   order. *)
let share_rows (state_rows : (int * (int * int) list) array) :
    int array * (int * (int * int) list) array =
  let row_ids : (int * (int * int) list, int) Hashtbl.t = Hashtbl.create 64 in
  let row_index = Array.make (Array.length state_rows) 0 in
  let distinct = ref [] in
  let n_rows = ref 0 in
  Array.iteri
    (fun s row ->
      match Hashtbl.find_opt row_ids row with
      | Some id -> row_index.(s) <- id
      | None ->
          let id = !n_rows in
          incr n_rows;
          Hashtbl.replace row_ids row id;
          distinct := row :: !distinct;
          row_index.(s) <- id)
    state_rows;
  (row_index, Array.of_list (List.rev !distinct))

(* First-fit row displacement, densest row first (ties broken by row id
   for a strict total order, so the packing sequence is fully determined
   by the input).  The check array stores the *column symbol* (one byte),
   which is sound because packed rows always take distinct offsets: a
   position p can only satisfy check[p] = sym with p = offset + sym for
   the single row that owns it.

   The scan is kept near-linear in the packed size: a monotone
   [min_free] cursor (slots only ever fill, never free) lets each row
   start probing at the first offset that could possibly place its
   lowest column on a free slot, and both the taken-offset set and the
   candidate probe run over plain arrays with no per-probe allocation.

   Per-row packing prep — the entry array and the column bitmask the
   first-fit probe walks — is pure per row and maps over the pool
   (chunks of rows, merged by row id).  The placement loop itself stays
   sequential: each row's offset depends on the occupancy left by every
   earlier row, and byte-identical tables at any worker count are a
   hard requirement. *)
let pack_rows ?pool (entries_of : (int * int) list array) :
    int array * int array * int array =
  let n_rows = Array.length entries_of in
  let row_len = Array.map List.length entries_of in
  let order = Array.init n_rows Fun.id in
  Array.sort
    (fun (a : int) b ->
      if row_len.(a) <> row_len.(b) then Int.compare row_len.(b) row_len.(a)
      else Int.compare a b)
    order;
  let prepped =
    Pool.maybe pool
      (fun entry_list ->
        match entry_list with
        | [] -> None
        | l ->
            let entries = Array.of_list l in
            let ne = Array.length entries in
            let s0 = fst entries.(0) in
            (* the row's columns as a bit mask over [0, s_max] *)
            let s_max = fst entries.(ne - 1) in
            let mwords = (s_max lsr 5) + 1 in
            let mask = Array.make mwords 0 in
            Array.iter
              (fun (s, _) ->
                mask.(s lsr 5) <- mask.(s lsr 5) lor (1 lsl (s land 31)))
              entries;
            Some (entries, s0, mwords, mask))
      entries_of
  in
  let cap = ref (max 64 (n_rows * 4)) in
  let value = ref (Array.make !cap 0) in
  let check = ref (Array.make !cap 0) in
  let used = ref 0 in
  let taken = ref (Bytes.make !cap '\000') in
  let ensure n =
    if n > !cap then begin
      let ncap = max n (!cap * 2) in
      let nv = Array.make ncap 0 and nc = Array.make ncap 0 in
      Array.blit !value 0 nv 0 !cap;
      Array.blit !check 0 nc 0 !cap;
      value := nv;
      check := nc;
      cap := ncap
    end
  in
  let offsets = Array.make n_rows (-1) in
  let min_free = ref 0 in
  (* occupancy bitset mirroring the check array: candidate probing
     walks a few KB of bits (L1-resident) instead of re-reading the
     much larger check array for every candidate offset.  32-bit
     words inside native ints keep every index computation a shift
     or mask and leave headroom for the cross-word window splice. *)
  let bbits = 32 in
  let bmask = (1 lsl bbits) - 1 in
  let occ = ref (Array.make ((!cap lsr 5) + 2) 0) in
  let occ_set p =
    let i = p lsr 5 in
    if i >= Array.length !occ then begin
      let narr = Array.make (max (i + 1) (2 * Array.length !occ)) 0 in
      Array.blit !occ 0 narr 0 (Array.length !occ);
      occ := narr
    end;
    !occ.(i) <- !occ.(i) lor (1 lsl (p land 31))
  in
  Array.iter
    (fun rid ->
      match prepped.(rid) with
      | None -> ()
      | Some (entries, s0, mwords, mask) ->
          (* advance past the filled prefix: every slot below
             [min_free] is occupied, so no offset can place the first
             (lowest) column there *)
          while !min_free < !cap && !check.(!min_free) <> 0 do
            incr min_free
          done;
          let occw = !occ in
          let nocc = Array.length occw in
          let fits off =
            (off >= Bytes.length !taken || Bytes.get !taken off = '\000')
            &&
            let ok = ref true and w = ref 0 in
            while !ok && !w < mwords do
              let g = off + (!w lsl 5) in
              let i = g lsr 5 and r = g land 31 in
              let w0 = if i < nocc then occw.(i) else 0 in
              let window =
                if r = 0 then w0
                else
                  let w1 = if i + 1 < nocc then occw.(i + 1) else 0 in
                  (w0 lsr r) lor ((w1 lsl (bbits - r)) land bmask)
              in
              if window land mask.(!w) <> 0 then ok := false;
              incr w
            done;
            !ok
          in
          let off = ref (max 0 (!min_free - s0)) in
          while not (fits !off) do
            incr off
          done;
          if !off >= Bytes.length !taken then begin
            let nb =
              Bytes.make (max (!off + 1) (2 * Bytes.length !taken)) '\000'
            in
            Bytes.blit !taken 0 nb 0 (Bytes.length !taken);
            taken := nb
          end;
          Bytes.set !taken !off '\001';
          offsets.(rid) <- !off;
          Array.iter
            (fun (sym, v) ->
              let p = !off + sym in
              ensure (p + 1);
              !value.(p) <- v;
              !check.(p) <- sym + 1;
              occ_set p;
              if p + 1 > !used then used := p + 1)
            entries)
    order;
  (* empty rows point past the packed area: every probe misses *)
  Array.iteri (fun rid off -> if off < 0 then offsets.(rid) <- !used) offsets;
  (offsets, Array.sub !value 0 !used, Array.sub !check 0 !used)

let compress ?pool ?(method_ = Defaults_and_comb) (pt : Parse_table.t) : t =
  let n_states = Parse_table.n_states pt in
  let n_syms = Grammar.n_syms pt.Parse_table.grammar in
  let state_rows = extract_rows ?pool method_ pt in
  match method_ with
  | No_compression | Defaults_only ->
      (* dense layout, one row per state (no sharing: the point of this
         method is the flat table the paper calls "uncompressed") *)
      let value = Array.make (n_states * n_syms) 0 in
      let check = Array.make (n_states * n_syms) 0 in
      let row_index = Array.init n_states Fun.id in
      let defaults = Array.map (fun (d, _) -> d) state_rows in
      Array.iteri
        (fun s (_, entries) ->
          List.iter
            (fun (sym, v) ->
              value.((s * n_syms) + sym) <- v;
              check.((s * n_syms) + sym) <- s + 1)
            entries)
        state_rows;
      let offsets = Array.init n_states (fun s -> s * n_syms) in
      let size_bytes =
        (* dense layout stores only the value array plus defaults *)
        (n_states * n_syms * 2)
        + match method_ with Defaults_only -> n_states * 2 | _ -> 0
      in
      { n_states; n_syms; method_; row_index; defaults; offsets; value; check;
        size_bytes }
  | Comb_only | Defaults_and_comb ->
      let row_index, rows = share_rows state_rows in
      let n_rows = Array.length rows in
      let defaults = Array.map fst rows in
      let offsets, value, check = pack_rows ?pool (Array.map snd rows) in
      let used = Array.length value in
      let size_bytes =
        (used * 2) (* value: 16-bit actions *)
        + used (* check: 8-bit symbol ids *)
        + (n_rows * 2) (* offsets *)
        + (n_states * 2) (* state -> row mapping *)
        + match method_ with Defaults_and_comb -> n_rows * 2 | _ -> 0
      in
      { n_states; n_syms; method_; row_index; defaults; offsets; value; check;
        size_bytes }

(** O(1) probe returning the raw encoded entry: row_index -> offset ->
    value/check, falling back to the row default on a check miss.  This
    is the runtime dispatch path {!Driver.parse} runs on, so it avoids
    allocating a {!Parse_table.action} per lookup. *)
let action_code (c : t) (state : int) (sym : int) : int =
  let rid = c.row_index.(state) in
  let p = c.offsets.(rid) + sym in
  (* packed rows check the column symbol, dense rows their own state *)
  let owner =
    match c.method_ with
    | Comb_only | Defaults_and_comb -> sym + 1
    | No_compression | Defaults_only -> state + 1
  in
  if p >= 0 && p < Array.length c.check && c.check.(p) = owner then c.value.(p)
  else c.defaults.(rid)

(** Specialized probe for the driver's inner loop: the table's arrays and
    the method dispatch are resolved once, outside the per-lookup path.
    Equivalent to [action_code c]. *)
let dispatcher (c : t) : int -> int -> int =
  let row_index = c.row_index
  and offsets = c.offsets
  and value = c.value
  and check = c.check
  and defaults = c.defaults in
  let ncheck = Array.length check in
  match c.method_ with
  | Comb_only | Defaults_and_comb ->
      (* p >= 0 always: offsets and symbol ids are non-negative *)
      fun state sym ->
        let rid = row_index.(state) in
        let p = offsets.(rid) + sym in
        if p < ncheck && check.(p) = sym + 1 then value.(p) else defaults.(rid)
  | No_compression | Defaults_only -> fun state sym -> action_code c state sym

(** Decoded variant of {!action_code}: table lookup through the
    compressed representation. *)
let action (c : t) (state : int) (sym : int) : Parse_table.action =
  decode_action (action_code c state sym)

(** Check that a compressed table reproduces the original exactly, modulo
    default reductions replacing errors (which only delay error
    detection).  Returns the number of entries where an error was replaced
    by a default reduction. *)
let verify (c : t) (pt : Parse_table.t) : (int, string) result =
  let softened = ref 0 in
  let bad = ref None in
  Array.iteri
    (fun state row ->
      Array.iteri
        (fun sym a ->
          let got = action c state sym in
          if got <> a then
            match (a, got) with
            | Parse_table.Error, Parse_table.Reduce _ -> incr softened
            | _ ->
                if !bad = None then
                  bad := Some (Fmt.str "state %d sym %d mismatch" state sym))
        row)
    pt.Parse_table.actions;
  match !bad with Some m -> Error m | None -> Ok !softened
