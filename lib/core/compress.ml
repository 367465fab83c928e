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

(* Each array is a column of cells at the narrowest width that holds its
   values: for a comb these are exactly the widths [size_bytes] charges
   (16-bit actions, row ids and offsets, 8-bit checks), so the cells of a
   loaded bundle are the table Table 2 accounts for, probed in place. *)
type t = {
  n_states : int;
  n_syms : int;
  method_ : method_;
  row_index : Cells.t; (* state -> shared row id *)
  defaults : Cells.t; (* per-row default entry (encoded) *)
  offsets : Cells.t; (* per-row displacement into value/check *)
  value : Cells.t;
  check : Cells.t; (* owning column symbol + 1, 0 = free *)
  size_bytes : int;
}

(** Bytes the five columns' cells take; equal to [size_bytes] for a
    comb. *)
let cell_bytes c =
  Cells.(
    byte_size c.row_index + byte_size c.defaults + byte_size c.offsets
    + byte_size c.value + byte_size c.check)

(** Size in bytes of the uncompressed table: one 16-bit entry per
    (state, symbol) pair. *)
let uncompressed_bytes c = c.n_states * c.n_syms * 2

(* Per-state rows: each state's default entry and its other non-error
   (column, entry) pairs in column order.  The default is the most
   common reduce action of the row (shifts and errors are never
   defaulted: a defaulted shift would consume input wrongly), ties to
   the smaller encoding (the smaller production): a strict total order.
   One pass over a row counts each production's reduce cells in
   [counts] (zero between rows) and keeps the leader so far, which is
   the leader at the end because counts only grow, while it copies the
   non-error cells out; the short second pass over those cells builds
   the entry list and clears the counts. *)
let extract_rows method_ (pt : Parse_table.t) : (int * (int * int) list) array
    =
  let g = pt.Parse_table.grammar in
  let defaults =
    match method_ with
    | Defaults_only | Defaults_and_comb -> true
    | No_compression | Comb_only -> false
  in
  let counts = Array.make (Grammar.n_prods g) 0 in
  let cols = Array.make (Grammar.n_syms g) 0 in
  let codes = Array.make (Grammar.n_syms g) 0 in
  Array.map
    (fun (row : Parse_table.action array) ->
      let n = ref 0 and best = ref (-1) and best_n = ref 0 in
      for sym = 0 to Array.length row - 1 do
        match row.(sym) with
        | Error -> ()
        | a ->
            cols.(!n) <- sym;
            codes.(!n) <- encode_action a;
            incr n;
            begin
              match a with
              | Reduce p when defaults ->
                  let c = counts.(p) + 1 in
                  counts.(p) <- c;
                  if c > !best_n || (c = !best_n && p < !best) then begin
                    best := p;
                    best_n := c
                  end
              | _ -> ()
            end
      done;
      let d = if !best < 0 then 0 else encode_action (Reduce !best) in
      let entries = ref [] in
      for k = !n - 1 downto 0 do
        let v = codes.(k) in
        (* reduce codes are the odd ones from 3 *)
        if v >= 3 && v land 1 = 1 then counts.((v - 3) / 2) <- 0;
        if v <> d then entries := (cols.(k), v) :: !entries
      done;
      (d, !entries))
    pt.Parse_table.actions

module Row_tbl = Hashtbl.Make (struct
  type t = int * (int * int) list

  let equal ((d, e) : t) ((d', e') : t) =
    d = d'
    && List.equal
         (fun ((s, v) : int * int) (s', v') -> s = s' && v = v')
         e e'

  let hash ((d, e) : t) =
    List.fold_left
      (fun h ((s, v) : int * int) -> (((h * 31) + s) * 31) + v)
      d e
    land 0x3fffffff
end)

(* Row sharing: map distinct (default, entries) values to row ids;
   returns the state->row map and the distinct rows in first-seen
   order. *)
let share_rows (state_rows : (int * (int * int) list) array) :
    int array * (int * (int * int) list) array =
  let row_ids = Row_tbl.create 64 in
  let row_index = Array.make (Array.length state_rows) 0 in
  let distinct = ref [] in
  let n_rows = ref 0 in
  Array.iteri
    (fun s row ->
      match Row_tbl.find_opt row_ids row with
      | Some id -> row_index.(s) <- id
      | None ->
          let id = !n_rows in
          incr n_rows;
          Row_tbl.replace row_ids row id;
          distinct := row :: !distinct;
          row_index.(s) <- id)
    state_rows;
  (row_index, Array.of_list (List.rev !distinct))

let rows method_ pt = share_rows (extract_rows method_ pt)

(* Bitsets of [word]-bit words in native ints ([word] = 62 keeps every
   word non-negative, so a word with every bit set is [full]); bits past
   the end of the array read as clear. *)
let word = 62
let full = (1 lsl word) - 1

let bit_set (b : int array ref) p =
  let i = p / word in
  if i >= Array.length !b then begin
    let nb = Array.make (max (i + 1) (2 * Array.length !b)) 0 in
    Array.blit !b 0 nb 0 (Array.length !b);
    b := nb
  end;
  !b.(i) <- !b.(i) lor (1 lsl (p mod word))

(* the [word] bits of [b] from bit (i * word + r), 0 <= r < word, as one
   word: bit k is bit (i * word + r + k) *)
let[@inline] window (b : int array) i r =
  let n = Array.length b in
  let lo = if i < n then b.(i) else 0 in
  if r = 0 then lo
  else
    let hi = if i + 1 < n then b.(i + 1) else 0 in
    (lo lsr r) lor ((hi lsl (word - r)) land full)

let rec lowest_clear w k =
  if (w lsr k) land 1 = 0 then k else lowest_clear w (k + 1)

(* First-fit row displacement, densest row first (ties broken by row id
   for a strict total order, so the packing sequence is fully determined
   by the input).  The check array stores the *column symbol* (one byte),
   which is sound because packed rows always take distinct offsets: a
   position p can only satisfy check[p] = sym with p = offset + sym for
   the single row that owns it.

   Each row takes the lowest offset that no row has taken and that puts
   every one of its columns on a free cell.  The search tests [word]
   candidate offsets at once: over the block of offsets from [base],
     taken[base ..] lor (lor over the row's columns s of occ[base + s ..])
   has bit i clear exactly when offset base + i fits, so the block's
   lowest clear bit is the offset a probe of one offset at a time would
   stop at, and a full word (every offset blocked) moves on to the next
   block.  Successive blocks advance every window by one whole word, so
   a column's word index and shift are computed once per row.  The first
   block starts at the [min_free] cursor: slots only ever fill, so no
   lower offset can put the row's lowest column on a free cell.
   Placement is sequential — each row's offset depends on the occupancy
   every earlier row left — so the comb is the same at any worker
   count. *)
let pack_rows (entries_of : (int * int) list array) :
    int array * int array * int array =
  let n_rows = Array.length entries_of in
  let row_len = Array.map List.length entries_of in
  let order = Array.init n_rows Fun.id in
  Array.sort
    (fun (a : int) b ->
      if row_len.(a) <> row_len.(b) then Int.compare row_len.(b) row_len.(a)
      else Int.compare a b)
    order;
  let cap = ref (max 64 (n_rows * 4)) in
  let value = ref (Array.make !cap 0) in
  let check = ref (Array.make !cap 0) in
  let used = ref 0 in
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
  (* occupancy mirrors the check array; taken marks row offsets *)
  let occ = ref [||] and taken = ref [||] in
  let offsets = Array.make n_rows (-1) in
  let min_free = ref 0 in
  Array.iter
    (fun rid ->
      match entries_of.(rid) with
      | [] -> ()
      | (s0, _) :: _ as entries ->
          while !min_free < !cap && !check.(!min_free) <> 0 do
            incr min_free
          done;
          let base = max 0 (!min_free - s0) in
          (* each column's cell at offset [base] *)
          let cells =
            Array.of_list (List.map (fun (s, _) -> base + s) entries)
          in
          let idx = Array.map (fun p -> p / word) cells
          and shift = Array.map (fun p -> p mod word) cells in
          let occw = !occ and takenw = !taken in
          let rec fit blk =
            let blocked =
              ref (window takenw ((base / word) + blk) (base mod word))
            in
            let k = ref 0 in
            while !blocked <> full && !k < Array.length cells do
              blocked := !blocked lor window occw (idx.(!k) + blk) shift.(!k);
              incr k
            done;
            if !blocked = full then fit (blk + 1)
            else base + (blk * word) + lowest_clear !blocked 0
          in
          let off = fit 0 in
          bit_set taken off;
          offsets.(rid) <- off;
          List.iter
            (fun (sym, v) ->
              let p = off + sym in
              ensure (p + 1);
              !value.(p) <- v;
              !check.(p) <- sym + 1;
              bit_set occ p;
              if p + 1 > !used then used := p + 1)
            entries)
    order;
  (* empty rows point past the packed area: every probe misses *)
  Array.iteri (fun rid off -> if off < 0 then offsets.(rid) <- !used) offsets;
  (offsets, Array.sub !value 0 !used, Array.sub !check 0 !used)

let compress ?(method_ = Defaults_and_comb) (pt : Parse_table.t) : t =
  let n_states = Parse_table.n_states pt in
  let n_syms = Grammar.n_syms pt.Parse_table.grammar in
  let state_rows = extract_rows method_ pt in
  let row_index, defaults, offsets, value, check, size_bytes =
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
        (row_index, defaults, offsets, value, check, size_bytes)
    | Comb_only | Defaults_and_comb ->
        let row_index, rows = share_rows state_rows in
        let n_rows = Array.length rows in
        let defaults = Array.map fst rows in
        let offsets, value, check = pack_rows (Array.map snd rows) in
        let used = Array.length value in
        let size_bytes =
          (used * 2) (* value: 16-bit actions *)
          + used (* check: 8-bit symbol ids *)
          + (n_rows * 2) (* offsets *)
          + (n_states * 2) (* state -> row mapping *)
          + match method_ with Defaults_and_comb -> n_rows * 2 | _ -> 0
        in
        (row_index, defaults, offsets, value, check, size_bytes)
  in
  {
    n_states;
    n_syms;
    method_;
    row_index = Cells.of_array row_index;
    defaults = Cells.of_array defaults;
    offsets = Cells.of_array offsets;
    value = Cells.of_array value;
    check = Cells.of_array check;
    size_bytes;
  }

(** O(1) probe returning the raw encoded entry: row_index -> offset ->
    value/check, falling back to the row default on a check miss.  This
    is the runtime dispatch path {!Driver.parse} runs on, so it avoids
    allocating a {!Parse_table.action} per lookup. *)
let action_code (c : t) (state : int) (sym : int) : int =
  let rid = Cells.get c.row_index state in
  let p = Cells.get c.offsets rid + sym in
  (* packed rows check the column symbol, dense rows their own state *)
  let owner =
    match c.method_ with
    | Comb_only | Defaults_and_comb -> sym + 1
    | No_compression | Defaults_only -> state + 1
  in
  if p >= 0 && p < Cells.length c.check && Cells.get c.check p = owner then
    Cells.get c.value p
  else Cells.get c.defaults rid

(** Specialized probe for the driver's inner loop: the table's columns and
    the method dispatch are resolved once, outside the per-lookup path,
    and the cells are read where they lie (in a loaded bundle, the
    bundle's own bytes).  Equivalent to [action_code c]. *)
let dispatcher (c : t) : int -> int -> int =
  let row_index = c.row_index
  and offsets = c.offsets
  and value = c.value
  and check = c.check
  and defaults = c.defaults in
  let ncheck = Cells.length check in
  match c.method_ with
  | Comb_only | Defaults_and_comb ->
      (* p >= 0 always: offsets and symbol ids are non-negative *)
      fun state sym ->
        let rid = Cells.get row_index state in
        let p = Cells.get offsets rid + sym in
        if p < ncheck && Cells.get check p = sym + 1 then Cells.get value p
        else Cells.get defaults rid
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
