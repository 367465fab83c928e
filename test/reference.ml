(* The table construction CoGG used before its current one, kept as the
   oracle the current code must match: test_lr's "reference" cases hold
   LR(0), FIRST/nullable/FOLLOW, the reductions, the action fill and the
   row extraction in lib/core equal to these, and test_compress_driver's
   "packer" cases hold Compress.pack_rows equal to the packer at the
   end.  LR(0) closures are found item by item and sorted; FIRST/FOLLOW
   and lookahead sets are [Set.Make (Int)] fixpoints; the fill resolves
   through a polymorphic [resolve]; row defaults are counted in a
   [Hashtbl] per row; the packer probes one offset at a time.  Each is
   the sequential form of the code it replaced (no pool fan-out),
   otherwise unchanged, and slow.  The register allocator at the end is
   the list-based one test_regalloc's "reference" property holds
   Cogg.Regalloc equal to.  The per-file layers come last: the lexer
   that matched keywords with [List.mem] and cut every symbol with
   [String.sub] (test_pascal's "reference" property), and the listing
   renderers that wrote every integer through [string_of_int]
   (test_machine's "listing reference" property). *)

module Grammar = Cogg.Grammar
module Parse_table = Cogg.Parse_table

module IntSet = Set.Make (Int)

(* -- FIRST, nullable and FOLLOW ------------------------------------------------- *)

type analysis = {
  first : IntSet.t array;
  nullable : bool array;
  follow : IntSet.t array;
}

let first_of_seq (an : analysis) (seq : int array) ~from : IntSet.t * bool =
  let rec go i acc =
    if i >= Array.length seq then (acc, true)
    else
      let s = seq.(i) in
      let acc = IntSet.union acc an.first.(s) in
      if an.nullable.(s) then go (i + 1) acc else (acc, false)
  in
  go from IntSet.empty

let analyze (g : Grammar.t) : analysis =
  let n = Grammar.n_syms g in
  let first = Array.init n (fun s -> IntSet.singleton s) in
  let nullable = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Grammar.prod) ->
        let all_null = Array.for_all (fun s -> nullable.(s)) p.rhs in
        if all_null && not nullable.(p.lhs) then begin
          nullable.(p.lhs) <- true;
          changed := true
        end;
        let rec add i =
          if i < Array.length p.rhs then begin
            let s = p.rhs.(i) in
            let before = first.(p.lhs) in
            first.(p.lhs) <- IntSet.union before first.(s);
            if not (IntSet.equal before first.(p.lhs)) then changed := true;
            if nullable.(s) then add (i + 1)
          end
        in
        add 0)
      g.Grammar.prods
  done;
  let follow = Array.make n IntSet.empty in
  follow.(g.Grammar.goal) <- IntSet.singleton g.Grammar.eof;
  let an0 = { first; nullable; follow } in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Grammar.prod) ->
        let m = Array.length p.rhs in
        for i = 0 to m - 1 do
          let s = p.rhs.(i) in
          if g.Grammar.is_nonterminal.(s) then begin
            let fst_rest, rest_nullable = first_of_seq an0 p.rhs ~from:(i + 1) in
            let before = follow.(s) in
            let acc = IntSet.union before fst_rest in
            let acc =
              if rest_nullable then IntSet.union acc follow.(p.lhs) else acc
            in
            if not (IntSet.equal before acc) then begin
              follow.(s) <- acc;
              changed := true
            end
          end
        done)
      g.Grammar.prods
  done;
  { first; nullable; follow }

(* -- LR(0) --------------------------------------------------------------------- *)

let item = Cogg.Lr0.item
let item_prod = Cogg.Lr0.item_prod
let item_dot = Cogg.Lr0.item_dot
let dot_bits = Cogg.Lr0.dot_bits
let sort_items (a : int array) = Array.sort Int.compare a

module Kernel_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193 land 0x3fffffff
    done;
    !h
end)

(* [seen] is a byte per item, used and wiped within the call *)
let closure_into (g : Grammar.t) ~(seen : Bytes.t) (kernel : int array) :
    int array =
  let acc = ref [] in
  let count = ref 0 in
  let rec add i =
    if Bytes.get seen i = '\000' then begin
      Bytes.set seen i '\001';
      acc := i :: !acc;
      incr count;
      let p = Grammar.prod g (item_prod i) in
      let dot = item_dot i in
      if dot < Array.length p.rhs then
        let s = p.rhs.(dot) in
        if g.Grammar.is_nonterminal.(s) then
          List.iter
            (fun pid -> add (item ~prod:pid ~dot:0))
            g.Grammar.by_lhs.(s)
    end
  in
  Array.iter add kernel;
  let a = Array.make !count 0 in
  List.iteri
    (fun k i ->
      a.(!count - 1 - k) <- i;
      Bytes.set seen i '\000')
    !acc;
  sort_items a;
  a

type rstate = {
  id : int;
  kernel : int array;
  mutable closure : int array;
  mutable transitions : (int * int) list;
}

let lr0 (g : Grammar.t) : Cogg.Lr0.t =
  let goal_prod =
    match g.Grammar.by_lhs.(g.Grammar.goal) with
    | [ p ] -> p
    | _ -> invalid_arg "Reference.lr0: goal must have exactly one production"
  in
  let states = ref [] in
  let n = ref 0 in
  let index : int Kernel_tbl.t = Kernel_tbl.create 256 in
  let worklist = Queue.create () in
  let get_state kernel =
    match Kernel_tbl.find_opt index kernel with
    | Some id -> id
    | None ->
        let id = !n in
        incr n;
        let st = { id; kernel; closure = [||]; transitions = [] } in
        Kernel_tbl.replace index kernel id;
        states := st :: !states;
        Queue.add st worklist;
        id
  in
  let start = get_state [| item ~prod:goal_prod ~dot:0 |] in
  let seen = Bytes.make (Grammar.n_prods g lsl dot_bits) '\000' in
  let by_sym = Array.make (Grammar.n_syms g) [] in
  let touched = ref [] in
  while not (Queue.is_empty worklist) do
    let st = Queue.pop worklist in
    let cl = closure_into g ~seen st.kernel in
    st.closure <- cl;
    Array.iter
      (fun i ->
        let p = Grammar.prod g (item_prod i) in
        let dot = item_dot i in
        if dot < Array.length p.rhs then begin
          let s = p.rhs.(dot) in
          if by_sym.(s) = [] then touched := s :: !touched;
          by_sym.(s) <- item ~prod:(item_prod i) ~dot:(dot + 1) :: by_sym.(s)
        end)
      cl;
    let syms = Array.of_list !touched in
    Array.sort Int.compare syms;
    st.transitions <-
      Array.to_list
        (Array.map
           (fun s ->
             let kernel = Array.of_list by_sym.(s) in
             by_sym.(s) <- [];
             sort_items kernel;
             (s, get_state kernel))
           syms);
    touched := []
  done;
  let states =
    List.rev_map
      (fun (st : rstate) ->
        {
          Cogg.Lr0.id = st.id;
          kernel = st.kernel;
          closure = st.closure;
          transitions = st.transitions;
        })
      !states
  in
  { Cogg.Lr0.grammar = g; states = Array.of_list states; start }

let reducible (g : Grammar.t) (st : Cogg.Lr0.state) : int list =
  Array.to_list st.Cogg.Lr0.closure
  |> List.filter (fun i ->
         item_dot i = Array.length (Grammar.prod g (item_prod i)).rhs)

(* -- SLR lookaheads ------------------------------------------------------------ *)

let reductions (a : Cogg.Lr0.t) (an : analysis) : (int * IntSet.t) list array =
  let g = a.Cogg.Lr0.grammar in
  Array.map
    (fun st ->
      reducible g st
      |> List.map (fun i ->
             let p = item_prod i in
             (p, an.follow.((Grammar.prod g p).lhs)))
      |> List.sort_uniq compare)
    a.Cogg.Lr0.states

(* -- the action fill ----------------------------------------------------------- *)

let resolve g state sym (a : Parse_table.action) b :
    Parse_table.action * Parse_table.conflict option =
  let open Parse_table in
  if a = b then (a, None)
  else
    match (a, b) with
    | Error, x | x, Error -> (x, None)
    | Accept, x | x, Accept ->
        ( Accept,
          Some
            {
              c_state = state;
              c_sym = sym;
              c_kind = `Shift_reduce;
              c_chosen = Accept;
              c_dropped = x;
            } )
    | Shift s, Reduce r | Reduce r, Shift s ->
        ( Shift s,
          Some
            {
              c_state = state;
              c_sym = sym;
              c_kind = `Shift_reduce;
              c_chosen = Shift s;
              c_dropped = Reduce r;
            } )
    | Reduce p, Reduce q ->
        let len i = Array.length (Grammar.prod g i).rhs in
        let winner, loser =
          if len p > len q then (p, q)
          else if len q > len p then (q, p)
          else if p < q then (p, q)
          else (q, p)
        in
        ( Reduce winner,
          Some
            {
              c_state = state;
              c_sym = sym;
              c_kind = `Reduce_reduce;
              c_chosen = Reduce winner;
              c_dropped = Reduce loser;
            } )
    | Shift s1, Shift s2 ->
        invalid_arg
          (Fmt.str "Reference.resolve: shift/shift %d/%d in state %d" s1 s2
             state)

(* the action rows and the conflict log [Parse_table.build] yields *)
let parse_table (a : Cogg.Lr0.t) :
    Parse_table.action array array * Parse_table.conflict list =
  let g = a.Cogg.Lr0.grammar in
  let an = analyze g in
  let n_syms = Grammar.n_syms g in
  let reds = reductions a an in
  let fill (st : Cogg.Lr0.state) =
    let row = Array.make n_syms Parse_table.Error in
    let conflicts = ref [] in
    let set sym act =
      let winner, c = resolve g st.Cogg.Lr0.id sym row.(sym) act in
      row.(sym) <- winner;
      match c with Some c -> conflicts := c :: !conflicts | None -> ()
    in
    List.iter
      (fun (sym, dst) ->
        if sym = g.Grammar.eof then set sym Parse_table.Accept
        else set sym (Parse_table.Shift dst))
      st.Cogg.Lr0.transitions;
    List.iter
      (fun (p, las) ->
        IntSet.iter
          (fun sym ->
            if sym <> g.Grammar.goal then
              set sym (Parse_table.Reduce p))
          las)
      reds.(st.Cogg.Lr0.id);
    (row, List.rev !conflicts)
  in
  let filled = Array.map fill a.Cogg.Lr0.states in
  (Array.map fst filled, List.concat_map snd (Array.to_list filled))

(* -- row defaults and row sharing ----------------------------------------------- *)

let row_default (method_ : Cogg.Compress.method_) (row : Parse_table.action array)
    : int =
  match method_ with
  | No_compression | Comb_only -> 0
  | Defaults_only | Defaults_and_comb ->
      let counts = Hashtbl.create 8 in
      Array.iter
        (fun a ->
          match a with
          | Parse_table.Reduce _ ->
              let v = Cogg.Compress.encode_action a in
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

let extract_rows method_ (actions : Parse_table.action array array) :
    (int * (int * int) list) array =
  Array.map
    (fun row ->
      let d = row_default method_ row in
      let entries = ref [] in
      Array.iteri
        (fun sym a ->
          let v = Cogg.Compress.encode_action a in
          if v <> d && v <> 0 then entries := (sym, v) :: !entries)
        row;
      (d, List.rev !entries))
    actions

let share_rows (state_rows : (int * (int * int) list) array) :
    int array * (int * (int * int) list) array =
  let row_ids = Hashtbl.create 64 in
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

(* -- the comb packer ------------------------------------------------------------ *)

(* The first fit Compress.pack_rows used before its word-parallel
   search, kept as the reference (without its pool fan-out): rows
   densest first (ties by row id), each probed one candidate offset at
   a time from the [min_free] cursor, over a 32-bit occupancy bitset
   and the row's column mask.  The word-parallel packer must place
   every row where this one does. *)
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
  let prepped =
    Array.map
      (fun entry_list ->
        match entry_list with
        | [] -> None
        | l ->
            let entries = Array.of_list l in
            let ne = Array.length entries in
            let s0 = fst entries.(0) in
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
  Array.iteri (fun rid off -> if off < 0 then offsets.(rid) <- !used) offsets;
  (offsets, Array.sub !value 0 !used, Array.sub !check 0 !used)

(* -- the register allocator --------------------------------------------------- *)

(* The allocator Cogg.Regalloc replaced, unchanged: candidates are the
   pool lists filtered by closures, and [pick] folds over them with an
   option of a pair.  test_regalloc's "reference" property drives both
   with the same random calls and requires the same registers,
   evictions, transfers, messages, register states and statistics
   (its [reuse_distances] list against the new sum and count). *)
module Regalloc = struct
  module Symtab = Cogg.Symtab

  type bank = Gp | Fp

  let bank_of_class : Symtab.reg_class -> bank = function
    | Symtab.Fpr | Symtab.Fpair -> Fp
    | Symtab.Gpr | Symtab.Pair | Symtab.Cc | Symtab.Noclass -> Gp

  type strategy = Lru | Round_robin | First_free

  let strategy_name = function
    | Lru -> "lru"
    | Round_robin -> "round-robin"
    | First_free -> "first-free"

  type config = {
    gpr_pool : int list;
    pair_pool : int list;  (** even members; the odd partner is implied *)
    fpr_pool : int list;
    fpair_pool : int list;  (** quad pairs: f and f+2 *)
  }

  (** Pool matching the project's register conventions (r13 frame, r10 PSA,
      r12 code base, r0 zero, r14/r15 linkage via [need]). *)
  let default_config =
    {
      gpr_pool = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 11 ];
      pair_pool = [ 2; 4; 6; 8 ];
      fpr_pool = [ 0; 2; 4; 6 ];
      fpair_pool = [ 0; 4 ];
    }

  type reg = {
    mutable busy : bool;
    mutable use_count : int;
    mutable usage_index : int;
    mutable cse : int option;  (** CSE whose value this register holds *)
    mutable cse_shares : int;
        (** how much of [use_count] is reserved for future CSE uses; the
            rest are live translation-stack references *)
  }

  type stats = {
    mutable n_allocs : int;
    mutable n_evictions : int;
    mutable n_transfers : int;
    mutable reuse_distances : int list;
        (** usage-index distance at allocation: the pipeline-contention proxy *)
    mutable gp_peak : int;  (** most general registers ever busy at once *)
    mutable fp_peak : int;  (** most floating registers ever busy at once *)
  }

  type t = {
    config : config;
    strategy : strategy;
    gprs : reg array;
    fprs : reg array;
    mutable global_index : int;
    mutable cursor : int;
    stats : stats;
  }

  exception Pressure of string

  let create ?(config = default_config) ?(strategy = Lru) () =
    let mk n = Array.init n (fun _ ->
        { busy = false; use_count = 0; usage_index = 0; cse = None;
          cse_shares = 0 })
    in
    {
      config;
      strategy;
      gprs = mk 16;
      fprs = mk 8;
      global_index = 0;
      cursor = 0;
      stats =
        {
          n_allocs = 0;
          n_evictions = 0;
          n_transfers = 0;
          reuse_distances = [];
          gp_peak = 0;
          fp_peak = 0;
        };
    }

  let regs t = function Gp -> t.gprs | Fp -> t.fprs

  let pool t = function
    | Symtab.Gpr -> t.config.gpr_pool
    | Symtab.Pair -> t.config.pair_pool
    | Symtab.Fpr -> t.config.fpr_pool
    | Symtab.Fpair -> t.config.fpair_pool
    | Symtab.Cc | Symtab.Noclass -> []

  (* registers covered by an allocation of class [cls] rooted at [r] *)
  let covered cls r =
    match cls with
    | Symtab.Pair -> [ r; r + 1 ]
    | Symtab.Fpair -> [ r; r + 2 ]
    | _ -> [ r ]

  let in_any_pool t bank r =
    match bank with
    | Fp -> List.mem r t.config.fpr_pool || List.mem r t.config.fpair_pool
            || List.mem (r - 2) t.config.fpair_pool
    | Gp ->
        List.mem r t.config.gpr_pool
        || List.mem r t.config.pair_pool
        || List.exists (fun e -> r = e + 1) t.config.pair_pool

  (** Bump the global usage index; called once per reduction. *)
  let begin_reduction t = t.global_index <- t.global_index + 1

  let free_for t bank cls r =
    List.for_all (fun i -> not (regs t bank).(i).busy) (covered cls r)

  (* candidate members of [cls]'s pool that are currently free *)
  let free_members t cls =
    let bank = bank_of_class cls in
    List.filter (free_for t bank cls) (pool t cls)

  let pick t cls candidates =
    let bank = bank_of_class cls in
    match candidates with
    | [] -> None
    | cs -> (
        match t.strategy with
        | First_free -> Some (List.hd cs)
        | Round_robin ->
            let n = List.length cs in
            let c = List.nth cs (t.cursor mod n) in
            t.cursor <- t.cursor + 1;
            Some c
        | Lru ->
            Some
              (List.fold_left
                 (fun best r ->
                   let idx =
                     List.fold_left
                       (fun m i -> max m (regs t bank).(i).usage_index)
                       0 (covered cls r)
                   in
                   match best with
                   | Some (_, bidx) when bidx <= idx -> best
                   | _ -> Some (r, idx))
                 None cs
              |> Option.get |> fst))

  (* raise the bank's pressure high-water mark to the current busy count *)
  let note_peak t bank =
    let n = ref 0 in
    Array.iter (fun st -> if st.busy then incr n) (regs t bank);
    match bank with
    | Gp -> if !n > t.stats.gp_peak then t.stats.gp_peak <- !n
    | Fp -> if !n > t.stats.fp_peak then t.stats.fp_peak <- !n

  let mark_allocated t cls r =
    let bank = bank_of_class cls in
    List.iter
      (fun i ->
        let st = (regs t bank).(i) in
        t.stats.reuse_distances <-
          (t.global_index - st.usage_index) :: t.stats.reuse_distances;
        st.busy <- true;
        st.use_count <- 1;
        st.usage_index <- t.global_index;
        st.cse <- None;
        st.cse_shares <- 0)
      (covered cls r);
    t.stats.n_allocs <- t.stats.n_allocs + 1;
    note_peak t bank

  type evicted = { ev_cse : int; ev_reg : int }

  (** [alloc t cls] returns an allocated register (the even one for pairs)
      and, when the pool was full, the CSE-bound register that was evicted
      to make room — the caller must store that register to the CSE's
      temporary before using the allocation. *)
  let alloc t (cls : Symtab.reg_class) : int * evicted option =
    match cls with
    | Symtab.Cc -> (0, None) (* the machine condition code: always available *)
    | Symtab.Noclass -> (0, None)
    | _ -> (
        (* single-register requests prefer registers that do not break up a
           fully free even/odd pair, so multiplies and divides can still
           find one (Fpr requests likewise protect quad pairs) *)
        let free = free_members t cls in
        let candidates =
          let protect pair_pool step pcls =
            let free_pairs =
              List.filter (fun e -> free_for t (bank_of_class cls) pcls e) pair_pool
            in
            (* only protect pairs once they become scarce, so simple
               programs still see the natural r1, r2, ... ordering *)
            if List.length free_pairs > 2 then free
            else
              let breaking r =
                List.exists (fun e -> r = e || r = e + step) free_pairs
              in
              let preserving = List.filter (fun r -> not (breaking r)) free in
              if preserving <> [] then preserving else free
          in
          match cls with
          | Symtab.Gpr -> protect t.config.pair_pool 1 Symtab.Pair
          | Symtab.Fpr -> protect t.config.fpair_pool 2 Symtab.Fpair
          | _ -> free
        in
        match pick t cls candidates with
        | Some r ->
            mark_allocated t cls r;
            (r, None)
        | None -> (
            (* evict the least-recently-used CSE-bound register in the pool *)
            let bank = bank_of_class cls in
            let evictable r =
              List.for_all
                (fun i ->
                  let st = (regs t bank).(i) in
                  (not st.busy)
                  || (st.cse <> None && st.use_count <= st.cse_shares))
                (covered cls r)
              && List.exists
                   (fun i -> (regs t bank).(i).cse <> None)
                   (covered cls r)
            in
            match pick t cls (List.filter evictable (pool t cls)) with
            | None ->
                (* diagnosable exhaustion: name the class, its pool, and
                   what each member is holding (use counts, CSE bindings) *)
                let members =
                  List.sort_uniq compare
                    (List.concat_map (covered cls) (pool t cls))
                in
                let holding =
                  List.filter_map
                    (fun i ->
                      let st = (regs t bank).(i) in
                      if not st.busy then None
                      else
                        Some
                          (Fmt.str "r%d:uses=%d%s" i st.use_count
                             (match st.cse with
                             | Some c -> Fmt.str "[cse %d]" c
                             | None -> "")))
                    members
                in
                raise
                  (Pressure
                     (Fmt.str
                        "no %a register available: pool {%s} holds only live \
                         values (%s)"
                        Symtab.pp_reg_class cls
                        (String.concat " "
                           (List.map (fun r -> "r" ^ string_of_int r) (pool t cls)))
                        (String.concat ", " holding)))
            | Some r ->
                let ev =
                  List.find_map
                    (fun i ->
                      let st = (regs t bank).(i) in
                      Option.map (fun c -> { ev_cse = c; ev_reg = i }) st.cse)
                    (covered cls r)
                  |> Option.get
                in
                List.iter
                  (fun i ->
                    let st = (regs t bank).(i) in
                    st.busy <- false;
                    st.use_count <- 0;
                    st.cse <- None;
                    st.cse_shares <- 0)
                  (covered cls r);
                t.stats.n_evictions <- t.stats.n_evictions + 1;
                mark_allocated t cls r;
                (r, Some ev)))

  type transfer = { tr_from : int; tr_to : int }

  (** [need t cls r] secures the specific register [r].  If busy, its
      contents move to a freshly allocated register of the class; the caller
      emits [lr to,from] and rebinds stack/CSE state. *)
  let need t (cls : Symtab.reg_class) (r : int) :
      (transfer option * evicted option, string) result =
    let bank = bank_of_class cls in
    let st = (regs t bank).(r) in
    if not st.busy then begin
      st.busy <- true;
      st.use_count <- 1;
      st.usage_index <- t.global_index;
      st.cse <- None;
      st.cse_shares <- 0;
      note_peak t bank;
      Ok (None, None)
    end
    else
      match alloc t (if cls = Symtab.Pair then Symtab.Gpr else cls) with
      | dst, ev ->
          let d = (regs t bank).(dst) in
          d.use_count <- st.use_count;
          d.cse <- st.cse;
          d.cse_shares <- st.cse_shares;
          st.busy <- true;
          st.use_count <- 1;
          st.usage_index <- t.global_index;
          st.cse <- None;
          st.cse_shares <- 0;
          t.stats.n_transfers <- t.stats.n_transfers + 1;
          Ok (Some { tr_from = r; tr_to = dst }, ev)
      | exception Pressure m -> Error m

  (** Increment the use count (a result token referencing the register was
      pushed, or a CSE declared [cnt] future uses).  Dedicated registers
      (never allocated, hence never busy) are unaffected. *)
  let retain ?(count = 1) t bank r =
    let st = (regs t bank).(r) in
    if st.busy then st.use_count <- st.use_count + count

  (** Decrement the use count; at zero the register is freed.  Covers both
      pool registers and [need]-obtained linkage registers; dedicated base
      registers are never busy, so this is a no-op for them. *)
  let release t bank r =
    let st = (regs t bank).(r) in
    if st.busy then begin
      st.use_count <- st.use_count - 1;
      if st.use_count <= 0 then begin
        st.busy <- false;
        st.use_count <- 0;
        st.cse <- None;
        st.cse_shares <- 0
      end
    end

  (** One reserved CSE use materializes (a [find_common] found the value in
      the register): the share converts into the stack reference the caller
      is about to push, so counts are left unchanged here beyond the share
      bookkeeping. *)
  let consume_cse_share t bank r =
    let st = (regs t bank).(r) in
    if st.busy && st.cse_shares > 0 then begin
      st.cse_shares <- st.cse_shares - 1;
      st.use_count <- st.use_count - 1
    end

  (** The register lost its CSE copy ([modifies]): drop all reserved
      shares — the remaining uses reload from the temporary. *)
  let drop_cse_shares t bank r =
    let st = (regs t bank).(r) in
    if st.busy && st.cse_shares > 0 then begin
      st.use_count <- st.use_count - st.cse_shares;
      st.cse_shares <- 0;
      if st.use_count <= 0 then begin
        st.busy <- false;
        st.use_count <- 0;
        st.cse <- None
      end
    end

  (** [modifies]: the register's contents changed — refresh its LRU stamp
      and report (and clear) any CSE binding so the caller can save it. *)
  let touch t bank r : int option =
    let st = (regs t bank).(r) in
    st.usage_index <- t.global_index;
    let c = st.cse in
    st.cse <- None;
    c

  let bind_cse ?(shares = 0) t bank r cse =
    if in_any_pool t bank r then begin
      (regs t bank).(r).cse <- Some cse;
      (regs t bank).(r).cse_shares <- shares
    end

  let is_busy t bank r = (regs t bank).(r).busy
  let use_count t bank r = (regs t bank).(r).use_count
end

(* -- the lexer ------------------------------------------------------------------ *)

(* Pascal.Lexer.tokenize before keywords became one string [match] and
   symbols were read by character: the keyword test is [List.mem] (a
   polymorphic [compare] per keyword), every symbol and integer is cut
   out with [String.sub].  Same tokens, lines and errors. *)
module Lexer = struct
  open Pascal.Lexer

  let keywords =
    [ "program"; "var"; "begin"; "end"; "if"; "then"; "else"; "while"; "do";
      "repeat"; "until"; "for"; "to"; "downto"; "case"; "of"; "otherwise";
      "procedure"; "array"; "set"; "integer"; "boolean"; "char"; "real";
      "div"; "mod"; "and"; "or"; "not"; "true"; "false"; "in" ]

  let tokenize (src : string) : ((token * int) list, error) result =
    let n = String.length src in
    let line = ref 1 in
    let out = ref [] in
    let fail pos msg = raise (Fail { pos; line = !line; msg }) in
    let is_digit c = c >= '0' && c <= '9' in
    let is_alpha c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
    in
    let i = ref 0 in
    (try
       while !i < n do
         let c = src.[!i] in
         if c = '\n' then begin incr line; incr i end
         else if c = ' ' || c = '\t' || c = '\r' then incr i
         else if c = '{' then begin
           while !i < n && src.[!i] <> '}' do
             if src.[!i] = '\n' then incr line;
             incr i
           done;
           if !i >= n then fail !i "unterminated comment";
           incr i
         end
         else if is_alpha c then begin
           let start = !i in
           while !i < n && (is_alpha src.[!i] || is_digit src.[!i]) do incr i done;
           let word = String.lowercase_ascii (String.sub src start (!i - start)) in
           if List.mem word keywords then out := (Kw word, !line) :: !out
           else out := (Ident word, !line) :: !out
         end
         else if is_digit c then begin
           let start = !i in
           while !i < n && is_digit src.[!i] do incr i done;
           if !i + 1 < n && src.[!i] = '.' && is_digit src.[!i + 1] then begin
             incr i;
             while !i < n && is_digit src.[!i] do incr i done;
             let text = String.sub src start (!i - start) in
             match float_of_string_opt text with
             | Some f -> out := (Real f, !line) :: !out
             | None -> fail start ("malformed real " ^ text)
           end
           else
             let text = String.sub src start (!i - start) in
             match int_of_string_opt text with
             | Some v -> out := (Int v, !line) :: !out
             | None -> fail start ("malformed integer " ^ text)
         end
         else if c = '\'' then begin
           if !i + 2 < n && src.[!i + 2] = '\'' then begin
             out := (Char src.[!i + 1], !line) :: !out;
             i := !i + 3
           end
           else fail !i "malformed character literal"
         end
         else begin
           let two =
             if !i + 1 < n then String.sub src !i 2 else String.make 1 c
           in
           match two with
           | ":=" | "<=" | ">=" | "<>" | ".." ->
               out := (Sym two, !line) :: !out;
               i := !i + 2
           | _ -> (
               match c with
               | '+' | '-' | '*' | '/' | '(' | ')' | '[' | ']' | ';' | ':'
               | ',' | '.' | '=' | '<' | '>' ->
                   out := (Sym (String.make 1 c), !line) :: !out;
                   incr i
               | _ -> fail !i (Fmt.str "unexpected character %C" c))
         end
       done;
       out := (Eof, !line) :: !out;
       Ok (List.rev !out)
     with Fail e -> Error e)
end

(* -- the listing ---------------------------------------------------------------- *)

(* Machine.Insn.render and Code_buffer's item rendering before integers
   were written digit by digit: per-call closures over the [Buffer], and
   [string_of_int] for every register, displacement, mask and literal.
   [listing] is Code_buffer.to_listing over these. *)
module Listing = struct
  open Machine.Insn

  let render (b : Buffer.t) (t : t) : unit =
    let str = Buffer.add_string b in
    let ch = Buffer.add_char b in
    let int n = str (string_of_int n) in
    let mnem op =
      str op;
      for _ = String.length op to 4 do
        ch ' '
      done;
      ch ' '
    in
    let reg r =
      ch 'r';
      int r
    in
    let freg r =
      ch 'f';
      int r
    in
    match t with
    | Rr { op; r1; r2 } ->
        mnem op;
        reg r1;
        ch ',';
        reg r2
    | Rx { op; r1; d2; x2; b2 } ->
        mnem op;
        reg r1;
        ch ',';
        int d2;
        if x2 = 0 && b2 = 0 then ()
        else if x2 = 0 then begin
          ch '(';
          reg b2;
          ch ')'
        end
        else begin
          ch '(';
          reg x2;
          ch ',';
          reg b2;
          ch ')'
        end
    | Rs { op; r1; r3; d2; b2 } -> (
        match op with
        | "sla" | "sra" | "sll" | "srl" | "slda" | "srda" | "sldl" | "srdl" ->
            mnem op;
            reg r1;
            ch ',';
            int d2;
            if b2 <> 0 then begin
              ch '(';
              reg b2;
              ch ')'
            end
        | _ ->
            mnem op;
            reg r1;
            ch ',';
            reg r3;
            ch ',';
            int d2;
            if b2 <> 0 then begin
              ch '(';
              reg b2;
              ch ')'
            end)
    | Si { op; d1; b1; i2 } ->
        mnem op;
        int d1;
        if b1 <> 0 then begin
          ch '(';
          reg b1;
          ch ')'
        end;
        ch ',';
        int i2
    | Ss { op; l; d1; b1; d2; b2 } ->
        mnem op;
        int d1;
        ch '(';
        int l;
        ch ',';
        reg b1;
        ch ')';
        ch ',';
        int d2;
        ch '(';
        reg b2;
        ch ')'
    | R3 { op; rd; rs1; rs2 } ->
        let r = if String.length op > 0 && op.[0] = 'f' then freg else reg in
        mnem op;
        r rd;
        ch ',';
        r rs1;
        ch ',';
        r rs2
    | R2 { op; rd; rs } -> (
        mnem op;
        match op with
        | "jr" -> reg rs
        | "itof" ->
            freg rd;
            ch ',';
            reg rs
        | "ftoi" ->
            reg rd;
            ch ',';
            freg rs
        | "fmov" | "fneg" | "fabs" | "fhlv" | "fcmp" ->
            freg rd;
            ch ',';
            freg rs
        | _ ->
            reg rd;
            ch ',';
            reg rs)
    | Ri { op; rd; rs; imm } ->
        mnem op;
        reg rd;
        ch ',';
        reg rs;
        ch ',';
        int imm
    | Li { op; rd; imm } ->
        mnem op;
        reg rd;
        ch ',';
        int imm
    | Mem { op; rd; dsp; rb } ->
        let r =
          match op with "fld" | "fsd" | "fls" | "fss" -> freg | _ -> reg
        in
        mnem op;
        r rd;
        ch ',';
        int dsp;
        ch '(';
        reg rb;
        ch ')'
    | Bcc { mask; rel } ->
        mnem "bc";
        int mask;
        ch ',';
        int rel

  let insn_to_string t =
    let b = Buffer.create 24 in
    render b t;
    Buffer.contents b

  module Cb = Cogg.Code_buffer

  let render_label b = function
    | Cb.User n ->
        Buffer.add_char b 'L';
        Buffer.add_string b (string_of_int n)
    | Cb.Internal n ->
        Buffer.add_char b '.';
        Buffer.add_string b (string_of_int n)

  let render_item b = function
    | Cb.Fixed i ->
        Buffer.add_string b "      ";
        render b i
    | Cb.Branch_site { mask; lbl; x; _ } ->
        Buffer.add_string b "      bc    ";
        Buffer.add_string b (string_of_int mask);
        Buffer.add_char b ',';
        render_label b lbl;
        if x <> 0 then begin
          Buffer.add_string b "(r";
          Buffer.add_string b (string_of_int x);
          Buffer.add_char b ')'
        end
    | Cb.Case_site { reg; lbl; _ } ->
        Buffer.add_string b "      l     r";
        Buffer.add_string b (string_of_int reg);
        Buffer.add_char b ',';
        render_label b lbl;
        Buffer.add_string b "(r";
        Buffer.add_string b (string_of_int reg);
        Buffer.add_char b ')'
    | Cb.Label_def l ->
        render_label b l;
        Buffer.add_char b ':'
    | Cb.Word_lit v ->
        Buffer.add_string b "      dc    f'";
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b '\''
    | Cb.Word_label l ->
        Buffer.add_string b "      dc    a(";
        render_label b l;
        Buffer.add_char b ')'

  let listing (items : Cb.item array) =
    let b = Buffer.create (24 * (Array.length items + 1)) in
    Array.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b '\n';
        render_item b item)
      items;
    Buffer.contents b
end
