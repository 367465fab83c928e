(** The code generator's register allocation routine (paper section 4.1).

    - [using] allocates any register of a class; [need] obtains a specific
      register, transferring its current contents to another register of
      the class if busy (the caller emits the [lr] and rebinds the
      translation stack).
    - Allocation is least-recently-used by a global usage index bumped at
      every reduction, "in an attempt to reduce operand contention in the
      pipeline"; round-robin and first-free strategies exist for the
      ablation benchmark.
    - Registers carry use counts: consuming an RHS occurrence decrements,
      pushing a result increments; a count of zero frees the register.
    - A register holding a common subexpression can be evicted (the caller
      stores it to the CSE's temporary); a register holding a live
      intermediate result cannot, and exhausting the pool on live values
      raises [Pressure].

    Every call runs once or more per reduction, so none allocates on its
    way to a register: the pools are scanned as arrays in a fixed
    order, and only the failing path builds a message. *)

type bank = Gp | Fp

let bank_of_class : Symtab.reg_class -> bank = function
  | Symtab.Fpr | Symtab.Fpair -> Fp
  | Symtab.Gpr | Symtab.Pair | Symtab.Cc | Symtab.Noclass -> Gp

type strategy = Lru | Round_robin | First_free

let strategy_name = function
  | Lru -> "lru"
  | Round_robin -> "round-robin"
  | First_free -> "first-free"

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
  mutable reuse_sum : int;
  mutable reuse_count : int;
      (** usage-index distance at allocation, summed over [reuse_count]
          allocated registers: the pipeline-contention proxy *)
  mutable gp_peak : int;  (** most general registers ever busy at once *)
  mutable fp_peak : int;  (** most floating registers ever busy at once *)
}

type t = {
  strategy : strategy;
  gprs : reg array;
  fprs : reg array;
  mutable global_index : int;
  mutable cursor : int;
  stats : stats;
}

exception Pressure of string

(* registers covered by an allocation of class [cls] rooted at [r] *)
let covered cls r =
  match cls with
  | Symtab.Pair -> [ r; r + 1 ]
  | Symtab.Fpair -> [ r; r + 2 ]
  | _ -> [ r ]

(* distance from an allocation's root to its partner register, 0 when it
   covers only its root *)
let partner : Symtab.reg_class -> int = function
  | Symtab.Pair -> 1
  | Symtab.Fpair -> 2
  | Symtab.Gpr | Symtab.Fpr | Symtab.Cc | Symtab.Noclass -> 0

(* The pools, matching the project's register conventions (r13 frame,
   r10 PSA, r12 code base, r0 zero, r14/r15 linkage via [need]), each
   in the order a scan visits it.  Every allocator, on every domain,
   reads them and none writes them. *)
let gpr_pool = [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 11 |]
let pair_pool = [| 2; 4; 6; 8 |]  (* even members; the odd partner is implied *)
let fpr_pool = [| 0; 2; 4; 6 |]
let fpair_pool = [| 0; 4 |]  (* quad pairs: f and f+2 *)

(* the pools by {!pool_slot} *)
let pools = [| gpr_pool; pair_pool; fpr_pool; fpair_pool; [||] |]

let pool_slot : Symtab.reg_class -> int = function
  | Symtab.Gpr -> 0
  | Symtab.Pair -> 1
  | Symtab.Fpr -> 2
  | Symtab.Fpair -> 3
  | Symtab.Cc | Symtab.Noclass -> 4

let create ?(strategy = Lru) () =
  let mk n = Array.init n (fun _ ->
      { busy = false; use_count = 0; usage_index = 0; cse = None;
        cse_shares = 0 })
  in
  {
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
        reuse_sum = 0;
        reuse_count = 0;
        gp_peak = 0;
        fp_peak = 0;
      };
  }

let regs t = function Gp -> t.gprs | Fp -> t.fprs

let in_any_pool bank r =
  match bank with
  | Fp ->
      Array.mem r fpr_pool || Array.mem r fpair_pool
      || Array.mem (r - 2) fpair_pool
  | Gp ->
      Array.mem r gpr_pool || Array.mem r pair_pool
      || Array.mem (r - 1) pair_pool

(** Bump the global usage index; called once per reduction. *)
let begin_reduction t = t.global_index <- t.global_index + 1

(* -- scanning a pool ---------------------------------------------------------
   A scan admits the members of a class's pool that pass one of three
   tests, and picks among them by the strategy; pool order breaks every
   tie, so the result is that of filtering the pool list and picking
   from what is left. *)

type admit =
  | Free  (** every register the allocation covers is free *)
  | Preserving
      (** free, and not a half of a free pair (quad) while free pairs
          are scarce *)
  | Evictable
      (** covers only free registers and CSE copies with no live stack
          reference, at least one of them a CSE copy *)

let free_at (regs : reg array) step r =
  (not regs.(r).busy) && (step = 0 || not regs.(r + step).busy)

(* the pair class a single-register class protects, as (pool slot,
   partner distance) *)
let protected_pairs : Symtab.reg_class -> int * int = function
  | Symtab.Gpr -> (1, 1)
  | Symtab.Fpr -> (3, 2)
  | Symtab.Pair | Symtab.Fpair | Symtab.Cc | Symtab.Noclass -> (4, 0)

let count_free_pairs regs cls =
  let slot, step = protected_pairs cls in
  let pairs = pools.(slot) and n = ref 0 in
  for i = 0 to Array.length pairs - 1 do
    if free_at regs step pairs.(i) then incr n
  done;
  !n

(* would allocating [r] alone break up a free pair? *)
let breaks_free_pair regs cls r =
  let slot, step = protected_pairs cls in
  let pairs = pools.(slot) in
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Array.length pairs do
    let e = pairs.(!i) in
    if free_at regs step e && (r = e || r = e + step) then found := true;
    incr i
  done;
  !found

let evictable_reg (st : reg) =
  (not st.busy) || (st.cse <> None && st.use_count <= st.cse_shares)

let admits regs cls admit r =
  let step = partner cls in
  match admit with
  | Free -> free_at regs step r
  | Preserving -> free_at regs step r && not (breaks_free_pair regs cls r)
  | Evictable ->
      evictable_reg regs.(r)
      && (step = 0 || evictable_reg regs.(r + step))
      && (regs.(r).cse <> None || (step > 0 && regs.(r + step).cse <> None))

let count_admitted regs cls admit =
  let pool = pools.(pool_slot cls) and n = ref 0 in
  for i = 0 to Array.length pool - 1 do
    if admits regs cls admit pool.(i) then incr n
  done;
  !n

(* the stamp LRU orders an allocation by: its covered registers' latest *)
let stamp (regs : reg array) step r =
  let u = regs.(r).usage_index in
  if step = 0 then u else max u regs.(r + step).usage_index

(* the admitted member the strategy picks, or -1 when none is admitted *)
let pick t cls admit =
  let regs = regs t (bank_of_class cls) in
  let pool = pools.(pool_slot cls) in
  let n = Array.length pool in
  match t.strategy with
  | First_free ->
      let found = ref (-1) and i = ref 0 in
      while !found < 0 && !i < n do
        if admits regs cls admit pool.(!i) then found := pool.(!i);
        incr i
      done;
      !found
  | Round_robin ->
      let k = count_admitted regs cls admit in
      if k = 0 then -1
      else begin
        let target = t.cursor mod k in
        t.cursor <- t.cursor + 1;
        let found = ref (-1) and seen = ref 0 and i = ref 0 in
        while !found < 0 do
          let r = pool.(!i) in
          if admits regs cls admit r then begin
            if !seen = target then found := r;
            incr seen
          end;
          incr i
        done;
        !found
      end
  | Lru ->
      let step = partner cls in
      let best = ref (-1) and best_stamp = ref 0 in
      for i = 0 to n - 1 do
        let r = pool.(i) in
        if admits regs cls admit r then begin
          let s = stamp regs step r in
          if !best < 0 || s < !best_stamp then begin
            best := r;
            best_stamp := s
          end
        end
      done;
      !best

(* raise the bank's pressure high-water mark to the current busy count *)
let note_peak t bank =
  let regs = regs t bank and n = ref 0 in
  for i = 0 to Array.length regs - 1 do
    if regs.(i).busy then incr n
  done;
  match bank with
  | Gp -> if !n > t.stats.gp_peak then t.stats.gp_peak <- !n
  | Fp -> if !n > t.stats.fp_peak then t.stats.fp_peak <- !n

(* a fresh holding: one reference, stamped now, no CSE copy *)
let hold t (st : reg) =
  st.busy <- true;
  st.use_count <- 1;
  st.usage_index <- t.global_index;
  st.cse <- None;
  st.cse_shares <- 0

let occupy t (st : reg) =
  t.stats.reuse_sum <- t.stats.reuse_sum + (t.global_index - st.usage_index);
  t.stats.reuse_count <- t.stats.reuse_count + 1;
  hold t st

let mark_allocated t cls r =
  let bank = bank_of_class cls in
  let regs = regs t bank and step = partner cls in
  occupy t regs.(r);
  if step > 0 then occupy t regs.(r + step);
  t.stats.n_allocs <- t.stats.n_allocs + 1;
  note_peak t bank

let clear (st : reg) =
  st.busy <- false;
  st.use_count <- 0;
  st.cse <- None;
  st.cse_shares <- 0

(* diagnosable exhaustion: name the class, its pool, and what each
   member is holding (use counts, CSE bindings) *)
let pressure_message t cls =
  let regs = regs t (bank_of_class cls) in
  let pool = Array.to_list pools.(pool_slot cls) in
  let members = List.sort_uniq compare (List.concat_map (covered cls) pool) in
  let holding =
    List.filter_map
      (fun i ->
        let st = regs.(i) in
        if not st.busy then None
        else
          Some
            (Fmt.str "r%d:uses=%d%s" i st.use_count
               (match st.cse with
               | Some c -> Fmt.str "[cse %d]" c
               | None -> "")))
      members
  in
  Fmt.str "no %a register available: pool {%s} holds only live values (%s)"
    Symtab.pp_reg_class cls
    (String.concat " " (List.map (fun r -> "r" ^ string_of_int r) pool))
    (String.concat ", " holding)

type evicted = { ev_cse : int; ev_reg : int }

(** [alloc t cls] returns an allocated register (the even one for pairs)
    and, when the pool was full, the CSE-bound register that was evicted
    to make room — the caller must store that register to the CSE's
    temporary before using the allocation. *)
let alloc t (cls : Symtab.reg_class) : int * evicted option =
  match cls with
  | Symtab.Cc -> (0, None) (* the machine condition code: always available *)
  | Symtab.Noclass -> (0, None)
  | Symtab.Gpr | Symtab.Pair | Symtab.Fpr | Symtab.Fpair -> (
      let regs = regs t (bank_of_class cls) in
      (* single-register requests prefer registers that do not break up a
         fully free even/odd pair, so multiplies and divides can still
         find one (Fpr requests likewise protect quad pairs); only once
         pairs become scarce, so simple programs still see the natural
         r1, r2, ... ordering *)
      let admit =
        match cls with
        | (Symtab.Gpr | Symtab.Fpr)
          when count_free_pairs regs cls <= 2
               && count_admitted regs cls Preserving > 0 ->
            Preserving
        | _ -> Free
      in
      match pick t cls admit with
      | -1 -> (
          (* evict the least-recently-used CSE-bound register in the pool *)
          match pick t cls Evictable with
          | -1 -> raise (Pressure (pressure_message t cls))
          | r ->
              let step = partner cls in
              let holder =
                if regs.(r).cse <> None || step = 0 then r else r + step
              in
              let ev =
                match regs.(holder).cse with
                | Some c -> { ev_cse = c; ev_reg = holder }
                | None -> assert false
              in
              clear regs.(r);
              if step > 0 then clear regs.(r + step);
              t.stats.n_evictions <- t.stats.n_evictions + 1;
              mark_allocated t cls r;
              (r, Some ev))
      | r ->
          mark_allocated t cls r;
          (r, None))

type transfer = { tr_from : int; tr_to : int }

(** [need t cls r] secures the specific register [r].  If busy, its
    contents move to a freshly allocated register of the class; the caller
    emits [lr to,from] and rebinds stack/CSE state. *)
let need t (cls : Symtab.reg_class) (r : int) :
    (transfer option * evicted option, string) result =
  let bank = bank_of_class cls in
  let st = (regs t bank).(r) in
  if not st.busy then begin
    hold t st;
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
        hold t st;
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
    if st.use_count <= 0 then clear st
  end

(** Release every register an allocation of [cls] rooted at [r] covers,
    root first. *)
let release_covered t cls r =
  let bank = bank_of_class cls and step = partner cls in
  release t bank r;
  if step > 0 then release t bank (r + step)

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
    if st.use_count <= 0 then clear st
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
  if in_any_pool bank r then begin
    (regs t bank).(r).cse <- Some cse;
    (regs t bank).(r).cse_shares <- shares
  end

let is_busy t bank r = (regs t bank).(r).busy
let use_count t bank r = (regs t bank).(r).use_count
