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
      raises [Pressure]. *)

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
