(** LR(0) automaton construction.

    States are canonical sets of kernel items.  Items are packed into
    ints: [(prod lsl dot_bits) lor dot], so item order is production
    order, then dot order.

    The frontier search is sequential (each new state can seed further
    states), so construction speed lives in its constant factors, and
    the work per state is a few passes over int arrays:

    - a closure is its kernel plus the dot-0 items of every production
      reachable from a non-terminal after a kernel dot.  Which
      productions those are depends on the non-terminal alone, so each
      non-terminal's set is computed once, as a bitset over productions;
      a state ORs the sets its kernel names and merges the kernel with
      the set's members in item order, and no closure is sorted;
    - the goto kernels are the closure's advanceable items grouped by
      the symbol after the dot with a counting sort.  The closure is in
      item order and advancing an item keeps that order, so every group
      comes out sorted, and groups are visited in symbol order;
    - a goto kernel is looked up in an open-addressing index while it
      still sits in the scratch buffer (FNV-1a over the packed ints,
      monomorphic comparison), and copied out only when it is new. *)

let dot_bits = 5
let max_rhs = (1 lsl dot_bits) - 1

type item = int

let item ~prod ~dot : item = (prod lsl dot_bits) lor dot
let item_prod (i : item) = i lsr dot_bits
let item_dot (i : item) = i land max_rhs

type state = {
  id : int;
  kernel : item array; (* sorted *)
  closure : item array; (* kernel + nonkernel, sorted *)
  transitions : (Grammar.sym * int) list; (* symbol -> state id, by symbol *)
}

type t = {
  grammar : Grammar.t;
  states : state array;
  start : int;
}

let n_states t = Array.length t.states

let pp_item g ppf (i : item) =
  let p = Grammar.prod g (item_prod i) in
  let dot = item_dot i in
  Fmt.pf ppf "%s ::=" (Grammar.name g p.lhs);
  Array.iteri
    (fun k s ->
      if k = dot then Fmt.pf ppf " .";
      Fmt.pf ppf " %s" (Grammar.name g s))
    p.rhs;
  if dot = Array.length p.rhs then Fmt.pf ppf " ."

(** [next_syms g] maps each item to the symbol after its dot, or -1 for
    a final item (and for the unused codes past a production's end). *)
let next_syms (g : Grammar.t) : int array =
  let next = Array.make (Grammar.n_prods g lsl dot_bits) (-1) in
  Array.iter
    (fun (p : Grammar.prod) ->
      Array.iteri (fun dot s -> next.(item ~prod:p.id ~dot) <- s) p.rhs)
    g.Grammar.prods;
  next

(* Bitsets over production ids, [word] ids per int. *)
let word = Sys.int_size

(* For each non-terminal N, the productions whose dot-0 items the
   closure of an item with the dot before N contains: those of every
   non-terminal reachable from N through leading non-terminals, N
   included. *)
let nonterminal_closures (g : Grammar.t) : int array array =
  let n_syms = Grammar.n_syms g in
  let words = (Grammar.n_prods g + word - 1) / word in
  Array.init n_syms (fun n ->
      let set = Array.make words 0 in
      if g.Grammar.is_nonterminal.(n) then begin
        let seen = Array.make n_syms false in
        let rec visit m =
          if not seen.(m) then begin
            seen.(m) <- true;
            List.iter
              (fun pid ->
                set.(pid / word) <- set.(pid / word) lor (1 lsl (pid mod word));
                let rhs = (Grammar.prod g pid).rhs in
                if Array.length rhs > 0 && g.Grammar.is_nonterminal.(rhs.(0))
                then visit rhs.(0))
              g.Grammar.by_lhs.(m)
          end
        in
        visit n
      end;
      set)

let hash_slice (a : item array) off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor a.(i)) * 0x01000193 land 0x3fffffff
  done;
  !h

let build (g : Grammar.t) : t =
  if
    Array.exists
      (fun (p : Grammar.prod) -> Array.length p.rhs > max_rhs)
      g.Grammar.prods
  then invalid_arg "Lr0.build: production RHS too long";
  let goal_prod =
    match g.Grammar.by_lhs.(g.Grammar.goal) with
    | [ p ] -> p
    | _ -> invalid_arg "Lr0.build: goal must have exactly one production"
  in
  let n_syms = Grammar.n_syms g in
  let next = next_syms g in
  let nt_closure = nonterminal_closures g in
  (* kernels by state id; states are processed in id order, which is the
     order they are found in *)
  let kernels = ref (Array.make 256 [||]) in
  let n = ref 0 in
  (* the kernel index: state ids by hash, linear probing, -1 = empty,
     at most half full *)
  let slots = ref (Array.make 1024 (-1)) in
  let same_kernel id buf off len =
    let k = !kernels.(id) in
    Array.length k = len
    &&
    let i = ref 0 in
    while !i < len && k.(!i) = buf.(off + !i) do
      incr i
    done;
    !i = len
  in
  (* the slot that holds the kernel buf.(off .. off + len - 1), or the
     empty slot where it belongs *)
  let slot buf off len =
    let mask = Array.length !slots - 1 in
    let h = ref (hash_slice buf off len land mask) in
    while !slots.(!h) >= 0 && not (same_kernel !slots.(!h) buf off len) do
      h := (!h + 1) land mask
    done;
    !h
  in
  let find_or_add buf off len =
    let h = slot buf off len in
    if !slots.(h) >= 0 then !slots.(h)
    else begin
      let id = !n in
      incr n;
      if id = Array.length !kernels then begin
        let nk = Array.make (2 * id) [||] in
        Array.blit !kernels 0 nk 0 id;
        kernels := nk
      end;
      !kernels.(id) <- Array.sub buf off len;
      !slots.(h) <- id;
      if 2 * !n > Array.length !slots then begin
        slots := Array.make (2 * Array.length !slots) (-1);
        for id = 0 to !n - 1 do
          let k = !kernels.(id) in
          !slots.(slot k 0 (Array.length k)) <- id
        done
      end;
      id
    end
  in
  let start = find_or_add [| item ~prod:goal_prod ~dot:0 |] 0 1 in
  (* per-state scratch, reused: the union of the kernel's non-terminal
     closures, the closure being formed, and the counting sort's
     per-symbol counts, cursors and goto kernels *)
  let prods = Array.make (Array.length nt_closure.(0)) 0 in
  let cl_buf = Array.make (Array.length next) 0 in
  let count = Array.make n_syms 0 and cursor = Array.make n_syms 0 in
  let goto_buf = Array.make (Array.length next) 0 in
  let target = Array.make n_syms 0 in
  let states = ref [] in
  let next_state = ref 0 in
  while !next_state < !n do
    let id = !next_state in
    incr next_state;
    let kernel = !kernels.(id) in
    (* closure: kernel merged with the dot-0 items of [prods] *)
    Array.fill prods 0 (Array.length prods) 0;
    for j = 0 to Array.length kernel - 1 do
      let s = next.(kernel.(j)) in
      if s >= 0 && g.Grammar.is_nonterminal.(s) then begin
        let c = nt_closure.(s) in
        for w = 0 to Array.length prods - 1 do
          prods.(w) <- prods.(w) lor c.(w)
        done
      end
    done;
    let len = ref 0 and k = ref 0 in
    for w = 0 to Array.length prods - 1 do
      let bits = ref prods.(w) and p = ref (w * word) in
      while !bits <> 0 do
        if !bits land 1 <> 0 then begin
          let i = item ~prod:!p ~dot:0 in
          while !k < Array.length kernel && kernel.(!k) < i do
            cl_buf.(!len) <- kernel.(!k);
            incr len;
            incr k
          done;
          if !k < Array.length kernel && kernel.(!k) = i then incr k;
          cl_buf.(!len) <- i;
          incr len
        end;
        bits := !bits lsr 1;
        incr p
      done
    done;
    let rest = Array.length kernel - !k in
    Array.blit kernel !k cl_buf !len rest;
    let closure = Array.sub cl_buf 0 (!len + rest) in
    (* goto kernels: counting sort of the advanced items by symbol *)
    for j = 0 to Array.length closure - 1 do
      let s = next.(closure.(j)) in
      if s >= 0 then count.(s) <- count.(s) + 1
    done;
    let total = ref 0 in
    for s = 0 to n_syms - 1 do
      cursor.(s) <- !total;
      total := !total + count.(s)
    done;
    for j = 0 to Array.length closure - 1 do
      let i = closure.(j) in
      let s = next.(i) in
      if s >= 0 then begin
        goto_buf.(cursor.(s)) <- i + 1;
        cursor.(s) <- cursor.(s) + 1
      end
    done;
    (* cursor.(s) now ends group s; new states are numbered in symbol
       order *)
    for s = 0 to n_syms - 1 do
      if count.(s) > 0 then
        target.(s) <- find_or_add goto_buf (cursor.(s) - count.(s)) count.(s)
    done;
    let transitions = ref [] in
    for s = n_syms - 1 downto 0 do
      if count.(s) > 0 then begin
        transitions := (s, target.(s)) :: !transitions;
        count.(s) <- 0
      end
    done;
    states := { id; kernel; closure; transitions = !transitions } :: !states
  done;
  { grammar = g; states = Array.of_list (List.rev !states); start }
