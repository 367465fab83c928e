(** Binary serialization of the generated code generator's tables.

    This is what "the object modules for the tables" (paper Table 2)
    means here: the template array and the parse table have concrete
    binary representations whose sizes the benchmark reports in
    4096-byte pages.  The format round-trips: [read (write t)]
    reconstructs a bundle that drives code generation identically.

    {b Bundle format [CGB9].}  Every multi-byte field is little-endian;
    scalars, counts and string lengths take 4 bytes.

    {v
    0   "CGB9"
    4   u32  length of the whole bundle
    8   16   checksum of bytes [24, length): two 63-bit lanes, 8 bytes
             each (see [checksum])
    24  u32 x 5  section lengths (the directory); the sections follow
                 in this order, back to back, and end at [length]
        meta       target, grammar, symbol table, start state, user
                   production count
        comb       the comb-packed table (Compress.t), which also
                   carries the state and symbol counts
        templates  the CGT1 template array
        types      per-symbol register class and value kind
        hashes     the incremental-rebuild hashes (Spec_hash.t)
    v}

    Integer arrays are {!Cells} columns at the narrowest of 1, 2 or 4
    bytes per cell, so the comb's cells take exactly the bytes
    [Compress.size_bytes] charges.

    [read] checks the length and the checksum before it decodes
    anything, so a torn bundle, or one with any change confined to one
    8-byte word, is always [Corrupt] and never a wrong table.  It then
    decodes every section and checks its structure: every length and
    column fits its section, and every symbol the grammar names is in
    range.  The comb's cells are not copied: the dispatcher probes them
    in the loaded string.  The automaton, the dense action rows and the
    conflict log are not stored: they are a function of the grammar,
    rebuilt on first use ({!Tables.of_grammar}), and the grammar checks
    here are what keeps that rebuild from failing. *)

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt

(* -- primitive writers ------------------------------------------------------ *)

let w_i32 b v = Buffer.add_int32_le b (Int32.of_int v)

let w_str b s =
  w_i32 b (String.length s);
  Buffer.add_string b s

let w_list b f xs =
  w_i32 b (List.length xs);
  List.iter (f b) xs

let w_arr b f xs =
  w_i32 b (Array.length xs);
  Array.iter (f b) xs

(* a reader over [buf] from [pos] up to (not including) [lim]: one
   section of a bundle, or a whole template array *)
type reader = { buf : string; mutable pos : int; lim : int }

let reader buf pos lim = { buf; pos; lim }

let r_i32 r =
  if r.pos + 4 > r.lim then raise (Corrupt "truncated");
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) in
  r.pos <- r.pos + 4;
  v

(* A length prefix counts bytes or elements that each take at least one
   byte, so a negative one, or one larger than what is left, is
   corruption: caught here, before it sizes an allocation. *)
let r_len r =
  let n = r_i32 r in
  if n < 0 || n > r.lim - r.pos then corrupt "length %d out of range" n;
  n

let r_str r =
  let n = r_len r in
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_list r f =
  let n = r_len r in
  List.init n (fun _ -> f r)

let r_arr r f =
  let n = r_len r in
  Array.init n (fun _ -> f r)

(* -- template encoding ------------------------------------------------------- *)

let rec w_src b : Template.src -> unit = function
  | Template.Stack k -> w_i32 b 0; w_i32 b k
  | Template.Alloc i -> w_i32 b 1; w_i32 b i
  | Template.Phys r -> w_i32 b 2; w_i32 b r
  | Template.Lit n -> w_i32 b 3; w_i32 b n
  | Template.Plus (s, n) -> w_i32 b 4; w_src b s; w_i32 b n

let rec r_src r : Template.src =
  match r_i32 r with
  | 0 -> Template.Stack (r_i32 r)
  | 1 -> Template.Alloc (r_i32 r)
  | 2 -> Template.Phys (r_i32 r)
  | 3 -> Template.Lit (r_i32 r)
  | 4 ->
      let s = r_src r in
      Template.Plus (s, r_i32 r)
  | k -> raise (Corrupt (Fmt.str "bad src tag %d" k))

let w_operand b (o : Template.operand) =
  w_src b o.Template.base;
  w_list b w_src o.Template.subs

let r_operand r : Template.operand =
  let base = r_src r in
  { Template.base; subs = r_list r r_src }

let w_opt b f = function
  | None -> w_i32 b 0
  | Some x ->
      w_i32 b 1;
      f b x

let r_opt r f = match r_i32 r with 0 -> None | _ -> Some (f r)

let w_step b : Template.step -> unit = function
  | Template.Instr { mnem; ops } ->
      w_i32 b 0; w_str b mnem; w_list b w_operand ops
  | Template.Modifies s -> w_i32 b 1; w_src b s
  | Template.Ignore_lhs -> w_i32 b 2
  | Template.Label_location s -> w_i32 b 3; w_src b s
  | Template.Label_ptr s -> w_i32 b 4; w_src b s
  | Template.Branch { cond; lbl; idx } ->
      w_i32 b 5; w_src b cond; w_src b lbl; w_src b idx
  | Template.Branch_indexed { cond; lbl; idx; index } ->
      w_i32 b 6; w_src b cond; w_src b lbl; w_src b idx; w_src b index
  | Template.Skip { cond; dist; idx } ->
      w_i32 b 7; w_src b cond; w_src b dist; w_src b idx
  | Template.Case_load { reg; lbl; idx } ->
      w_i32 b 8; w_src b reg; w_src b lbl; w_src b idx
  | Template.Push { sym; value } -> w_i32 b 9; w_i32 b sym; w_src b value
  | Template.Ibm_length s -> w_i32 b 10; w_src b s
  | Template.Stmt_record s -> w_i32 b 11; w_src b s
  | Template.List_request s -> w_i32 b 12; w_src b s
  | Template.Abort s -> w_i32 b 13; w_src b s
  | Template.Common { ty; fp; cse; cnt; reg; dsp; base } ->
      w_i32 b 14;
      w_opt b (fun b v -> w_i32 b v) ty;
      w_i32 b (if fp then 1 else 0);
      w_src b cse; w_src b cnt; w_src b reg; w_src b dsp; w_src b base
  | Template.Find_common { cse; fp; push_sym } ->
      w_i32 b 15; w_src b cse; w_i32 b (if fp then 1 else 0); w_i32 b push_sym

let r_step r : Template.step =
  match r_i32 r with
  | 0 ->
      let mnem = r_str r in
      Template.Instr { mnem; ops = r_list r r_operand }
  | 1 -> Template.Modifies (r_src r)
  | 2 -> Template.Ignore_lhs
  | 3 -> Template.Label_location (r_src r)
  | 4 -> Template.Label_ptr (r_src r)
  | 5 ->
      let cond = r_src r in
      let lbl = r_src r in
      Template.Branch { cond; lbl; idx = r_src r }
  | 6 ->
      let cond = r_src r in
      let lbl = r_src r in
      let idx = r_src r in
      Template.Branch_indexed { cond; lbl; idx; index = r_src r }
  | 7 ->
      let cond = r_src r in
      let dist = r_src r in
      Template.Skip { cond; dist; idx = r_src r }
  | 8 ->
      let reg = r_src r in
      let lbl = r_src r in
      Template.Case_load { reg; lbl; idx = r_src r }
  | 9 ->
      let sym = r_i32 r in
      Template.Push { sym; value = r_src r }
  | 10 -> Template.Ibm_length (r_src r)
  | 11 -> Template.Stmt_record (r_src r)
  | 12 -> Template.List_request (r_src r)
  | 13 -> Template.Abort (r_src r)
  | 14 ->
      let ty = r_opt r r_i32 in
      let fp = r_i32 r <> 0 in
      let cse = r_src r in
      let cnt = r_src r in
      let reg = r_src r in
      let dsp = r_src r in
      Template.Common { ty; fp; cse; cnt; reg; dsp; base = r_src r }
  | 15 ->
      let cse = r_src r in
      let fp = r_i32 r <> 0 in
      Template.Find_common { cse; fp; push_sym = r_i32 r }
  | k -> raise (Corrupt (Fmt.str "bad step tag %d" k))

(* reg classes as small ints *)
let class_code : Symtab.reg_class -> int = function
  | Symtab.Gpr -> 0
  | Symtab.Pair -> 1
  | Symtab.Fpr -> 2
  | Symtab.Fpair -> 3
  | Symtab.Cc -> 4
  | Symtab.Noclass -> 5

let class_of_code = function
  | 0 -> Symtab.Gpr
  | 1 -> Symtab.Pair
  | 2 -> Symtab.Fpr
  | 3 -> Symtab.Fpair
  | 4 -> Symtab.Cc
  | 5 -> Symtab.Noclass
  | k -> raise (Corrupt (Fmt.str "bad class code %d" k))


(** Serialize the template array alone (Table 2, entry i). *)
let template_array_bytes (t : Tables.t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "CGT1";
  w_arr b
    (fun b c ->
      match c with
      | None -> w_i32 b 0
      | Some (c : Template.compiled) ->
          w_i32 b 1;
          w_i32 b c.Template.c_prod;
          w_arr b
            (fun b (a : Template.alloc_req) ->
              w_i32 b (class_code a.Template.a_class);
              w_str b a.Template.a_name;
              w_i32 b a.Template.a_idx)
            c.Template.c_allocs;
          w_arr b
            (fun b (n : Template.need_req) ->
              w_i32 b (class_code n.Template.n_class);
              w_i32 b n.Template.n_reg)
            c.Template.c_needs;
          w_arr b w_step c.Template.c_steps;
          w_opt b
            (fun b (p : Template.push) ->
              w_i32 b p.Template.push_sym;
              w_src b p.Template.push_src)
            c.Template.c_push)
    t.Tables.compiled;
  Buffer.contents b

let r_template_array (r : reader) : Template.compiled option array =
  if r.pos + 4 > r.lim || String.sub r.buf r.pos 4 <> "CGT1" then
    raise (Corrupt "bad template array magic");
  r.pos <- r.pos + 4;
  r_arr r (fun r ->
      match r_i32 r with
      | 0 -> None
      | _ ->
          let c_prod = r_i32 r in
          let c_allocs =
            r_arr r (fun r ->
                let a_class = class_of_code (r_i32 r) in
                let a_name = r_str r in
                { Template.a_class; a_name; a_idx = r_i32 r })
          in
          let c_needs =
            r_arr r (fun r ->
                let n_class = class_of_code (r_i32 r) in
                { Template.n_class; n_reg = r_i32 r })
          in
          let c_steps = r_arr r r_step in
          let c_push =
            r_opt r (fun r ->
                let push_sym = r_i32 r in
                { Template.push_sym; push_src = r_src r })
          in
          Some { Template.c_prod; c_allocs; c_needs; c_steps; c_push })

let read_template_array (s : string) : Template.compiled option array =
  r_template_array (reader s 0 (String.length s))

(** Table 2 size accounting, in bytes. *)
type sizes = {
  template_array : int;
  compressed_table : int;
  uncompressed_table : int;
}

let sizes (t : Tables.t) : sizes =
  (* the bundle already carries the comb-packed form, and the flat size
     follows from the dimensions: nothing is re-packed or decoded *)
  {
    template_array = String.length (template_array_bytes t);
    compressed_table = t.Tables.compressed.Compress.size_bytes;
    uncompressed_table = Compress.uncompressed_bytes t.Tables.compressed;
  }

let pages bytes = Float.of_int bytes /. 4096.0

(* -- whole-bundle serialization ----------------------------------------------- *)

(* The complete generated code generator as one artifact: grammar, type
   information, parse table and templates.  A bundle written by [write]
   and reloaded with [read] drives code generation identically — this is
   the "tables" product CoGG ships to the compiler (paper section 2). *)

let kind_code : Symtab.value_kind -> int = function
  | Symtab.Kint -> 0
  | Symtab.Klabel -> 1
  | Symtab.Kcse -> 2
  | Symtab.Kcond -> 3

let kind_of_kcode = function
  | 0 -> Symtab.Kint
  | 1 -> Symtab.Klabel
  | 2 -> Symtab.Kcse
  | 3 -> Symtab.Kcond
  | k -> corrupt "bad kind code %d" k

let method_code : Compress.method_ -> int = function
  | Compress.No_compression -> 0
  | Compress.Defaults_only -> 1
  | Compress.Comb_only -> 2
  | Compress.Defaults_and_comb -> 3

let method_of_code = function
  | 0 -> Compress.No_compression
  | 1 -> Compress.Defaults_only
  | 2 -> Compress.Comb_only
  | 3 -> Compress.Defaults_and_comb
  | k -> corrupt "bad compression method %d" k

let magic = "CGB9"
let n_sections = 5
let header_bytes = 24
let directory_end = header_bytes + (4 * n_sections)

(* -- the checksum ------------------------------------------------------------ *)

(* Bytes [header_bytes, n) are read one little-endian 8-byte word at a
   time.  Each word's low and high 4-byte halves feed two 63-bit lanes;
   a short tail is zero-padded to a word, and the length is folded in
   last.  A step maps (lane, half) to [v lxor (v lsr r)] with
   [v = (lane lxor half) * k] and [k] odd.  For a fixed half it is a
   bijection of the lane (xor, multiplication by an odd number modulo
   2^63 and a right xorshift are each invertible), and for a fixed lane
   it is injective in the half.  So a change confined to one word makes
   the lane its half feeds differ after that step, and every later step
   keeps it different: such a change, and so every single-bit flip, is
   always caught, not just with high probability.  The halves are 32
   bits wide, so no bit of a word is lost to OCaml's 63-bit [int] (a
   whole word through [Int64.to_int] would lose bit 63). *)

let step k r lane half =
  let v = (lane lxor half) * k in
  v lxor (v lsr r)

let lane_lo lane half = step 0x1F47_A2E3_9C8B_5D2B 29 lane half
let lane_hi lane half = step 0x2C6F_E0B1_8D3A_47A5 31 lane half

(** The checksum of bytes [[header_bytes, n)] of [s]: the two lanes as
    the 16 bytes the header stores at offset 8. *)
let checksum (s : string) : string =
  let n = String.length s in
  let lo = ref 0x0123_4567_89AB_CDEF and hi = ref 0x3EDC_BA98_7654_3210 in
  let i = ref header_bytes in
  while !i + 8 <= n do
    let w = String.get_int64_le s !i in
    lo := lane_lo !lo (Int64.to_int w land 0xFFFF_FFFF);
    hi := lane_hi !hi (Int64.to_int (Int64.shift_right_logical w 32));
    i := !i + 8
  done;
  let tail = ref 0 in
  for j = n - 1 downto !i do
    tail := (!tail lsl 8) lor Char.code s.[j]
  done;
  let lo = lane_lo (lane_lo !lo (!tail land 0xFFFF_FFFF)) n
  and hi = lane_hi (lane_hi !hi (!tail lsr 32)) n in
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int lo);
  Bytes.set_int64_le b 8 (Int64.of_int hi);
  Bytes.unsafe_to_string b

(** Store the checksum of [b]'s bytes from [header_bytes] on in its
    header. *)
let seal (b : Bytes.t) =
  Bytes.blit_string (checksum (Bytes.unsafe_to_string b)) 0 b 8 16

(* integer columns *)

let w_ints b (a : int array) = Cells.add b (Cells.of_array a)

let r_cells r : Cells.t =
  match Cells.view r.buf r.pos ~limit:r.lim with
  | Some (c, next) ->
      r.pos <- next;
      c
  | None -> raise (Corrupt "malformed integer column")

let r_ints r = Cells.to_array (r_cells r)

(* every cell of [c] is below [bound] *)
let all_below (c : Cells.t) bound =
  let rec go i = i = Cells.length c || (Cells.get c i < bound && go (i + 1)) in
  go 0

let r_ints_n r n what =
  let a = r_ints r in
  if Array.length a <> n then
    corrupt "%s: %d entries, want %d" what (Array.length a) n;
  a

let bool_code b = if b then 1 else 0

(* an optional code as a cell: 0 for [None], [code + 1] for [Some] *)
let opt_code f = function None -> 0 | Some x -> f x + 1
let of_opt_code f = function 0 -> None | k -> Some (f (k - 1))

(* -- meta: target, grammar, symbol table, automaton scalars ---------------- *)

let w_meta b (t : Tables.t) =
  w_str b t.Tables.target.Machine.Target.name;
  let g = t.Tables.grammar in
  w_arr b w_str g.Grammar.names;
  w_ints b (Array.map bool_code g.Grammar.is_nonterminal);
  w_ints b (Array.map bool_code g.Grammar.in_if);
  let prods = g.Grammar.prods in
  w_ints b (Array.map (fun (p : Grammar.prod) -> p.Grammar.lhs) prods);
  let rhs = Array.map (fun (p : Grammar.prod) -> p.Grammar.rhs) prods in
  w_ints b (Array.map Array.length rhs);
  w_ints b (Array.concat (Array.to_list rhs));
  w_ints b (Array.map (fun (p : Grammar.prod) -> p.Grammar.line) prods);
  List.iter (w_i32 b)
    [ g.Grammar.goal; g.Grammar.lambda; g.Grammar.stmts; g.Grammar.eof ];
  (* symbol table lists (enough to rebuild Symtab.t) *)
  let st = t.Tables.symtab in
  let named f xs =
    w_list b (fun b (n, _) -> w_str b n) xs;
    w_ints b (Array.of_list (List.map (fun (_, x) -> f x) xs))
  in
  named class_code st.Symtab.nonterminals;
  named kind_code st.Symtab.terminals;
  w_list b w_str st.Symtab.operators;
  w_list b w_str st.Symtab.opcodes;
  (* constants may be negative: plain 32-bit values *)
  w_list b (fun b (n, v) -> w_str b n; w_i32 b v) st.Symtab.constants;
  w_list b w_str st.Symtab.semantics;
  List.iter (w_i32 b) [ t.Tables.start; t.Tables.n_user_prods ]

let r_grammar r : Grammar.t =
  let names = r_arr r r_str in
  let n = Array.length names in
  let is_nonterminal =
    Array.map (( <> ) 0) (r_ints_n r n "nonterminal flags")
  in
  let in_if = Array.map (( <> ) 0) (r_ints_n r n "IF flags") in
  let lhs = r_ints r in
  let n_prods = Array.length lhs in
  let rhs_len = r_ints_n r n_prods "rhs lengths" in
  let rhs_all = r_ints r in
  let line = r_ints_n r n_prods "production lines" in
  if Array.fold_left ( + ) 0 rhs_len <> Array.length rhs_all then
    raise (Corrupt "rhs lengths do not match the rhs cells");
  (* cells are unsigned: these bounds put every symbol in range, and an
     LR item has room for every dot *)
  if Array.exists (fun s -> s >= n) lhs then raise (Corrupt "lhs out of range");
  if Array.exists (fun s -> s >= n) rhs_all then
    raise (Corrupt "rhs symbol out of range");
  if Array.exists (fun l -> l > Lr0.max_rhs) rhs_len then
    raise (Corrupt "rhs too long for an LR item");
  let next = ref 0 in
  let prods =
    Array.init n_prods (fun id ->
        let rhs = Array.sub rhs_all !next rhs_len.(id) in
        next := !next + rhs_len.(id);
        { Grammar.id; lhs = lhs.(id); rhs; line = line.(id) })
  in
  let goal = r_i32 r in
  let lambda = r_i32 r in
  let stmts = r_i32 r in
  let eof = r_i32 r in
  if List.exists (fun s -> s < 0 || s >= n) [ goal; lambda; stmts; eof ] then
    raise (Corrupt "special symbol out of range");
  let index = Hashtbl.create n in
  Array.iteri (fun i nm -> Hashtbl.replace index nm i) names;
  let by_lhs = Array.make n [] in
  for id = n_prods - 1 downto 0 do
    by_lhs.(lhs.(id)) <- id :: by_lhs.(lhs.(id))
  done;
  (* LR(0) construction starts from the goal's one production *)
  if List.length by_lhs.(goal) <> 1 then
    raise (Corrupt "the goal symbol needs exactly one production");
  { Grammar.names; index; is_nonterminal; in_if; prods; by_lhs; goal; lambda;
    stmts; eof }

let r_symtab r : Symtab.t =
  let named f =
    let names = r_list r r_str in
    let codes = r_ints_n r (List.length names) "symbol codes" in
    List.mapi (fun i n -> (n, f codes.(i))) names
  in
  let nonterminals = named class_of_code in
  let terminals = named kind_of_kcode in
  let operators = r_list r r_str in
  let opcodes = r_list r r_str in
  let constants =
    r_list r (fun r ->
        let n = r_str r in
        (n, r_i32 r))
  in
  let semantics = r_list r r_str in
  let table = Hashtbl.create 256 in
  List.iter (fun (n, c) -> Hashtbl.replace table n (Symtab.Nonterminal c)) nonterminals;
  List.iter (fun (n, k) -> Hashtbl.replace table n (Symtab.Terminal k)) terminals;
  List.iter (fun n -> Hashtbl.replace table n Symtab.Operator) operators;
  List.iter (fun n -> Hashtbl.replace table n Symtab.Opcode) opcodes;
  List.iter (fun (n, v) -> Hashtbl.replace table n (Symtab.Constant v)) constants;
  List.iter (fun n -> Hashtbl.replace table n Symtab.Semantic) semantics;
  { Symtab.table; nonterminals; terminals; operators; opcodes; constants;
    semantics }

(* -- comb ------------------------------------------------------------------ *)

(* The comb-packed dispatch table rides in the bundle so a cache hit
   skips row-displacement packing as well as LR construction; its columns
   are copied out as they are and read back as views. *)
let w_comb b (c : Compress.t) =
  List.iter (w_i32 b)
    [ c.Compress.n_states; c.Compress.n_syms; method_code c.Compress.method_;
      c.Compress.size_bytes ];
  List.iter (Cells.add b)
    Compress.[ c.row_index; c.defaults; c.offsets; c.value; c.check ]

let r_comb r ~n_syms : Compress.t =
  let n_states = r_i32 r in
  let n_syms' = r_i32 r in
  let method_ = method_of_code (r_i32 r) in
  let size_bytes = r_i32 r in
  let row_index = r_cells r in
  let defaults = r_cells r in
  let offsets = r_cells r in
  let value = r_cells r in
  let check = r_cells r in
  (* structural sanity, so a writer bug surfaces as [Corrupt], never as
     an out-of-bounds probe at dispatch time: cells are unsigned, so
     these bounds put every row id and offset in range (an empty row's
     offset is the packed length, where every probe misses) *)
  let n_rows = Cells.length defaults in
  if
    n_syms' <> n_syms
    || Cells.length row_index <> n_states
    || Cells.length offsets <> n_rows
    || Cells.length value <> Cells.length check
    || not (all_below row_index n_rows)
    || not (all_below offsets (Cells.length value + 1))
  then raise (Corrupt "inconsistent compressed table");
  { Compress.n_states; n_syms; method_; row_index; defaults; offsets; value;
    check; size_bytes }

(* -- type info ------------------------------------------------------------- *)

let w_types b (t : Tables.t) =
  w_ints b (Array.map (opt_code class_code) t.Tables.class_of);
  w_ints b (Array.map (opt_code kind_code) t.Tables.kind_of)

let r_types r ~n_syms =
  let decode f what = Array.map (of_opt_code f) (r_ints_n r n_syms what) in
  let class_of = decode class_of_code "classes" in
  let kind_of = decode kind_of_kcode "kinds" in
  (class_of, kind_of)

(* -- incremental-rebuild hashes -------------------------------------------- *)

let w_hashes b (h : Spec_hash.t) =
  w_str b h.Spec_hash.decls;
  w_str b h.Spec_hash.shape;
  w_arr b w_str h.Spec_hash.prods

let r_hashes r ~n_user_prods : Spec_hash.t =
  let decls = r_str r in
  let shape = r_str r in
  let prods = r_arr r r_str in
  if Array.length prods <> n_user_prods then
    raise (Corrupt "production hash count does not match the bundle");
  { Spec_hash.decls; shape; prods }

(* -- the bundle ------------------------------------------------------------ *)

let encode_bundle (t : Tables.t) : string =
  let c = t.Tables.compressed in
  let b = Buffer.create (directory_end + Compress.cell_bytes c + (1 lsl 17)) in
  Buffer.add_string b magic;
  (* length, digest and directory are filled in below *)
  Buffer.add_string b
    (String.make (directory_end - String.length magic) '\000');
  let lens =
    List.map
      (fun w ->
        let p0 = Buffer.length b in
        w b;
        Buffer.length b - p0)
      [
        (fun b -> w_meta b t);
        (fun b -> w_comb b c);
        (fun b -> Buffer.add_string b (template_array_bytes t));
        (fun b -> w_types b t);
        (fun b -> w_hashes b t.Tables.hashes);
      ]
  in
  let bytes = Buffer.to_bytes b in
  let n = Bytes.length bytes in
  Bytes.set_int32_le bytes 4 (Int32.of_int n);
  List.iteri
    (fun i len ->
      Bytes.set_int32_le bytes (header_bytes + (4 * i)) (Int32.of_int len))
    lens;
  seal bytes;
  Bytes.unsafe_to_string bytes

(** Serialize a complete table bundle (format [CGB9]), in a
    [tables_io.write] {!Trace} span. *)
let write (t : Tables.t) : string =
  Trace.with_span ~cat:"tables_io" "tables_io.write" (fun () ->
      encode_bundle t)

let decode_bundle (s : string) : Tables.t =
  let n = String.length s in
  if n < 4 || String.sub s 0 4 <> magic then
    corrupt "%s"
      (if n >= 4 && String.sub s 0 3 = "CGB" then
         Fmt.str "stale bundle format %s (want %s)" (String.sub s 0 4) magic
       else "bad bundle magic");
  if n < directory_end then raise (Corrupt "truncated header");
  if Int32.to_int (String.get_int32_le s 4) <> n then
    raise (Corrupt "length does not match the header (torn or padded)");
  if checksum s <> String.sub s 8 16 then raise (Corrupt "checksum mismatch");
  (* the directory: each section's reader, bounded by its extent *)
  let sections = Array.make n_sections (reader s 0 0) in
  let pos = ref directory_end in
  for i = 0 to n_sections - 1 do
    let len = Int32.to_int (String.get_int32_le s (header_bytes + (4 * i))) in
    if len < 0 || len > n - !pos then raise (Corrupt "section out of range");
    sections.(i) <- reader s !pos (!pos + len);
    pos := !pos + len
  done;
  if !pos <> n then raise (Corrupt "sections do not fill the bundle");
  let finish r =
    if r.pos <> r.lim then raise (Corrupt "trailing bytes in a section")
  in
  (* meta *)
  let r = sections.(0) in
  let target_name = r_str r in
  let target =
    match Machine.Targets.find target_name with
    | Some t -> t
    | None -> corrupt "unknown target %S" target_name
  in
  let grammar = r_grammar r in
  let symtab = r_symtab r in
  let start = r_i32 r in
  let n_user_prods = r_i32 r in
  finish r;
  let n_syms = Grammar.n_syms grammar in
  let n_prods = Grammar.n_prods grammar in
  (* comb, templates, types *)
  let compressed = r_comb sections.(1) ~n_syms in
  finish sections.(1);
  let n_states = compressed.Compress.n_states in
  if start < 0 || start >= n_states || n_user_prods < 0 || n_user_prods > n_prods
  then raise (Corrupt "automaton scalars out of range");
  let compiled = r_template_array sections.(2) in
  finish sections.(2);
  let class_of, kind_of = r_types sections.(3) ~n_syms in
  finish sections.(3);
  let hashes = r_hashes sections.(4) ~n_user_prods in
  finish sections.(4);
  {
    Tables.target;
    grammar;
    symtab;
    start;
    compressed;
    compiled;
    n_user_prods;
    class_of;
    kind_of;
    parse_table = Tables.of_grammar grammar;
    hashes;
    builders = Tables.builders_of target compiled;
  }

(** Reload a bundle written by {!write}, in a [tables_io.read] {!Trace}
    span; [Corrupt] unless the length and the checksum match and every
    section is well formed.  The parse table is rebuilt from the grammar
    on first use. *)
let read (s : string) : Tables.t =
  Trace.with_span ~cat:"tables_io" "tables_io.read" (fun () ->
      decode_bundle s)
