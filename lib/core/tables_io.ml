(** Binary serialization of the generated code generator's tables.

    This is what "the object modules for the tables" (paper Table 2)
    means here: the template array and the parse table have concrete
    binary representations whose sizes the benchmark reports in
    4096-byte pages.  The format round-trips: [read (write t)]
    reconstructs a bundle that drives code generation identically. *)

(* -- primitive writers ------------------------------------------------------ *)

let w_i32 b v = Buffer.add_int32_be b (Int32.of_int v)

let w_str b s =
  w_i32 b (String.length s);
  Buffer.add_string b s

let w_list b f xs =
  w_i32 b (List.length xs);
  List.iter (f b) xs

let w_arr b f xs =
  w_i32 b (Array.length xs);
  Array.iter (f b) xs

type reader = { buf : string; mutable pos : int }

exception Corrupt of string

let r_i32 r =
  if r.pos + 4 > String.length r.buf then raise (Corrupt "truncated");
  let v = Int32.to_int (String.get_int32_be r.buf r.pos) in
  r.pos <- r.pos + 4;
  v

(* A length prefix counts bytes or elements that each take at least one
   byte, so a negative one, or one larger than what is left, is
   corruption: caught here, before it sizes an allocation. *)
let r_len r =
  let n = r_i32 r in
  if n < 0 || n > String.length r.buf - r.pos then
    raise (Corrupt (Fmt.str "length %d out of range" n));
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
  if
    r.pos + 4 > String.length r.buf
    || String.sub r.buf r.pos 4 <> "CGT1"
  then raise (Corrupt "bad template array magic");
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
  r_template_array { buf = s; pos = 0 }

(** Serialize a compressed parse table (Table 2, entries ii/iii). *)
let parse_table_bytes (c : Compress.t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "CGP1";
  w_i32 b c.Compress.n_states;
  w_i32 b c.Compress.n_syms;
  (* 16-bit cells, as the size accounting assumes *)
  let w_u16s arr =
    w_i32 b (Array.length arr);
    Array.iter
      (fun v ->
        Buffer.add_uint16_be b (v land 0xFFFF))
      arr
  in
  w_u16s c.Compress.defaults;
  w_i32 b (Array.length c.Compress.offsets);
  Array.iter (fun v -> w_i32 b v) c.Compress.offsets;
  w_u16s c.Compress.value;
  w_u16s c.Compress.check;
  Buffer.contents b

(** Table 2 size accounting, in bytes. *)
type sizes = {
  template_array : int;
  compressed_table : int;
  uncompressed_table : int;
}

let sizes (t : Tables.t) : sizes =
  (* the bundle already carries the comb-packed form; no need to re-pack *)
  let compressed = t.Tables.compressed in
  {
    template_array = String.length (template_array_bytes t);
    compressed_table = compressed.Compress.size_bytes;
    uncompressed_table = Compress.uncompressed_bytes t.Tables.parse;
  }

let pages bytes = Float.of_int bytes /. 4096.0

(* -- whole-bundle serialization ----------------------------------------------- *)

(* The complete generated code generator as one artifact: grammar, type
   information, parse table and templates.  A bundle written by [write]
   and reloaded with [read] drives code generation identically — this is
   the "tables" product CoGG ships to the compiler (paper section 2). *)

let w_action b (a : Parse_table.action) = w_i32 b (Compress.encode_action a)
let r_action r : Parse_table.action = Compress.decode_action (r_i32 r)

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
  | k -> raise (Corrupt (Fmt.str "bad kind code %d" k))

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
  | k -> raise (Corrupt (Fmt.str "bad compression method %d" k))

let w_int_arr b arr = w_arr b (fun b v -> w_i32 b v) arr
let r_int_arr r = r_arr r r_i32

(* The comb-packed dispatch table rides in the bundle so a cache hit
   skips row-displacement packing as well as LR construction. *)
let w_compress b (c : Compress.t) =
  w_i32 b c.Compress.n_states;
  w_i32 b c.Compress.n_syms;
  w_i32 b (method_code c.Compress.method_);
  w_int_arr b c.Compress.row_index;
  w_int_arr b c.Compress.defaults;
  w_int_arr b c.Compress.offsets;
  w_int_arr b c.Compress.value;
  w_int_arr b c.Compress.check;
  w_i32 b c.Compress.size_bytes

let r_compress r : Compress.t =
  let n_states = r_i32 r in
  let n_syms = r_i32 r in
  let method_ = method_of_code (r_i32 r) in
  let row_index = r_int_arr r in
  let defaults = r_int_arr r in
  let offsets = r_int_arr r in
  let value = r_int_arr r in
  let check = r_int_arr r in
  let size_bytes = r_i32 r in
  (* structural sanity so a corrupt entry surfaces as [Corrupt], never as
     an out-of-bounds probe at dispatch time (the comb probe relies on
     non-negative offsets and only bounds-checks the top end) *)
  let n_rows = Array.length defaults in
  if
    Array.length row_index <> n_states
    || Array.length offsets <> n_rows
    || Array.length value <> Array.length check
    || Array.exists (fun rid -> rid < 0 || rid >= n_rows) row_index
    || Array.exists (fun off -> off < 0) offsets
  then raise (Corrupt "inconsistent compressed table");
  { Compress.n_states; n_syms; method_; row_index; defaults; offsets; value;
    check; size_bytes }

let w_conflict b (c : Parse_table.conflict) =
  w_i32 b c.Parse_table.c_state;
  w_i32 b c.Parse_table.c_sym;
  w_i32 b (match c.Parse_table.c_kind with `Shift_reduce -> 0 | `Reduce_reduce -> 1);
  w_action b c.Parse_table.c_chosen;
  w_action b c.Parse_table.c_dropped

let r_conflict r : Parse_table.conflict =
  let c_state = r_i32 r in
  let c_sym = r_i32 r in
  let c_kind =
    match r_i32 r with
    | 0 -> `Shift_reduce
    | 1 -> `Reduce_reduce
    | k -> raise (Corrupt (Fmt.str "bad conflict kind %d" k))
  in
  let c_chosen = r_action r in
  { Parse_table.c_state; c_sym; c_kind; c_chosen; c_dropped = r_action r }

(* v5 appendix: the incremental-rebuild metadata (per-production content
   hashes, declaration/shape digests, lookahead mode)
   rides in the bundle behind its own magic, so a cached entry is a
   complete partial build: a later process can diff an edited spec
   against it and splice (Cogg_build.build_incremental) without ever
   having seen the original spec text. *)
let appendix_magic = "CGI5"

let mode_code : Lookahead.mode -> int = function
  | Lookahead.Slr -> 0
  | Lookahead.Lalr -> 1

let mode_of_code = function
  | 0 -> Lookahead.Slr
  | 1 -> Lookahead.Lalr
  | k -> raise (Corrupt (Fmt.str "bad lookahead mode %d" k))

(** Serialize a complete table bundle (format v6). *)
let write (t : Tables.t) : string =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "CGB6";
  (* target; resolved through the registry on read *)
  w_str b t.Tables.target.Machine.Target.name;
  (* grammar *)
  let g = t.Tables.grammar in
  w_arr b w_str g.Grammar.names;
  w_arr b (fun b x -> w_i32 b (if x then 1 else 0)) g.Grammar.is_nonterminal;
  w_arr b (fun b x -> w_i32 b (if x then 1 else 0)) g.Grammar.in_if;
  w_arr b
    (fun b (p : Grammar.prod) ->
      w_i32 b p.Grammar.lhs;
      w_arr b (fun b s -> w_i32 b s) p.Grammar.rhs;
      w_i32 b p.Grammar.line)
    g.Grammar.prods;
  w_i32 b g.Grammar.goal;
  w_i32 b g.Grammar.lambda;
  w_i32 b g.Grammar.stmts;
  w_i32 b g.Grammar.eof;
  (* symbol table lists (enough to rebuild Symtab.t) *)
  let st = t.Tables.symtab in
  w_list b
    (fun b (n, c) ->
      w_str b n;
      w_i32 b (class_code c))
    st.Symtab.nonterminals;
  w_list b
    (fun b (n, k) ->
      w_str b n;
      w_i32 b (kind_code k))
    st.Symtab.terminals;
  w_list b w_str st.Symtab.operators;
  w_list b w_str st.Symtab.opcodes;
  w_list b
    (fun b (n, v) ->
      w_str b n;
      w_i32 b v)
    st.Symtab.constants;
  w_list b w_str st.Symtab.semantics;
  (* parse table: dense actions *)
  w_i32 b (Parse_table.n_states t.Tables.parse);
  Array.iter (fun row -> w_arr b w_action row) t.Tables.parse.Parse_table.actions;
  w_i32 b t.Tables.parse.Parse_table.automaton.Lr0.start;
  w_list b w_conflict t.Tables.parse.Parse_table.conflicts;
  w_compress b t.Tables.compressed;
  (* templates and type info *)
  Buffer.add_string b (template_array_bytes t);
  w_i32 b t.Tables.n_user_prods;
  w_arr b
    (fun b c ->
      w_opt b (fun b c -> w_i32 b (class_code c)) c)
    t.Tables.class_of;
  w_arr b
    (fun b k -> w_opt b (fun b k -> w_i32 b (kind_code k)) k)
    t.Tables.kind_of;
  (* incremental appendix *)
  Buffer.add_string b appendix_magic;
  w_i32 b (mode_code t.Tables.parse.Parse_table.mode);
  w_str b t.Tables.hashes.Spec_hash.decls;
  w_str b t.Tables.hashes.Spec_hash.shape;
  w_arr b w_str t.Tables.hashes.Spec_hash.prods;
  Buffer.contents b

(** Reload a bundle written by {!write}.  The embedded LR(0) automaton is
    not stored: a placeholder with only the start state is rebuilt, which
    is all the driver needs (it reads actions, never items). *)
let read (s : string) : Tables.t =
  if String.length s < 4 || String.sub s 0 4 <> "CGB6" then
    raise
      (Corrupt
         (if String.length s >= 4 && String.sub s 0 3 = "CGB" then
            Fmt.str "stale bundle format %s (want CGB6)" (String.sub s 0 4)
          else "bad bundle magic"));
  let r = { buf = s; pos = 4 } in
  let target_name = r_str r in
  let target =
    match Machine.Targets.find target_name with
    | Some t -> t
    | None -> raise (Corrupt (Fmt.str "unknown target %S" target_name))
  in
  let names = r_arr r r_str in
  let is_nonterminal = r_arr r (fun r -> r_i32 r <> 0) in
  let in_if = r_arr r (fun r -> r_i32 r <> 0) in
  let prods =
    r_arr r (fun r ->
        let lhs = r_i32 r in
        let rhs = r_arr r r_i32 in
        let line = r_i32 r in
        { Grammar.id = 0; lhs; rhs; line })
    |> Array.mapi (fun id p -> { p with Grammar.id })
  in
  let goal = r_i32 r in
  let lambda = r_i32 r in
  let stmts = r_i32 r in
  let eof = r_i32 r in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let by_lhs = Array.make (Array.length names) [] in
  Array.iter
    (fun (p : Grammar.prod) ->
      by_lhs.(p.Grammar.lhs) <- p.Grammar.id :: by_lhs.(p.Grammar.lhs))
    prods;
  Array.iteri (fun i l -> by_lhs.(i) <- List.rev l) by_lhs;
  let grammar =
    {
      Grammar.names;
      index;
      is_nonterminal;
      in_if;
      prods;
      by_lhs;
      goal;
      lambda;
      stmts;
      eof;
    }
  in
  (* symbol table *)
  let nonterminals =
    r_list r (fun r ->
        let n = r_str r in
        (n, class_of_code (r_i32 r)))
  in
  let terminals =
    r_list r (fun r ->
        let n = r_str r in
        (n, kind_of_kcode (r_i32 r)))
  in
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
  let symtab =
    { Symtab.table; nonterminals; terminals; operators; opcodes; constants;
      semantics }
  in
  (* parse table *)
  let n_states = r_len r in
  let actions = Array.init n_states (fun _ -> r_arr r r_action) in
  let start = r_i32 r in
  let conflicts = r_list r r_conflict in
  let compressed = r_compress r in
  let automaton =
    (* a skeletal automaton: the driver only needs the start state id *)
    {
      Lr0.grammar;
      states =
        Array.init n_states (fun id ->
            { Lr0.id; kernel = [||]; closure = [||]; transitions = [] });
      start;
    }
  in
  (* templates and type info *)
  let compiled = r_template_array r in
  let n_user_prods = r_i32 r in
  let class_of = r_arr r (fun r -> r_opt r (fun r -> class_of_code (r_i32 r))) in
  let kind_of = r_arr r (fun r -> r_opt r (fun r -> kind_of_kcode (r_i32 r))) in
  (* incremental appendix *)
  if
    r.pos + 4 > String.length r.buf
    || String.sub r.buf r.pos 4 <> appendix_magic
  then raise (Corrupt "missing incremental appendix");
  r.pos <- r.pos + 4;
  let mode = mode_of_code (r_i32 r) in
  let decls = r_str r in
  let shape = r_str r in
  let prod_hashes = r_arr r r_str in
  if Array.length prod_hashes <> n_user_prods then
    raise (Corrupt "production hash count does not match the bundle");
  let parse = { Parse_table.grammar; automaton; mode; actions; conflicts } in
  {
    Tables.target;
    grammar;
    symtab;
    parse;
    compressed;
    compiled;
    n_user_prods;
    class_of;
    kind_of;
    hashes = { Spec_hash.decls; shape; prods = prod_hashes };
  }
