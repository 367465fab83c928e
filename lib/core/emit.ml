(** The code emission routine (paper section 3):

    {v
    begin
      remove current production from the parse stack.
      allocate all requested registers.
      for all associated templates do begin
        fill in required values
        if template requires semantic intervention
          then case intervention code of ... end
          else append instruction to code buffer
      end
      prefix LHS to input stream.
    end
    v} *)

exception Emit_error of string

let err fmt = Fmt.kstr (fun s -> raise (Emit_error s)) fmt

(* observability counters (flushed once per compile by Codegen from the
   per-compile statistics; never bumped per emitted instruction) *)
let m_pressure_failures = Metrics.sum "regalloc.pressure_failures"
let m_allocs = Metrics.sum "regalloc.allocs"
let m_evictions = Metrics.sum "regalloc.evictions"
let m_transfers = Metrics.sum "regalloc.transfers"
let m_gp_peak = Metrics.high_water "regalloc.busy_peak.gp"
let m_fp_peak = Metrics.high_water "regalloc.busy_peak.fp"
let m_cse_hits = Metrics.sum "cse.residence_hits"
let m_cse_reloads = Metrics.sum "cse.reloads"
let m_cse_invalidations = Metrics.sum "cse.invalidations"

type t = {
  tables : Tables.t;
  regs : Regalloc.t;
  cse : Cse.t;
  buf : Code_buffer.t;
  reload_dsp : Grammar.sym;
      (** terminal ["dsp"], pushed when reloading a CSE, interned at
          creation ([-1] when the grammar lacks it — pushing it then
          fails at the driver, like any uninterned symbol) *)
  reload_reg : Grammar.sym;  (** register non-terminal ["r"] for CSE reloads *)
  mutable next_internal : int;
  (* open [skip]s: remaining instruction count until the internal label *)
  mutable open_skips : (int ref * Code_buffer.label) list;
  mutable stmt_records : (int * int) list;  (** stmt number -> insn index *)
  mutable list_requests : int list;
  explain : bool;
      (** record, per code-buffer item, the production (and directives)
          responsible for it — the [--explain] sink *)
  mutable cur_origin : string;  (** annotation for the reduction in progress *)
  mutable origins : string list;  (** one entry per buffer item, reversed *)
  (* per-compile CSE residence counters, flushed to Metrics by Codegen *)
  mutable cse_hits : int;
  mutable cse_reloads : int;
  mutable cse_invalidations : int;
  (* the reduction in progress, kept here so that a reduction allocates
     only the items and tokens it emits *)
  mutable allocs : int array;  (** its [using] registers, by slot *)
  mutable vals : int array;
      (** one instruction's evaluated operands, laid out as
          {!Machine.Target.operands} describes *)
  mutable pushed : Driver.ptoken list;
      (** the tokens it prefixes, the one consumed last first *)
}

let create ?(strategy = Regalloc.Lru) ?(explain = false) (tables : Tables.t) :
    t =
  let intern n =
    match Grammar.sym tables.Tables.grammar n with Some s -> s | None -> -1
  in
  {
    tables;
    regs = Regalloc.create ~strategy ();
    cse = Cse.create ();
    buf = Code_buffer.create ();
    reload_dsp = intern "dsp";
    reload_reg = intern "r";
    next_internal = 0;
    open_skips = [];
    stmt_records = [];
    list_requests = [];
    explain;
    cur_origin = "(no production)";
    origins = [];
    cse_hits = 0;
    cse_reloads = 0;
    cse_invalidations = 0;
    allocs = Array.make 4 0;
    vals = Array.make 8 0;
    pushed = [];
  }

let items t = Code_buffer.items t.buf
let stats t = t.regs.Regalloc.stats

(* flush the per-compile statistics into the process-wide counters; one
   enabled check per compile, nothing on the per-instruction path *)
let flush_metrics t =
  if Metrics.enabled () then begin
    let s = t.regs.Regalloc.stats in
    Metrics.add m_allocs s.Regalloc.n_allocs;
    Metrics.add m_evictions s.Regalloc.n_evictions;
    Metrics.add m_transfers s.Regalloc.n_transfers;
    Metrics.peak m_gp_peak s.Regalloc.gp_peak;
    Metrics.peak m_fp_peak s.Regalloc.fp_peak;
    Metrics.add m_cse_hits t.cse_hits;
    Metrics.add m_cse_reloads t.cse_reloads;
    Metrics.add m_cse_invalidations t.cse_invalidations
  end

(* -- appending with skip bookkeeping -------------------------------------- *)

(* why an item was emitted, beyond the production that emitted it; put
   into words only when explanations are recorded *)
type note =
  | Spill of int  (** CSE id *)
  | Transfer of int * int  (** need: from, to *)
  | Copy_on_write
  | Save_before_clobber of int  (** CSE id *)
  | Skip_target

let note_text = function
  | Spill id -> Fmt.str "spill: save CSE %d to its temporary" id
  | Transfer (from, to_) ->
      Fmt.str "need r%d: transfer old contents to r%d" from to_
  | Copy_on_write -> "modifies: copy-on-write of a shared register"
  | Save_before_clobber id -> Fmt.str "modifies: save CSE %d before clobber" id
  | Skip_target -> "skip target"

let record_origin t note =
  if t.explain then
    t.origins <-
      (match note with
      | None -> t.cur_origin
      | Some n -> t.cur_origin ^ " — " ^ note_text n)
      :: t.origins

(* count every open skip down by one instruction; true when one of them
   reached its target *)
let rec count_down = function
  | [] -> false
  | (count, _) :: rest ->
      decr count;
      let reached = !count <= 0 in
      count_down rest || reached

let append_instruction ?note t item =
  Code_buffer.add t.buf item;
  record_origin t note;
  (* the list is rebuilt only when a skip reaches its target *)
  if count_down t.open_skips then
    t.open_skips <-
      List.filter
        (fun (count, lbl) ->
          !count > 0
          ||
          (Code_buffer.add t.buf (Code_buffer.Label_def lbl);
           record_origin t (Some Skip_target);
           false))
        t.open_skips

let append_data ?note t item =
  Code_buffer.add t.buf item;
  record_origin t note

(* -- banks and classes ----------------------------------------------------- *)

let rec class_of_src t (c : Template.compiled) (rhs : Driver.ptoken array)
    (s : Template.src) : Symtab.reg_class =
  match s with
  | Template.Alloc i -> c.Template.c_allocs.(i).Template.a_class
  | Template.Phys r -> need_class c.Template.c_needs r 0
  | Template.Stack k -> (
      match Tables.class_of t.tables rhs.(k).Driver.psym with
      | Some cls -> cls
      | None -> Symtab.Gpr)
  | Template.Plus (s, _) -> class_of_src t c rhs s
  | Template.Lit _ -> Symtab.Gpr

(* the class of the first [need] for register [r], from index [i] on *)
and need_class (needs : Template.need_req array) r i =
  if i = Array.length needs then Symtab.Gpr
  else if needs.(i).Template.n_reg = r then needs.(i).Template.n_class
  else need_class needs r (i + 1)

let bank_of_sym t sym : Regalloc.bank =
  match Tables.class_of t.tables sym with
  | Some cls -> Regalloc.bank_of_class cls
  | None -> Regalloc.Gp

(* -- target hooks ----------------------------------------------------------- *)

let target t = t.tables.Tables.target

(* -- CSE helpers ----------------------------------------------------------- *)

(* save an evicted CSE register to its temporary *)
let save_cse t (ev : Regalloc.evicted) =
  match Cse.find t.cse ev.Regalloc.ev_cse with
  | None -> err "evicted register bound to unknown CSE %d" ev.Regalloc.ev_cse
  | Some entry ->
      append_instruction t ~note:(Spill entry.Cse.id)
        (Code_buffer.Fixed
           ((target t).Machine.Target.spill_store ~fp:entry.Cse.fp
              ~reg:ev.Regalloc.ev_reg ~dsp:entry.Cse.temp_dsp
              ~base:entry.Cse.temp_base));
      Cse.to_memory t.cse entry.Cse.id

(* -- register-pressure failures -------------------------------------------- *)

(* The messages below are built only on the raising path: each names the
   directive being served and the production (with its text) that
   triggered the exhaustion. *)

let prod_desc t prod =
  let g = t.tables.Tables.grammar in
  Fmt.str "production %d (%s)" prod
    (Grammar.prod_to_string g (Grammar.prod g prod))

let pressure_failure m =
  Trace.instant "regalloc.pressure" ~args:[ ("detail", m) ];
  Metrics.add m_pressure_failures 1

(* allocation with diagnosable failure: re-raise Pressure enriched with
   the directive and production that triggered the exhaustion *)
let alloc_for t ~prod directive cls =
  match Regalloc.alloc t.regs cls with
  | res -> res
  | exception Regalloc.Pressure m ->
      let directive =
        match directive with
        | `Using -> Fmt.str "using %a" Symtab.pp_reg_class cls
        | `Copy_on_write -> "modifies (copy-on-write)"
      in
      let m =
        Fmt.str "%s — while serving '%s' of %s" m directive (prod_desc t prod)
      in
      pressure_failure m;
      raise (Regalloc.Pressure m)

(* -- the reduction --------------------------------------------------------- *)

let push_token t sym reg =
  t.pushed <- { Driver.psym = sym; pvalue = Ifl.Value.Reg reg } :: t.pushed

let serve_need t ~prod ~remap (req : Template.need_req) =
  match Regalloc.need t.regs req.Template.n_class req.Template.n_reg with
  | Ok (None, None) -> ()
  | Error m ->
      let m =
        Fmt.str "%s — while serving 'need r%d' (%a) of %s" m req.Template.n_reg
          Symtab.pp_reg_class req.Template.n_class (prod_desc t prod)
      in
      pressure_failure m;
      err "%s" m
  | Ok (transfer, evicted) ->
      Option.iter (save_cse t) evicted;
      Option.iter
        (fun (tr : Regalloc.transfer) ->
          (* move the old contents and rebind the translation stack *)
          let bank = Regalloc.bank_of_class req.Template.n_class in
          append_instruction t
            ~note:(Transfer (tr.Regalloc.tr_from, tr.Regalloc.tr_to))
            (Code_buffer.Fixed
               ((target t).Machine.Target.reg_move ~fp:(bank = Regalloc.Fp)
                  ~dst:tr.Regalloc.tr_to ~src:tr.Regalloc.tr_from));
          remap (fun (tok : Driver.ptoken) ->
              match tok.Driver.pvalue with
              | Ifl.Value.Reg r
                when r = tr.Regalloc.tr_from
                     && tok.Driver.psym >= 0
                     && bank_of_sym t tok.Driver.psym = bank ->
                  { tok with Driver.pvalue = Ifl.Value.Reg tr.Regalloc.tr_to }
              | _ -> tok);
          Hashtbl.iter
            (fun _ (e : Cse.entry) ->
              match e.Cse.residence with
              | Cse.In_reg r when r = tr.Regalloc.tr_from ->
                  e.Cse.residence <- Cse.In_reg tr.Regalloc.tr_to
              | _ -> ())
            t.cse.Cse.entries)
        transfer

(* fill in a required value *)
let rec eval t (rhs : Driver.ptoken array) (s : Template.src) : int =
  match s with
  | Template.Stack k -> (
      match rhs.(k).Driver.pvalue with
      | Ifl.Value.Unit -> err "template references valueless RHS slot %d" k
      | v -> Ifl.Value.to_int v)
  | Template.Alloc i -> t.allocs.(i)
  | Template.Phys r -> r
  | Template.Lit n -> n
  | Template.Plus (s, k) -> eval t rhs s + k

let set_val t i v =
  if i >= Array.length t.vals then begin
    let vals = Array.make (2 * (i + 1)) 0 in
    Array.blit t.vals 0 vals 0 (Array.length t.vals);
    t.vals <- vals
  end;
  t.vals.(i) <- v

(* evaluate an instruction's operands into [t.vals], each operand's sub
   values before its base; returns the offset after the last *)
let rec eval_subs t rhs off = function
  | [] -> off
  | s :: rest ->
      set_val t off (eval t rhs s);
      eval_subs t rhs (off + 1) rest

let rec eval_operands t rhs off = function
  | [] -> ()
  | (o : Template.operand) :: rest ->
      let next = eval_subs t rhs (off + 1) o.Template.subs in
      set_val t off (eval t rhs o.Template.base);
      eval_operands t rhs next rest

(* how many RHS slots hold register [r] of [bank] *)
let claims t (rhs : Driver.ptoken array) bank r =
  let n = ref 0 in
  for i = 0 to Array.length rhs - 1 do
    match rhs.(i).Driver.pvalue with
    | Ifl.Value.Reg r' when r' = r -> (
        match Tables.class_of t.tables rhs.(i).Driver.psym with
        | Some cls when Regalloc.bank_of_class cls = bank -> incr n
        | _ -> ())
    | _ -> ()
  done;
  !n

let modifies t ~prod (c : Template.compiled) rhs (src : Template.src) =
  let cls = class_of_src t c rhs src in
  let bank = Regalloc.bank_of_class cls in
  (* Copy-on-write: the template is about to destroy the register in
     place.  If other live references exist (another RHS slot aliases it
     through a CSE, or the register still holds a CSE with pending uses),
     the production's own operand moves to a fresh register first. *)
  (match src with
  | Template.Stack k ->
      let r = eval t rhs src in
      if
        Regalloc.is_busy t.regs bank r
        && Regalloc.use_count t.regs bank r > claims t rhs bank r
      then begin
        let fresh, evicted = alloc_for t ~prod `Copy_on_write cls in
        Option.iter (save_cse t) evicted;
        append_instruction t ~note:Copy_on_write
          (Code_buffer.Fixed
             ((target t).Machine.Target.reg_move ~fp:(bank = Regalloc.Fp)
                ~dst:fresh ~src:r));
        rhs.(k) <- { (rhs.(k)) with Driver.pvalue = Ifl.Value.Reg fresh };
        Regalloc.release t.regs bank r
      end
  | _ -> ());
  let r = eval t rhs src in
  match Regalloc.touch t.regs bank r with
  | None -> ()
  | Some cse_id -> (
      match Cse.find t.cse cse_id with
      | Some entry when entry.Cse.remaining > 0 ->
          (* save the CSE before the register is clobbered; its remaining
             uses will reload from the temporary, so their share of the
             use count is dropped *)
          t.cse_invalidations <- t.cse_invalidations + 1;
          append_instruction t ~note:(Save_before_clobber cse_id)
            (Code_buffer.Fixed
               ((target t).Machine.Target.spill_store ~fp:entry.Cse.fp ~reg:r
                  ~dsp:entry.Cse.temp_dsp ~base:entry.Cse.temp_base));
          Cse.to_memory t.cse cse_id;
          Regalloc.drop_cse_shares t.regs bank r
      | Some _ ->
          t.cse_invalidations <- t.cse_invalidations + 1;
          Cse.to_memory t.cse cse_id
      | None -> ())

(* interpret step [i] of the production's template sequence *)
let step t ~prod (c : Template.compiled) rhs i (s : Template.step) =
  match s with
  | Template.Instr { ops; _ } -> (
      eval_operands t rhs 0 ops;
      match Tables.insn_builder t.tables prod i with
      | Ok build -> append_instruction t (Code_buffer.Fixed (build t.vals))
      | Error m -> err "%s" m)
  | Template.Modifies src -> modifies t ~prod c rhs src
  | Template.Ignore_lhs -> ()
  | Template.Label_location src ->
      append_data t (Code_buffer.Label_def (Code_buffer.User (eval t rhs src)))
  | Template.Label_ptr src ->
      append_data t (Code_buffer.Word_label (Code_buffer.User (eval t rhs src)))
  | Template.Branch { cond; lbl; idx } ->
      append_instruction t
        (Code_buffer.Branch_site
           {
             mask = eval t rhs cond;
             lbl = Code_buffer.User (eval t rhs lbl);
             idx = eval t rhs idx;
             x = 0;
           })
  | Template.Branch_indexed { cond; lbl; idx; index } ->
      append_instruction t
        (Code_buffer.Branch_site
           {
             mask = eval t rhs cond;
             lbl = Code_buffer.User (eval t rhs lbl);
             idx = eval t rhs idx;
             x = eval t rhs index;
           })
  | Template.Skip { cond; dist; idx } ->
      let lbl = Code_buffer.Internal t.next_internal in
      t.next_internal <- t.next_internal + 1;
      let d = eval t rhs dist in
      append_instruction t
        (Code_buffer.Branch_site
           { mask = eval t rhs cond; lbl; idx = eval t rhs idx; x = 0 });
      if d - 1 <= 0 then append_data t (Code_buffer.Label_def lbl)
      else t.open_skips <- (ref (d - 1), lbl) :: t.open_skips
  | Template.Case_load { reg; lbl; idx } ->
      append_instruction t
        (Code_buffer.Case_site
           {
             reg = eval t rhs reg;
             lbl = Code_buffer.User (eval t rhs lbl);
             idx = eval t rhs idx;
           })
  | Template.Push { sym; value } -> push_token t sym (eval t rhs value)
  | Template.Ibm_length src ->
      let v = eval t rhs src in
      if v < 1 || v > 256 then
        err "IBM_length: %d outside the machine's 1..256 range" v
  | Template.Stmt_record src ->
      t.stmt_records <-
        (eval t rhs src, Code_buffer.n_instructions t.buf) :: t.stmt_records
  | Template.List_request src ->
      t.list_requests <- eval t rhs src :: t.list_requests
  | Template.Abort src ->
      List.iter
        (fun i -> append_instruction t (Code_buffer.Fixed i))
        ((target t).Machine.Target.abort_insns ~errno:(eval t rhs src))
  | Template.Common { ty; fp; cse; cnt; reg; dsp; base } ->
      let id = eval t rhs cse and count = eval t rhs cnt in
      let r = eval t rhs reg in
      Cse.define t.cse ~id ~ty ~fp ~count ~reg:r ~temp_dsp:(eval t rhs dsp)
        ~temp_base:(eval t rhs base);
      let bank = if fp then Regalloc.Fp else Regalloc.Gp in
      Regalloc.retain ~count t.regs bank r;
      Regalloc.bind_cse ~shares:count t.regs bank r id
  | Template.Find_common { cse; fp = _; push_sym } -> (
      let id = eval t rhs cse in
      match Cse.find t.cse id with
      | None -> err "find_common: CSE %d was never defined" id
      | Some entry -> (
          Cse.consume t.cse id;
          match entry.Cse.residence with
          | Cse.In_reg r ->
              (* the reserved share becomes the stack reference the push
                 below retains *)
              t.cse_hits <- t.cse_hits + 1;
              Regalloc.consume_cse_share t.regs
                (if entry.Cse.fp then Regalloc.Fp else Regalloc.Gp)
                r;
              push_token t push_sym r
          | Cse.In_mem -> (
              t.cse_reloads <- t.cse_reloads + 1;
              match entry.Cse.ty with
              | None -> err "find_common: CSE %d has no reload type operator" id
              | Some ty ->
                  (* prefix the address of the temporary; the ordinary
                     load productions bring it back *)
                  t.pushed <-
                    { Driver.psym = t.reload_reg;
                      pvalue = Ifl.Value.Reg entry.Cse.temp_base }
                    :: { Driver.psym = t.reload_dsp;
                         pvalue = Ifl.Value.Int entry.Cse.temp_dsp }
                    :: Driver.ptok ty :: t.pushed)))

(* the [--explain] annotation of a reduction: the production and its
   register directives *)
let describe t ~prod (c : Template.compiled) =
  let g = t.tables.Tables.grammar in
  let dirs =
    Array.to_list
      (Array.map
         (fun (r : Template.alloc_req) ->
           Fmt.str "using %a" Symtab.pp_reg_class r.Template.a_class)
         c.Template.c_allocs)
    @ Array.to_list
        (Array.map
           (fun (r : Template.need_req) -> Fmt.str "need r%d" r.Template.n_reg)
           c.Template.c_needs)
  in
  Fmt.str "p%d %s%s" prod
    (Grammar.prod_to_string g (Grammar.prod g prod))
    (match dirs with [] -> "" | ds -> "  [" ^ String.concat "; " ds ^ "]")

(* liveness: a pushed register gains a reference *)
let rec retain_pushed t = function
  | [] -> ()
  | (tok : Driver.ptoken) :: rest ->
      (match tok.Driver.pvalue with
      | Ifl.Value.Reg r when tok.Driver.psym >= 0 ->
          Regalloc.retain t.regs (bank_of_sym t tok.Driver.psym) r
      | _ -> ());
      retain_pushed t rest

(** Code emission for one reduction.  Matches {!Driver.parse}'s [reduce]
    callback signature: the popped tokens arrive already interned, and
    every token pushed back carries its grammar id directly — the
    emission path never touches a symbol name.  The returned tokens are
    in reverse order of consumption, as {!Driver.parse} takes them.

    A reduction allocates the items it appends, the tokens it prefixes
    and the allocator's result pair per [using]; everything else lives
    in [t] and is reused. *)
let reduce (t : t) ~(prod : int) ~(rhs : Driver.ptoken array)
    ~(remap : (Driver.ptoken -> Driver.ptoken) -> unit) : Driver.ptoken list =
  let c =
    match Tables.compiled t.tables prod with
    | Some c -> c
    | None -> err "no compiled templates for production %d" prod
  in
  (* the production responsible for everything this reduction emits *)
  if t.explain then t.cur_origin <- describe t ~prod c;
  Regalloc.begin_reduction t.regs;
  t.pushed <- [];
  (* 1. allocate all requested registers *)
  let allocs = c.Template.c_allocs in
  if Array.length allocs > Array.length t.allocs then
    t.allocs <- Array.make (Array.length allocs) 0;
  for i = 0 to Array.length allocs - 1 do
    let reg, evicted = alloc_for t ~prod `Using allocs.(i).Template.a_class in
    (match evicted with Some ev -> save_cse t ev | None -> ());
    t.allocs.(i) <- reg
  done;
  let needs = c.Template.c_needs in
  for i = 0 to Array.length needs - 1 do
    serve_need t ~prod ~remap needs.(i)
  done;
  (* 2.-3. fill in required values while interpreting the template
     sequence *)
  let steps = c.Template.c_steps in
  for i = 0 to Array.length steps - 1 do
    step t ~prod c rhs i steps.(i)
  done;
  (* 4. prefix LHS to input stream *)
  (match c.Template.c_push with
  | Some { push_sym; push_src } -> push_token t push_sym (eval t rhs push_src)
  | None ->
      let g = t.tables.Tables.grammar in
      if (Grammar.prod g prod).Grammar.lhs = g.Grammar.lambda then
        t.pushed <- Driver.ptok g.Grammar.lambda :: t.pushed);
  (* 5. liveness: retain pushed registers, then release consumed RHS
     occurrences and the scratch allocations *)
  retain_pushed t t.pushed;
  for k = 0 to Array.length rhs - 1 do
    match rhs.(k).Driver.pvalue with
    | Ifl.Value.Reg r ->
        Regalloc.release t.regs (bank_of_sym t rhs.(k).Driver.psym) r
    | _ -> ()
  done;
  for i = 0 to Array.length allocs - 1 do
    Regalloc.release_covered t.regs allocs.(i).Template.a_class t.allocs.(i)
  done;
  for i = 0 to Array.length needs - 1 do
    Regalloc.release t.regs
      (Regalloc.bank_of_class needs.(i).Template.n_class)
      needs.(i).Template.n_reg
  done;
  t.pushed

(** Finish the module, named ["MAIN"]: resolve labels and branches and
    emit loader records. *)
let finish (t : t) : (Machine.Objmod.t * Loader_gen.resolved, string) result =
  if t.open_skips <> [] then Error "unterminated skip at end of module"
  else Loader_gen.to_objmod ~name:"MAIN" ~target:(target t) t.buf

let listing (t : t) = Code_buffer.to_listing t.buf

(** The listing with every item annotated with the production (and its
    [using]/[need] directives) whose reduction emitted it — the paper's
    syntax-directed translation made visible.  Meaningful only on an
    emitter created with [~explain:true]. *)
let explanation (t : t) : string =
  let items = Code_buffer.items t.buf in
  let origins = List.rev t.origins in
  let b = Buffer.create 4096 in
  let rec go items origins =
    match (items, origins) with
    | [], _ -> ()
    | item :: items, origin :: origins ->
        Buffer.add_string b
          (Fmt.str "%-44s ; %s" (Fmt.str "%a" Code_buffer.pp_item item) origin);
        Buffer.add_char b '\n';
        go items origins
    | item :: items, [] ->
        (* unreachable when explain was on from creation; stay total *)
        Buffer.add_string b (Fmt.str "%a" Code_buffer.pp_item item);
        Buffer.add_char b '\n';
        go items []
  in
  go items origins;
  Buffer.contents b
