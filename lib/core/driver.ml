(** The skeletal LR parser driving the generated code generator
    (paper section 3).

    The parser consumes the linearized IF.  On a reduction it calls the
    code emission routine, which returns the tokens to prefix back onto
    the input stream (normally the production's LHS bound to the result
    register; possibly a converted odd register or a CSE's location).
    Because non-terminal tokens are shifted like any others, no separate
    GOTO table exists.

    "If the specification of the code generator is correct, then the code
    generator cannot emit incorrect instruction sequences.  Instead it
    will stop and signal an error." — a [Parse_error] result carries the
    state and offending token.

    The driver is generic over its action source: [`Comb] (the default)
    probes the comb-packed table carried in {!Tables.t} via
    {!Compress.dispatcher}; [`Flat] indexes the uncompressed
    [action array array] ({!Tables.actions}).  Both run the same
    skeleton; on well-formed IF they take identical actions (default
    reductions only ever replace error entries, so they can delay —
    never lose — error detection).

    {b Hot path memory discipline.}  The inner loop works on {e prepared}
    tokens ({!ptoken}): the input stream is resolved in one pass at parse
    start — each token's [sym] string interned to its {!Grammar.sym} id,
    the kind/class coercions applied and the value discipline checked
    once — so a shift costs two array writes and an integer table probe:
    no string hashing, no record allocation.  The emission routine trades
    in the same representation, so reduction-prefixed tokens re-enter the
    stream already interned; a reduction hands it the popped tokens in an
    array the driver reuses, and takes its tokens back in the order the
    emitter built them. *)

type dispatch = Flat | Comb

(** A prepared IF token: the grammar symbol id (interned once, at stream
    preparation or by the emitter) and the coerced attribute value.  The
    inner loop never touches a symbol {e name}. *)
type ptoken = { psym : Grammar.sym; pvalue : Ifl.Value.t }

let ptok ?(value = Ifl.Value.Unit) sym = { psym = sym; pvalue = value }

type error = {
  position : int;
      (** index into the {e original} input of the offending token (the
          next original token still unconsumed when the parse blocked).
          Reduction-prefixed tokens do not advance it, so Flat and Comb
          dispatch agree on it even when default reductions delay the
          detection. *)
  state : int;
  token : Ifl.Token.t option;  (** [None] at end of input *)
  msg : string;
  expected : string list;
      (** symbols with an action in the blocked state, capped at 13
          entries during construction (the printer shows 12) *)
  bogus_reductions : int;
      (** reductions taken since the last {e original} input token was
          consumed: under Comb dispatch, how far default reductions
          (and the synthetic shifts they interleave) ran past the point
          where Flat dispatch would have stopped *)
}

let pp_error ppf e =
  Fmt.pf ppf "code generation blocked at input token %d%a in state %d: %s"
    e.position
    (Fmt.option (fun ppf t -> Fmt.pf ppf " (%a)" Ifl.Token.pp t))
    e.token e.state e.msg;
  if e.bogus_reductions > 0 then
    Fmt.pf ppf " (after %d speculative reduction%s)" e.bogus_reductions
      (if e.bogus_reductions = 1 then "" else "s");
  match e.expected with
  | [] -> ()
  | xs ->
      (* one traversal: [expected] is capped at 13 during construction,
         so more than 12 entries means "...and more" *)
      let rec take n = function
        | [] -> []
        | _ :: _ when n = 0 -> [ "..." ]
        | x :: tl -> x :: take (n - 1) tl
      in
      Fmt.pf ppf "@.expected one of: %s" (String.concat ", " (take 12 xs))

type outcome = {
  reductions : int;
  shifts : int;
  max_stack : int;
}

(* observability counters, flushed once per parse from the local
   statistics the hot loop already keeps (never bumped per token) *)
let m_parses = Metrics.sum "driver.parses"
let m_shifts = Metrics.sum "driver.shifts"
let m_reductions = Metrics.sum "driver.reductions"
let m_errors = Metrics.sum "driver.errors"
let m_delayed = Metrics.sum "driver.delayed_error_runs"
let m_max_stack = Metrics.high_water "driver.max_stack"
let m_prepared = Metrics.sum "driver.prepared_tokens"

(* A growable stack kept as an array plus a fill pointer; the hot path
   is push/pop at the top, plus the occasional in-place [remap] sweep
   over the live prefix. *)

let grow arr n ~dummy =
  let cap = Array.length arr in
  if n <= cap then arr
  else begin
    let narr = Array.make (max n (2 * cap)) dummy in
    Array.blit arr 0 narr 0 cap;
    narr
  end

(* Delayed error detection (comb dispatch with default reductions) can
   take a bounded run of bogus reductions before blocking; this cap turns
   a hypothetical reduction livelock on malformed IF into a clean parse
   error instead of a hang. *)
let max_reductions_between_shifts = 100_000

(* the stack-bottom dummy; never examined by the action lookup *)
let bottom = { psym = min_int; pvalue = Ifl.Value.Unit }

(** [parse ?dispatch tables ~reduce input] runs the table-driven parse.

    [reduce ~prod ~rhs ~remap] is the code emission routine: [rhs] holds
    the popped translation-stack tokens; [remap] lets the emitter rewrite
    register bindings on the live stack and pending input (needed when a
    [need] directive transfers a busy register); the returned tokens are
    prefixed to the input, the last element consumed first (the order
    an emitter conses them in), and must carry interned symbol ids.
    [rhs] is the driver's own array for that length, refilled at every
    reduction: the callback may write its slots but must not keep it. *)
let parse ?(dispatch = Comb) (tables : Tables.t)
    ~(reduce :
       prod:int ->
       rhs:ptoken array ->
       remap:((ptoken -> ptoken) -> unit) ->
       ptoken list) (input : Ifl.Token.t list) : (outcome, error) result =
  let g = tables.Tables.grammar in
  let n_syms = Grammar.n_syms g in
  (* the action source, as encoded entries (Compress encoding); the comb
     path reads the packed cells in place, the flat path encodes the
     variant (both allocation-free).  Only flat dispatch and the error
     report below use the dense rows, so a comb parse of well-formed IF
     never decodes them. *)
  let lookup : int -> int -> int =
    match dispatch with
    | Comb -> Compress.dispatcher tables.Tables.compressed
    | Flat ->
        let actions = Tables.actions tables in
        fun state sym -> Compress.encode_action actions.(state).(sym)
  in
  (* -- stream preparation ------------------------------------------------
     Tokens that fail interning or the value discipline become negative
     [psym] indices into [bad]; the parse only reports them when the
     skeleton actually reaches them, exactly as the per-step checks did. *)
  let bad : (Ifl.Token.t * string) list ref = ref [] in
  let n_bad = ref 0 in
  let bad_ptok tok msg =
    bad := (tok, msg) :: !bad;
    incr n_bad;
    { psym = - !n_bad; pvalue = tok.Ifl.Token.value }
  in
  let bad_entry k = List.nth !bad (!n_bad - 1 - k) in
  (* shaper convenience: integer-valued tokens are coerced to the kind
     the grammar symbol declares (register binding, label, CSE number,
     condition mask); then the value discipline is checked: terminals
     must carry the declared value kind, register non-terminals a
     register.  Applied once per token, at preparation. *)
  (* returns the coerced value plus the discipline violation, if any (the
     error report carries the coerced token, as the per-step checks did) *)
  let coerce_check sym (value : Ifl.Value.t) : Ifl.Value.t * string option =
    let value =
      match (Tables.class_of tables sym, value) with
      | ( Some (Symtab.Gpr | Symtab.Pair | Symtab.Fpr | Symtab.Fpair),
          Ifl.Value.Int n ) ->
          Ifl.Value.Reg n
      | _ -> (
          match (Tables.kind_of tables sym, value) with
          | Some Symtab.Klabel, Ifl.Value.Int n -> Ifl.Value.Label n
          | Some Symtab.Kcse, Ifl.Value.Int n -> Ifl.Value.Cse n
          | Some Symtab.Kcond, Ifl.Value.Int n -> Ifl.Value.Cond n
          | _ -> value)
    in
    let kind_ok =
      match (Tables.kind_of tables sym, value) with
      | Some Symtab.Kint, (Ifl.Value.Int _ | Ifl.Value.Unit) -> true
      | Some Symtab.Klabel, Ifl.Value.Label _ -> true
      | Some Symtab.Kcse, Ifl.Value.Cse _ -> true
      | Some Symtab.Kcond, Ifl.Value.Cond _ -> true
      | Some _, _ -> false
      | None, _ -> true
    in
    let class_ok =
      (* the binding must also name a real machine register of the
         class: the allocator's banks are 16 general and 8 floating
         registers, and pair classes cover a partner register too *)
      match (Tables.class_of tables sym, value) with
      | Some Symtab.Gpr, Ifl.Value.Reg r -> r >= 0 && r <= 15
      | Some Symtab.Pair, Ifl.Value.Reg r -> r >= 0 && r <= 14
      | Some Symtab.Fpr, Ifl.Value.Reg r -> r >= 0 && r <= 7
      | Some Symtab.Fpair, Ifl.Value.Reg r -> r >= 0 && r <= 5
      (* a register payload on a class-less symbol is still released
         into the general bank at reduction time, so it must be a real
         register number *)
      | (Some (Symtab.Cc | Symtab.Noclass) | None), Ifl.Value.Reg r ->
          r >= 0 && r <= 15
      | Some (Symtab.Cc | Symtab.Noclass), _ -> true
      | Some _, _ -> false
      | None, _ -> true
    in
    if not kind_ok then
      (value, Some "token value does not match the terminal's declared kind")
    else if not class_ok then
      ( value,
        Some
          (match value with
          | Ifl.Value.Reg _ -> "register binding out of machine range"
          | _ -> "register non-terminal token without a register binding") )
    else (value, None)
  in
  let prepare (tok : Ifl.Token.t) : ptoken =
    match Grammar.sym g tok.Ifl.Token.sym with
    | None -> bad_ptok tok "symbol is not part of the machine grammar"
    | Some sym -> (
        match coerce_check sym tok.Ifl.Token.value with
        | v, None -> { psym = sym; pvalue = v }
        | v, Some msg -> bad_ptok { tok with Ifl.Token.value = v } msg)
  in
  (* the original stream, prepared in input order in a single pass; the
     cursor below is also the reported error [position] *)
  let orig = ref (Array.make 64 bottom) in
  let n_orig = ref 0 in
  let push_orig p =
    if !n_orig = Array.length !orig then
      orig := grow !orig (!n_orig + 1) ~dummy:bottom;
    !orig.(!n_orig) <- p;
    incr n_orig
  in
  List.iter (fun tok -> push_orig (prepare tok)) input;
  push_orig { psym = g.Grammar.eof; pvalue = Ifl.Value.Unit };
  let cursor = ref 0 in
  (* reduction-prefixed tokens, a stack with the next token on top;
     consuming an original requires this to be empty, so the reported
     position indexes the caller's input, not the mutated stream *)
  let pre = ref (Array.make 64 bottom) in
  let pre_n = ref 0 in
  let push_pre p =
    if !pre_n = Array.length !pre then pre := grow !pre (!pre_n + 1) ~dummy:bottom;
    !pre.(!pre_n) <- p;
    incr pre_n
  in
  (* prefixed tokens arrive interned but still get the one-time coercion
     and discipline check (no hashing; emitters normally push well-formed
     register bindings, so this is two array reads per token) *)
  let prepare_prefixed (p : ptoken) : ptoken =
    if p.psym < 0 || p.psym >= n_syms then
      bad_ptok
        { Ifl.Token.sym = "<uninterned>"; value = p.pvalue }
        "symbol is not part of the machine grammar"
    else
      match coerce_check p.psym p.pvalue with
      | v, None -> if v == p.pvalue then p else { p with pvalue = v }
      | v, Some msg ->
          bad_ptok { Ifl.Token.sym = Grammar.name g p.psym; value = v } msg
  in
  (* a reduction's tokens arrive the one consumed last first, so pushing
     them in list order leaves the first on top *)
  let rec push_prefixed = function
    | [] -> ()
    | p :: rest ->
        push_pre (prepare_prefixed p);
        push_prefixed rest
  in
  (* the translation/parse stack: parallel state/token arrays *)
  let states = ref (Array.make 64 0) in
  let toks = ref (Array.make 64 bottom) in
  let sp = ref 0 in
  let push state tok =
    if !sp = Array.length !states then begin
      states := grow !states (!sp + 1) ~dummy:0;
      toks := grow !toks (!sp + 1) ~dummy:bottom
    end;
    !states.(!sp) <- state;
    !toks.(!sp) <- tok;
    incr sp
  in
  push tables.Tables.start bottom;
  (* one [rhs] array per right-hand-side length, refilled at every
     reduction of that length (the emitter keeps none of them) *)
  let rhs_bufs = Array.make (Lr0.max_rhs + 1) [||] in
  let rhs_of n =
    if n > Lr0.max_rhs then Array.make n bottom
    else if Array.length rhs_bufs.(n) = n then rhs_bufs.(n)
    else begin
      let b = Array.make n bottom in
      rhs_bufs.(n) <- b;
      b
    end
  in
  let shifts = ref 0 and reductions = ref 0 and max_stack = ref 1 in
  let reduce_run = ref 0 in
  let flush_metrics ~failed =
    if Metrics.enabled () then begin
      Metrics.add m_parses 1;
      Metrics.add m_prepared !n_orig;
      Metrics.add m_shifts !shifts;
      Metrics.add m_reductions !reductions;
      Metrics.peak m_max_stack !max_stack;
      if failed then begin
        Metrics.add m_errors 1;
        if !reduce_run > 0 then Metrics.add m_delayed 1
      end
    end
  in
  let remap f =
    for i = 0 to !sp - 1 do
      !toks.(i) <- f !toks.(i)
    done;
    for i = 0 to !pre_n - 1 do
      !pre.(i) <- f !pre.(i)
    done;
    for i = !cursor to !n_orig - 1 do
      !orig.(i) <- f !orig.(i)
    done
  in
  let fail state token msg =
    (* cap the expected-symbols list during construction: the printer
       shows at most 12, so anything past 13 is never observable *)
    let expected =
      let row = (Tables.actions tables).(state) in
      let acc = ref [] and count = ref 0 and s = ref 0 in
      while !count < 13 && !s < n_syms do
        if
          row.(!s) <> Parse_table.Error
          && g.Grammar.in_if.(!s)
        then begin
          acc := Grammar.name g !s :: !acc;
          incr count
        end;
        incr s
      done;
      List.rev !acc
    in
    flush_metrics ~failed:true;
    Trace.instant "driver.error"
      ~args:[ ("state", string_of_int state); ("position", string_of_int !cursor) ];
    Error
      {
        position = !cursor;
        state;
        token;
        msg;
        expected;
        bogus_reductions = !reduce_run;
      }
  in
  let rec loop () =
    let state = !states.(!sp - 1) in
    if !pre_n = 0 && !cursor >= !n_orig then
      fail state None "input exhausted without accept"
    else
      let from_pre = !pre_n > 0 in
      let tok = if from_pre then !pre.(!pre_n - 1) else !orig.(!cursor) in
      if tok.psym < 0 then
        let t, msg = bad_entry (-tok.psym - 1) in
        fail state (Some t) msg
      else
        (* encoded entry: 0 error, 1 accept, even shift, odd reduce *)
        let v = lookup state tok.psym in
        if v = 0 then
          fail state
            (Some { Ifl.Token.sym = Grammar.name g tok.psym; value = tok.pvalue })
            "no action (invalid IF for this machine grammar)"
        else if v = 1 then begin
          flush_metrics ~failed:false;
          Ok { reductions = !reductions; shifts = !shifts; max_stack = !max_stack }
        end
        else if v land 1 = 0 then begin
          (* shift: two array writes, no allocation *)
          push ((v - 2) / 2) tok;
          if from_pre then decr pre_n
          else begin
            (* an original input token, not a reduction-prefixed one;
               consuming it also ends any speculative reduction run
               (synthetic LHS shifts interleave default-reduction runs,
               so resetting on every shift would undercount the
               speculation) *)
            incr cursor;
            reduce_run := 0
          end;
          incr shifts;
          if !sp > !max_stack then max_stack := !sp;
          loop ()
        end
        else begin
          (* reduce *)
          let p = (v - 3) / 2 in
          incr reductions;
          incr reduce_run;
          if !reduce_run > max_reductions_between_shifts then
            fail state
              (Some { Ifl.Token.sym = Grammar.name g tok.psym; value = tok.pvalue })
              "reduction livelock (invalid IF)"
          else begin
            let prod = Grammar.prod g p in
            let n = Array.length prod.Grammar.rhs in
            if n > !sp - 1 then
              (* only reachable through delayed error detection *)
              fail state
                (Some { Ifl.Token.sym = Grammar.name g tok.psym; value = tok.pvalue })
                "translation stack underflow (invalid IF)"
            else begin
              let base = !sp - n in
              let rhs = rhs_of n in
              Array.blit !toks base rhs 0 n;
              sp := base;
              push_prefixed
                (if Tables.is_user_prod tables p then
                   reduce ~prod:p ~rhs ~remap
                 else
                   (* augmentation production: prefix the bare LHS *)
                   [ { psym = prod.Grammar.lhs; pvalue = Ifl.Value.Unit } ]);
              loop ()
            end
          end
        end
  in
  loop ()
