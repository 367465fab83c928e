(** The complete table bundle produced by CoGG: the driving tables for the
    skeletal parser plus the compiled templates and the type information
    the runtime needs (paper section 2).

    A comb-dispatched compile reads only the runtime part: grammar,
    symbols, start state, comb, templates and type info.  The automaton,
    the dense action rows and the conflict log are one {!Parse_table.t}:
    a build's own, or, for a loaded bundle, rebuilt from the grammar the
    first time something asks. *)

type t = {
  target : Machine.Target.t;
      (** the machine substrate this bundle's templates emit for *)
  grammar : Grammar.t;
  symtab : Symtab.t;
  start : int;  (** the automaton's start state *)
  compressed : Compress.t;
      (** the comb-packed (defaults + row displacement) form of the
          action table, built once at table-construction time; the
          driver's default dispatch path probes this representation *)
  compiled : Template.compiled option array;
      (** per production id; [None] for the augmentation productions *)
  n_user_prods : int;
  class_of : Symtab.reg_class option array;  (** by grammar symbol *)
  kind_of : Symtab.value_kind option array;  (** by grammar symbol *)
  parse_table : Parse_table.t Once.t;
      (** the automaton, the dense action table (state x symbol) and the
          conflict log: flat dispatch, the driver's expected-symbol
          report, table statistics, {!Depmap} and [coggc] read them.
          Not part of the bundle: a loaded one rebuilds them from
          [grammar] on first use ({!of_grammar}) *)
  hashes : Spec_hash.t;
      (** per-production content hashes of the spec this bundle was
          built from — the partial-build state an incremental rebuild
          diffs against *)
  builders : (int array -> Machine.Insn.t, string) result array Once.t array;
      (** per production, per template step: the target's builder for
          an [Instr] step, resolved the first time a compile reduces the
          production and shared by every compile after it; not part of
          the bundle, and derived from [compiled] by {!builders_of},
          which every record with new templates must call again *)
}

(* what {!insn_builder} holds for a step that is not an instruction *)
let not_an_instruction = Error "not an instruction step"

(** The [builders] field for these templates: one [Once.t] per
    production, so a compile resolves only the productions it reduces. *)
let builders_of (target : Machine.Target.t)
    (compiled : Template.compiled option array) =
  Array.map
    (fun c ->
      Once.make (fun () ->
          match c with
          | None -> [||]
          | Some (c : Template.compiled) ->
              Array.map
                (function
                  | Template.Instr { mnem; ops } ->
                      target.Machine.Target.insn_builder ~mnem
                        ~nsubs:
                          (List.map
                             (fun (o : Template.operand) ->
                               List.length o.Template.subs)
                             ops)
                  | _ -> not_an_instruction)
                c.Template.c_steps))
    compiled

(** The [parse_table] field of a loaded bundle: the SLR(1) table of
    [grammar], built on first use.  The construction is deterministic,
    so it is the table the bundle's writer built; it cannot raise on a
    grammar {!Tables_io} accepted. *)
let of_grammar grammar =
  Once.make (fun () -> Parse_table.build (Lr0.build grammar))

(** The tables of a fresh build. *)
let make ~target ~grammar ~symtab ~(parse : Parse_table.t) ~compressed
    ~compiled ~n_user_prods ~class_of ~kind_of ~hashes =
  {
    target;
    grammar;
    symtab;
    start = parse.Parse_table.automaton.Lr0.start;
    compressed;
    compiled;
    n_user_prods;
    class_of;
    kind_of;
    parse_table = Once.of_value parse;
    hashes;
    builders = builders_of target compiled;
  }

let n_states t = t.compressed.Compress.n_states

(** The full parse table; rebuilt from the grammar if it was not used
    yet. *)
let parse t = Once.force t.parse_table

let actions t = (parse t).Parse_table.actions
let conflicts t = (parse t).Parse_table.conflicts

let class_of t sym = t.class_of.(sym)
let kind_of t sym = t.kind_of.(sym)

let is_user_prod t p = p < t.n_user_prods

let compiled t p =
  if p < Array.length t.compiled then t.compiled.(p) else None

(** The builder for step [step] of production [prod]'s templates, which
    must be an [Instr] step. *)
let insn_builder t prod step = (Once.force t.builders.(prod)).(step)
