(** The complete table bundle produced by CoGG: the driving tables for the
    skeletal parser plus the compiled templates and the type information
    the runtime needs (paper section 2).

    A comb-dispatched compile reads only the runtime part: grammar,
    symbols, start state, comb, templates and type info.  The dense
    action rows, the conflict log and the automaton's states are each a
    {!section}: a value from a build, or the bytes of a loaded bundle
    decoded the first time something asks. *)

type 'a section = {
  value : 'a Once.t;
  encoded : (string * int * int) option;
      (** the bundle bytes [value] decodes from (buffer, offset,
          length), kept so a writer copies them instead of encoding the
          value again *)
}

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
  rows : Parse_table.action array array section;
      (** the dense action table, state x symbol: flat dispatch, the
          driver's expected-symbol report and table statistics *)
  conflict_log : Parse_table.conflict list section;
  states : Lr0.state array section;
      (** full from a build; skeletal (ids only) from a bundle, which is
          all the driver needs *)
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

let section v = { value = Once.of_value v; encoded = None }

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

let force s = Once.force s.value

(** The tables of a fresh build. *)
let make ~target ~grammar ~symtab ~(parse : Parse_table.t) ~compressed
    ~compiled ~n_user_prods ~class_of ~kind_of ~hashes =
  let automaton = parse.Parse_table.automaton in
  {
    target;
    grammar;
    symtab;
    start = automaton.Lr0.start;
    compressed;
    compiled;
    n_user_prods;
    class_of;
    kind_of;
    rows = section parse.Parse_table.actions;
    conflict_log = section parse.Parse_table.conflicts;
    states = section automaton.Lr0.states;
    hashes;
    builders = builders_of target compiled;
  }

let n_states t = t.compressed.Compress.n_states
let actions t = force t.rows
let conflicts t = force t.conflict_log

(** The full parse table; decodes whatever of it was not used yet. *)
let parse t : Parse_table.t =
  {
    Parse_table.grammar = t.grammar;
    automaton =
      { Lr0.grammar = t.grammar; states = force t.states; start = t.start };
    actions = actions t;
    conflicts = conflicts t;
  }

let class_of t sym = t.class_of.(sym)
let kind_of t sym = t.kind_of.(sym)

let is_user_prod t p = p < t.n_user_prods

let compiled t p =
  if p < Array.length t.compiled then t.compiled.(p) else None

(** The builder for step [step] of production [prod]'s templates, which
    must be an [Instr] step. *)
let insn_builder t prod step = (Once.force t.builders.(prod)).(step)
