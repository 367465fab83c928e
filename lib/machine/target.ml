(** Per-target machine substrate.

    Bird's thesis is that retargeting the code generator "merely requires
    a rewriting of the templates": the tables are built from a new spec
    file and the table-driven emission routine stays unchanged.  The parts
    that {e cannot} come from the spec — the opcode/format tables, the
    instruction builder, the branch-site resolution model, the simulator
    and its runtime support traps — are collected in this record, one
    value per machine.  Everything above [lib/machine] (template
    compilation, the emitter, the loader, the pipeline) is parameterized
    by a [Target.t] and never mentions a concrete instruction set.

    See {!Amdahl} and {!Risc32} for the two substrates, and {!Targets}
    for the name -> (spec path, substrate) registry. *)

(** How label references inside the code buffer are resolved:
    - [Span_dependent]: branches have a short form with a limited
      displacement and a long form through a literal pool; sizing is a
      fixpoint (the 370 model).
    - [Pc_relative]: every branch is one fixed-width pc-relative
      instruction; sizing is a single pass (the RISC-32 model). *)
type site_model = Span_dependent | Pc_relative

(** Where an instruction builder finds each operand's values: operand
    [k]'s base value at [offsets.(k)] of the evaluated-operand array,
    its [nsubs.(k)] sub values right after it, operand after operand. *)
type operands = { nsubs : int array; offsets : int array }

let operands (nsubs : int list) : operands =
  let nsubs = Array.of_list nsubs in
  let offsets = Array.make (Array.length nsubs) 0 in
  for k = 1 to Array.length nsubs - 1 do
    offsets.(k) <- offsets.(k - 1) + 1 + nsubs.(k - 1)
  done;
  { nsubs; offsets }

(** The offset of operand [k], which must be written without
    sub-operands; raises [Failure] otherwise. *)
let plain (o : operands) ~mnem k =
  if k < Array.length o.nsubs && o.nsubs.(k) = 0 then o.offsets.(k)
  else Fmt.failwith "%s: operand %d shape mismatch at emission" mnem (k + 1)

(** The offsets of a storage operand's displacement, index and base
    ([-1] for an index or base not written; see {!value}), or [None]
    when operand [k] is missing or has more than two sub-operands. *)
let memop (o : operands) k : (int * int * int) option =
  if k >= Array.length o.nsubs then None
  else
    let d = o.offsets.(k) in
    match o.nsubs.(k) with
    | 0 -> Some (d, -1, -1)
    | 1 -> Some (d, -1, d + 1)
    | 2 -> Some (d, d + 1, d + 2)
    | _ -> None

(** The value at an offset, 0 for an operand part not written ([-1]). *)
let value (vals : int array) i = if i < 0 then 0 else vals.(i)

type t = {
  name : string;  (** registry key, e.g. "amdahl470" *)
  spec_file : string;  (** spec path relative to the repo root *)
  is_mnemonic : string -> bool;
      (** does this target's opcode table define the mnemonic? *)
  validate : mnem:string -> nsubs:int list -> (unit, string) result;
      (** shape-check a template instruction at table-construction time:
          [nsubs] lists, per written operand, its sub-operand count *)
  insn_builder :
    mnem:string -> nsubs:int list -> (int array -> Insn.t, string) result;
      (** resolve a template instruction once (same shape as [validate]
          accepted): the builder makes the symbolic instruction from the
          operand values evaluated at emission time, laid out as
          {!operands} describes, and allocates nothing else *)
  site_model : site_model;
  spill_store : fp:bool -> reg:int -> dsp:int -> base:int -> Insn.t;
      (** store an evicted CSE register to its temporary *)
  reg_move : fp:bool -> dst:int -> src:int -> Insn.t;
      (** register-to-register copy (need transfers, copy-on-write) *)
  abort_insns : errno:int -> Insn.t list;
      (** the [abort] semop: pass [errno] to the runtime abort routine *)
  boot : ?layout:Runtime.layout -> Objmod.t -> (Sim.t * int, string) result;
      (** create a simulator, install the PSA and traps, load the module *)
  run :
    ?max_steps:int ->
    ?layout:Runtime.layout ->
    Sim.t ->
    entry:int ->
    (Runtime.outcome, string) result;
      (** run a booted program to completion *)
}
