(** The generated code generator, assembled: tables + skeletal parser +
    code emission + loader record generation, end to end. *)

type result_t = {
  objmod : Machine.Objmod.t;  (** loader records for the module *)
  resolved : Loader_gen.resolved;  (** final code image and label map *)
  listing : string;  (** assembly-style listing (Appendix-1 format) *)
  outcome : Driver.outcome;  (** parse statistics *)
  alloc_stats : Regalloc.stats;  (** register allocation statistics *)
  n_items : int;  (** code-buffer entries before resolution *)
  explanation : string option;
      (** with [~explain:true]: the listing annotated per instruction
          with the production and directives that emitted it *)
}

type error =
  | Parse_error of Driver.error
      (** the IF is not in the machine grammar's language *)
  | Emit_failure of string  (** a semantic operator failed at emission *)
  | Resolve_failure of string  (** label/branch resolution failed *)

val pp_error : Format.formatter -> error -> unit

val generate :
  ?strategy:Regalloc.strategy ->
  ?dispatch:Driver.dispatch ->
  ?explain:bool ->
  ?on_reduce:(int -> unit) ->
  Tables.t ->
  Ifl.Token.t list ->
  (result_t, error) result
(** Generate code for a linearized IF program, as the module ["MAIN"].
    [strategy] selects the register allocation policy (default LRU);
    [dispatch] the parse-table representation the driver probes (default
    comb; flat is the reference the fuzz dispatch oracle compares it
    with); [explain] (default false) additionally records, per emitted
    item, the production and directives responsible, surfaced as
    [explanation]; [on_reduce] is called with each production id as it
    fires, before emission (the production-coverage hook). *)

val generate_string :
  ?strategy:Regalloc.strategy ->
  ?dispatch:Driver.dispatch ->
  ?explain:bool ->
  Tables.t ->
  string ->
  (result_t, string) result
(** Convenience: parse the textual IF syntax and generate. *)
