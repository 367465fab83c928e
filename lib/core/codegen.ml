(** The generated code generator, assembled: tables + skeletal parser +
    code emission + loader record generation, end to end. *)

type result_t = {
  objmod : Machine.Objmod.t;
  resolved : Loader_gen.resolved;
  listing : string;
  outcome : Driver.outcome;
  alloc_stats : Regalloc.stats;
  n_items : int;
  explanation : string option;
      (** with [~explain:true]: the listing annotated per instruction
          with the production and directives that emitted it *)
}

let m_compiles = Metrics.sum "codegen.compiles"

type error =
  | Parse_error of Driver.error
  | Emit_failure of string
  | Resolve_failure of string

let pp_error ppf = function
  | Parse_error e -> Driver.pp_error ppf e
  | Emit_failure m -> Fmt.pf ppf "code emission failed: %s" m
  | Resolve_failure m -> Fmt.pf ppf "loader record generation failed: %s" m

(** Generate code for a linearized IF program. *)
let generate ?(name = "MAIN") ?(strategy = Regalloc.Lru) ?dispatch ?reload_dsp
    ?reload_reg ?(explain = false) ?on_reduce (tables : Tables.t)
    (input : Ifl.Token.t list) : (result_t, error) result =
  let emitter = Emit.create ~strategy ?reload_dsp ?reload_reg ~explain tables in
  let reduce =
    match on_reduce with
    | None -> Emit.reduce emitter
    | Some f ->
        fun ~prod ~rhs ~remap ->
          f prod;
          Emit.reduce emitter ~prod ~rhs ~remap
  in
  let result =
    match Driver.parse ?dispatch tables ~reduce input with
    | Error e -> Error (Parse_error e)
    | exception Emit.Emit_error m -> Error (Emit_failure m)
    | exception Regalloc.Pressure m -> Error (Emit_failure m)
    | Ok outcome -> (
        match Emit.finish ~name emitter with
        | Error m -> Error (Resolve_failure m)
        | Ok (objmod, resolved) ->
            Ok
              {
                objmod;
                resolved;
                listing = Emit.listing emitter;
                outcome;
                alloc_stats = Emit.stats emitter;
                n_items = Code_buffer.length emitter.Emit.buf;
                explanation =
                  (if explain then Some (Emit.explanation emitter) else None);
              })
  in
  Metrics.add m_compiles 1;
  Emit.flush_metrics emitter;
  result

(** Convenience: parse the textual IF syntax and generate. *)
let generate_string ?name ?strategy ?dispatch ?reload_dsp ?reload_reg ?explain
    tables text : (result_t, string) result =
  match Ifl.Reader.program_of_string text with
  | Error m -> Error m
  | Ok tokens -> (
      match
        generate ?name ?strategy ?dispatch ?reload_dsp ?reload_reg ?explain
          tables tokens
      with
      | Ok r -> Ok r
      | Error e -> Error (Fmt.str "%a" pp_error e))
