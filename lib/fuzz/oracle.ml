(** The three differential oracles, plus the totality check used by the
    malformed-input sweep.

    Every oracle returns a {!status}; [Crash] — an exception escaping
    the pipeline — is always a bug, whatever the input was. *)

type status =
  | Pass
  | Skip of string  (** the reference itself rejects the input *)
  | Fail of string  (** oracle mismatch: the bug signal *)
  | Crash of string  (** escaped exception: always a bug *)

let pp_status ppf = function
  | Pass -> Fmt.string ppf "pass"
  | Skip m -> Fmt.pf ppf "skip (%s)" m
  | Fail m -> Fmt.pf ppf "FAIL: %s" m
  | Crash m -> Fmt.pf ppf "CRASH: %s" m

let is_finding = function Fail _ | Crash _ -> true | Pass | Skip _ -> false

(** Shrinker key: a candidate input "fails the same way" iff its
    [failure_key] matches the original's.  The key folds in the failure
    category (the prefix before the first [':'] of the detail) so the
    shrinker cannot drift from, say, an output mismatch onto a program
    that merely fails to compile. *)
let failure_key (oracle : string) (st : status) : string option =
  match st with
  | Pass | Skip _ -> None
  | Crash _ -> Some (oracle ^ "/crash")
  | Fail d ->
      let kind =
        match String.index_opt d ':' with
        | Some i -> String.sub d 0 i
        | None -> "fail"
      in
      Some (oracle ^ "/" ^ kind)

let protect (f : unit -> status) : status =
  try f () with e -> Crash (Printexc.to_string e)

(* -- oracle 1: interpreter vs compiled execution ----------------------------- *)

(** Run [source] through the reference interpreter and through
    compile→load→simulate, and compare all observable state.  The
    generator only emits programs the interpreter accepts and finishes,
    so an interpreter rejection is a [Skip] (input-side issue) while any
    pipeline rejection or state divergence is a [Fail]. *)
let is_capacity_limit (m : string) : bool =
  (* Regalloc.Pressure: every live register holds a needed value and
     nothing can be spilled — the generated generator's (structured,
     documented) "expression too complicated" answer, not a bug *)
  let has sub =
    let n = String.length sub and len = String.length m in
    let rec go i = i + n <= len && (String.sub m i n = sub || go (i + 1)) in
    go 0
  in
  has "register available"

let exec (tables : Cogg.Tables.t) (source : string) : status =
  protect @@ fun () ->
  match Pascal.Sema.front_end source with
  | Error m -> Fail ("frontend: " ^ m)
  | Ok checked -> (
      match Pascal.Interp.run checked with
      | Error e -> Skip (Fmt.str "interp: %a" Pascal.Interp.pp_error e)
      | Ok _ -> (
          match Pipeline.verify tables source with
          | Error m when is_capacity_limit m -> Skip ("capacity: " ^ m)
          | Error m -> Fail ("pipeline: " ^ m)
          | Ok v ->
              if v.Pipeline.agreed then Pass
              else
                Fail
                  ("mismatch: " ^ String.concat "; " v.Pipeline.mismatches)))

(* -- oracle 2: dispatch equivalence ------------------------------------------- *)

let generate dispatch tables toks =
  Cogg.Codegen.generate ~dispatch tables toks

(** The dispatch variants every bundle supports: the uncompressed
    reference and the comb-packed table. *)
let dispatch_variants : (string * Cogg.Driver.dispatch) list =
  [ ("flat", Cogg.Driver.Flat); ("comb", Cogg.Driver.Comb) ]

(** Every dispatch variant must be observationally identical to the flat
    reference: same listing and object bytes on acceptance, same error
    position (an index into the original token stream) on rejection.
    Comb rows may take default reductions a flat row would not, but that
    is allowed to change neither the emitted code nor where the error is
    reported. *)
let dispatch (tables : Cogg.Tables.t) (toks : Ifl.Token.t list) : status =
  protect @@ fun () ->
  let results =
    List.map
      (fun (name, d) -> (name, generate d tables toks))
      dispatch_variants
  in
  let bytes (r : Cogg.Codegen.result_t) =
    Bytes.to_string r.Cogg.Codegen.resolved.Cogg.Loader_gen.code
  in
  let compare_pair (na, a) (nb, b) : status =
    match (a, b) with
    | Ok fa, Ok fb ->
        if fa.Cogg.Codegen.listing <> fb.Cogg.Codegen.listing then
          Fail
            (Fmt.str "divergence: listings differ between %s and %s dispatch"
               na nb)
        else if bytes fa <> bytes fb then
          Fail
            (Fmt.str
               "divergence: object bytes differ between %s and %s dispatch" na
               nb)
        else Pass
    | ( Error (Cogg.Codegen.Parse_error ea),
        Error (Cogg.Codegen.Parse_error eb) ) ->
        if ea.Cogg.Driver.position = eb.Cogg.Driver.position then Pass
        else
          Fail
            (Fmt.str "divergence: error position %s=%d %s=%d" na
               ea.Cogg.Driver.position nb eb.Cogg.Driver.position)
    | Error _, Error _ ->
        (* both reject, but through different phases (e.g. a default
           reduction reached the emitter first): positions are not
           comparable, rejection agreement is what matters *)
        Pass
    | Ok _, Error e ->
        Fail
          (Fmt.str "divergence: %s rejected what %s accepted: %a" nb na
             Cogg.Codegen.pp_error e)
    | Error e, Ok _ ->
        Fail
          (Fmt.str "divergence: %s rejected what %s accepted: %a" na nb
             Cogg.Codegen.pp_error e)
  in
  match results with
  | [] -> Pass
  | reference :: rest ->
      List.fold_left
        (fun st r -> if st = Pass then compare_pair reference r else st)
        Pass rest

(* -- cross-backend differential execution -------------------------------------- *)

(** Compile and run the same Pascal program under two table bundles built
    for different machines and compare everything the program can
    observe: the write-statement outputs and whether (and why) the run
    aborted.  The linearized IF is machine-independent, so any program
    one backend accepts and the other rejects — or that produces
    different output on the two simulators — indicts one of the specs,
    one of the substrates, or the shared emission path. *)
let cross_backend (a : Cogg.Tables.t) (b : Cogg.Tables.t) (source : string) :
    status =
  protect @@ fun () ->
  let name (t : Cogg.Tables.t) = t.Cogg.Tables.target.Machine.Target.name in
  let run_one (tables : Cogg.Tables.t) =
    match Pipeline.compile tables source with
    | Error m -> Error ("compile: " ^ m)
    | Ok c -> (
        match Pipeline.execute c with
        | Error m -> Error ("execute: " ^ m)
        | Ok x -> Ok x)
  in
  match (run_one a, run_one b) with
  | Error ma, _ when is_capacity_limit ma -> Skip ("capacity: " ^ ma)
  | _, Error mb when is_capacity_limit mb -> Skip ("capacity: " ^ mb)
  | Error _, Error _ ->
      (* both backends reject; the exec oracle owns whether rejection was
         correct at all *)
      Pass
  | Ok _, Error m ->
      Fail (Fmt.str "divergence: %s rejected what %s ran: %s" (name b) (name a) m)
  | Error m, Ok _ ->
      Fail (Fmt.str "divergence: %s rejected what %s ran: %s" (name a) (name b) m)
  | Ok xa, Ok xb ->
      let aborted (x : Pipeline.executed) =
        x.Pipeline.outcome.Machine.Runtime.aborted
      in
      if xa.Pipeline.written_ints <> xb.Pipeline.written_ints then
        Fail
          (Fmt.str "divergence: integer writes %s=[%a] %s=[%a]" (name a)
             Fmt.(list ~sep:semi int)
             xa.Pipeline.written_ints (name b)
             Fmt.(list ~sep:semi int)
             xb.Pipeline.written_ints)
      else if xa.Pipeline.written_reals <> xb.Pipeline.written_reals then
        Fail
          (Fmt.str "divergence: real writes %s=[%a] %s=[%a]" (name a)
             Fmt.(list ~sep:semi float)
             xa.Pipeline.written_reals (name b)
             Fmt.(list ~sep:semi float)
             xb.Pipeline.written_reals)
      else if aborted xa <> aborted xb then
        Fail
          (Fmt.str "divergence: abort %s=%a %s=%a" (name a)
             Fmt.(option ~none:(any "ran") string)
             (aborted xa) (name b)
             Fmt.(option ~none:(any "ran") string)
             (aborted xb))
      else Pass

(* -- oracle 3: determinism ---------------------------------------------------- *)

let compiled_signature (c : Pipeline.compiled) : string =
  c.Pipeline.gen.Cogg.Codegen.listing ^ "\000" ^ Pipeline.Batch.code_bytes c

(** Two back-to-back compiles of the same source must be byte-identical
    (listing and resolved object bytes), errors included.  Batch-level
    determinism (fingerprint at [-j 1] vs [-j N], cache cold vs warm) is
    checked once per run by {!Runner}. *)
let determinism (tables : Cogg.Tables.t) (source : string) : status =
  protect @@ fun () ->
  let once () = Pipeline.compile tables source in
  match (once (), once ()) with
  | Ok a, Ok b ->
      if compiled_signature a = compiled_signature b then Pass
      else Fail "determinism: recompiling produced different bytes"
  | Error a, Error b ->
      if a = b then Pass
      else Fail "determinism: recompiling produced a different error"
  | Ok _, Error _ | Error _, Ok _ ->
      Fail "determinism: recompiling changed the outcome"

let determinism_tokens (tables : Cogg.Tables.t) (toks : Ifl.Token.t list) :
    status =
  protect @@ fun () ->
  let sig_of (r : Cogg.Codegen.result_t) =
    r.Cogg.Codegen.listing ^ "\000"
    ^ Bytes.to_string r.Cogg.Codegen.resolved.Cogg.Loader_gen.code
  in
  let once () = Cogg.Codegen.generate tables toks in
  match (once (), once ()) with
  | Ok a, Ok b ->
      if sig_of a = sig_of b then Pass
      else Fail "determinism: regenerating produced different bytes"
  | Error a, Error b ->
      if a = b then Pass
      else Fail "determinism: regenerating produced a different error"
  | Ok _, Error _ | Error _, Ok _ ->
      Fail "determinism: regenerating changed the outcome"

(* -- totality on malformed input ---------------------------------------------- *)

(** Feed an (arbitrarily mutated) token stream down the whole pipeline —
    both dispatch paths, and boot + bounded run on the tables' own
    target when it compiles — and demand a structured answer.  Any
    outcome is acceptable except an escaping exception. *)
let total (tables : Cogg.Tables.t) (toks : Ifl.Token.t list) : status =
  protect @@ fun () ->
  let tgt = tables.Cogg.Tables.target in
  let probe d =
    match Cogg.Codegen.generate ~dispatch:d tables toks with
    | Error _ -> ()
    | Ok r -> (
        match tgt.Machine.Target.boot r.Cogg.Codegen.objmod with
        | Error _ -> ()
        | Ok (sim, entry) -> (
            match tgt.Machine.Target.run ~max_steps:200_000 sim ~entry with
            | Ok _ | Error _ -> ()))
  in
  List.iter (fun (_, d) -> probe d) dispatch_variants;
  Pass

(** Same totality contract for the textual reader path.  [text] is the
    rendering of [judged], a stream {!total} has already judged, so
    [total] runs again only when the reader gives back another stream. *)
let total_text (tables : Cogg.Tables.t) ~(judged : Ifl.Token.t list)
    (text : string) : status =
  protect @@ fun () ->
  match Ifl.Reader.program_of_string text with
  | Error _ -> Pass
  | Ok toks when List.equal Ifl.Token.equal toks judged -> Pass
  | Ok toks -> total tables toks
