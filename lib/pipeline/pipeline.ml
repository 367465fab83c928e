(** The whole compiler, end to end: mini-Pascal source -> front end ->
    shaper (+ CSE optimizer) -> table-driven code generator -> object
    module -> simulator.

    Also exposes the comparison hooks the evaluation needs: reading final
    variable values out of simulated memory, collecting [write] output,
    and checking everything against the reference interpreter. *)

module Ast = Pascal.Ast

type compiled = {
  source : string;
  checked : Pascal.Sema.checked;
  shaped : Shaper.Irgen.shaped;
  tokens : Ifl.Token.t list;
  gen : Cogg.Codegen.result_t;
  target : Machine.Target.t;
      (** the machine the tables were built for; drives loading and
          simulation in {!execute} *)
}

let ( let* ) = Result.bind

(** Compile a source program with the given generated code generator.
    Every phase runs under a {!Cogg.Trace} span (a no-op unless tracing
    or metrics are enabled), so [--trace]/[--stats] report per-phase wall
    times. *)
let compile ?(cse = true) ?(checks = false) ?strategy ?dispatch ?explain
    ?on_reduce (tables : Cogg.Tables.t) (source : string) :
    (compiled, string) result =
  let span name f = Cogg.Trace.with_span ~cat:"pipeline" name f in
  let* checked = span "front_end" (fun () -> Pascal.Sema.front_end source) in
  let* shaped =
    span "shape" (fun () ->
        Result.map_error
          (fun e -> Fmt.str "%a" Shaper.Irgen.pp_error e)
          (Shaper.Irgen.shape ~checks checked))
  in
  let shaped =
    if cse then span "cse_opt" (fun () -> Shaper.Cse_opt.optimize shaped)
    else shaped
  in
  let tokens =
    span "linearize" (fun () ->
        Ifl.Tree.linearize_program shaped.Shaper.Irgen.trees)
  in
  match
    span "codegen" (fun () ->
        Cogg.Codegen.generate ?strategy ?dispatch ?explain ?on_reduce tables
          tokens)
  with
  | Error e -> Error (Fmt.str "%a" Cogg.Codegen.pp_error e)
  | Ok gen ->
      Ok
        { source; checked; shaped; tokens; gen;
          target = tables.Cogg.Tables.target }

type executed = {
  sim : Machine.Sim.t;
  frame : int;  (** the main program's frame address *)
  outcome : Machine.Runtime.outcome;
  written_ints : int list;
  written_reals : float list;
}

(** Load and run a compiled program. *)
let execute ?(layout = Machine.Runtime.default_layout) ?(max_steps = 5_000_000)
    (c : compiled) : (executed, string) result =
  let tgt = c.target in
  let* sim, entry =
    tgt.Machine.Target.boot ~layout c.gen.Cogg.Codegen.objmod
  in
  (* resolve the procedure address table: the role of a linking loader *)
  let labels = c.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.labels in
  let* () =
    List.fold_left
      (fun acc (_, slot, lbl) ->
        let* () = acc in
        match List.assoc_opt (Cogg.Code_buffer.User lbl) labels with
        | Some off ->
            Machine.Sim.store_w sim
              (layout.Machine.Runtime.psa_addr + Machine.Runtime.psa_proctab
             + (4 * slot))
              (layout.Machine.Runtime.code_addr + off);
            Ok ()
        | None -> Error (Fmt.str "procedure label L%d unresolved" lbl))
      (Ok ()) c.shaped.Shaper.Irgen.proc_slots
  in
  let* outcome = tgt.Machine.Target.run ~max_steps ~layout sim ~entry in
  let frame = outcome.Machine.Runtime.final_frame in
  let sh = c.shaped in
  let n_ints = Machine.Sim.load_w sim (frame + sh.Shaper.Irgen.wcount_i_disp) in
  let n_reals = Machine.Sim.load_w sim (frame + sh.Shaper.Irgen.wcount_r_disp) in
  let clamp n lim = max 0 (min n lim) in
  let written_ints =
    List.init (clamp n_ints 64) (fun i ->
        Machine.Sim.load_w sim (frame + sh.Shaper.Irgen.out_int_disp + (4 * i)))
  in
  let written_reals =
    List.init (clamp n_reals 32) (fun i ->
        Machine.Sim.load_f64 sim
          (frame + sh.Shaper.Irgen.out_real_disp + (8 * i)))
  in
  Ok { sim; frame; outcome; written_ints; written_reals }

(* -- reading final variable state ------------------------------------------- *)

(** Read a global variable's final value from simulated memory, in the
    same shape the reference interpreter reports. *)
let read_global (c : compiled) (x : executed) (name : string) :
    (Pascal.Interp.value, string) result =
  match Shaper.Layout.find c.shaped.Shaper.Irgen.main_frame name with
  | None -> Error (Fmt.str "unknown global %s" name)
  | Some info ->
      let base = x.frame + info.Shaper.Layout.disp in
      let scalar (st : Shaper.Layout.storage) (ty : Ast.ty) at :
          Pascal.Interp.value =
        match st with
        | Shaper.Layout.Sfull -> Pascal.Interp.Vint (Machine.Sim.load_w x.sim at)
        | Shaper.Layout.Shalf -> Pascal.Interp.Vint (Machine.Sim.load_h x.sim at)
        | Shaper.Layout.Sbyte -> (
            let b = Machine.Sim.load_u8 x.sim at in
            match Ast.scalar ty with
            | Ast.Tbool -> Pascal.Interp.Vbool (b <> 0)
            | Ast.Tchar -> Pascal.Interp.Vchar (Char.chr b)
            | _ -> Pascal.Interp.Vint b)
        | Shaper.Layout.Sdouble ->
            Pascal.Interp.Vreal (Machine.Sim.load_f64 x.sim at)
        | Shaper.Layout.Sset _ | Shaper.Layout.Sarr _ ->
            invalid_arg "scalar storage expected"
      in
      (match info.Shaper.Layout.stype with
      | Shaper.Layout.Sarr { elem; lo; n } ->
          let elsize = Shaper.Layout.size_of elem in
          let elems =
            Array.init n (fun i ->
                scalar elem
                  (match info.Shaper.Layout.ty with
                  | Ast.Tarray { elem; _ } -> elem
                  | _ -> Ast.Tint)
                  (base + (i * elsize)))
          in
          Ok (Pascal.Interp.Varr (elems, lo))
      | Shaper.Layout.Sset bytes ->
          let bits = Array.make (bytes * 8) false in
          for i = 0 to (bytes * 8) - 1 do
            let b = Machine.Sim.load_u8 x.sim (base + (i / 8)) in
            bits.(i) <- b land (0x80 lsr (i mod 8)) <> 0
          done;
          Ok (Pascal.Interp.Vset bits)
      | st -> Ok (scalar st info.Shaper.Layout.ty base))

(* -- agreement with the reference interpreter -------------------------------- *)

let rec values_agree (a : Pascal.Interp.value) (b : Pascal.Interp.value) : bool
    =
  match (a, b) with
  | Pascal.Interp.Vint x, Pascal.Interp.Vint y -> x = y
  | Pascal.Interp.Vbool x, Pascal.Interp.Vbool y -> x = y
  | Pascal.Interp.Vchar x, Pascal.Interp.Vchar y -> x = y
  | Pascal.Interp.Vreal x, Pascal.Interp.Vreal y ->
      Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.abs y)
  | Pascal.Interp.Varr (xs, lx), Pascal.Interp.Varr (ys, ly) ->
      lx = ly
      && Array.length xs = Array.length ys
      && Array.for_all2 values_agree xs ys
  | Pascal.Interp.Vset xs, Pascal.Interp.Vset ys ->
      let n = max (Array.length xs) (Array.length ys) in
      let get a i = i < Array.length a && a.(i) in
      List.for_all (fun i -> get xs i = get ys i) (List.init n Fun.id)
  | _ -> false

type verdict = {
  agreed : bool;
  mismatches : string list;
  interp : Pascal.Interp.result_t;
  executed : executed;
}

(** Compile, run on the simulator, run the reference interpreter, and
    compare every global variable and all written output. *)
let verify ?cse ?checks ?strategy (tables : Cogg.Tables.t) (source : string) :
    (verdict, string) result =
  let* c = compile ?cse ?checks ?strategy tables source in
  let* x = execute c in
  let* () =
    match x.outcome.Machine.Runtime.aborted with
    | Some m -> Error (Fmt.str "simulated program aborted: %s" m)
    | None -> Ok ()
  in
  let* interp =
    Result.map_error
      (fun e -> Fmt.str "%a" Pascal.Interp.pp_error e)
      (Pascal.Interp.run c.checked)
  in
  let mismatches = ref [] in
  List.iter
    (fun (name, iv) ->
      match read_global c x name with
      | Error m -> mismatches := m :: !mismatches
      | Ok sv ->
          if not (values_agree sv iv) then
            mismatches := Fmt.str "global %s differs" name :: !mismatches)
    interp.Pascal.Interp.final_globals;
  (* written output: same counts and values per stream *)
  let int_writes =
    List.filter_map
      (function
        | Pascal.Interp.Vint n -> Some n
        | Pascal.Interp.Vbool b -> Some (if b then 1 else 0)
        | Pascal.Interp.Vchar c -> Some (Char.code c)
        | Pascal.Interp.Vreal _ -> None
        | _ -> None)
      interp.Pascal.Interp.written
  in
  let real_writes =
    List.filter_map
      (function Pascal.Interp.Vreal f -> Some f | _ -> None)
      interp.Pascal.Interp.written
  in
  if int_writes <> x.written_ints then
    mismatches := "written integer stream differs" :: !mismatches;
  if
    List.length real_writes <> List.length x.written_reals
    || not
         (List.for_all2
            (fun a b -> Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a))
            real_writes x.written_reals)
  then mismatches := "written real stream differs" :: !mismatches;
  Ok
    {
      agreed = !mismatches = [];
      mismatches = List.rev !mismatches;
      interp;
      executed = x;
    }

(* -- the hand-written comparator ----------------------------------------------- *)

type baseline_compiled = {
  b_source : string;
  b_checked : Pascal.Sema.checked;
  b_shaped : Shaper.Irgen.shaped;
  b_gen : Baseline.result_t;
}

(** Compile with the hand-written baseline generator (no CSE: the
    baseline does not implement the CSE protocol, like any generator that
    predates the optimizer). *)
let compile_baseline ?(checks = false) (source : string) :
    (baseline_compiled, string) result =
  let* checked = Pascal.Sema.front_end source in
  let* shaped =
    Result.map_error
      (fun e -> Fmt.str "%a" Shaper.Irgen.pp_error e)
      (Shaper.Irgen.shape ~checks checked)
  in
  let* gen = Baseline.generate shaped.Shaper.Irgen.trees in
  Ok { b_source = source; b_checked = checked; b_shaped = shaped; b_gen = gen }

(** Run a baseline-compiled program (same loading protocol). *)
let execute_baseline ?(layout = Machine.Runtime.default_layout)
    ?(max_steps = 5_000_000) (c : baseline_compiled) : (executed, string) result
    =
  let* sim, entry = Machine.Runtime.boot ~layout c.b_gen.Baseline.objmod in
  let labels = c.b_gen.Baseline.resolved.Cogg.Loader_gen.labels in
  let* () =
    List.fold_left
      (fun acc (_, slot, lbl) ->
        let* () = acc in
        match List.assoc_opt (Cogg.Code_buffer.User lbl) labels with
        | Some off ->
            Machine.Sim.store_w sim
              (layout.Machine.Runtime.psa_addr + Machine.Runtime.psa_proctab
             + (4 * slot))
              (layout.Machine.Runtime.code_addr + off);
            Ok ()
        | None -> Error (Fmt.str "procedure label L%d unresolved" lbl))
      (Ok ()) c.b_shaped.Shaper.Irgen.proc_slots
  in
  let* outcome = Machine.Runtime.run ~max_steps ~layout sim ~entry in
  let frame = outcome.Machine.Runtime.final_frame in
  let sh = c.b_shaped in
  let n_ints = Machine.Sim.load_w sim (frame + sh.Shaper.Irgen.wcount_i_disp) in
  let n_reals = Machine.Sim.load_w sim (frame + sh.Shaper.Irgen.wcount_r_disp) in
  let clamp n lim = max 0 (min n lim) in
  let written_ints =
    List.init (clamp n_ints 64) (fun i ->
        Machine.Sim.load_w sim (frame + sh.Shaper.Irgen.out_int_disp + (4 * i)))
  in
  let written_reals =
    List.init (clamp n_reals 32) (fun i ->
        Machine.Sim.load_f64 sim
          (frame + sh.Shaper.Irgen.out_real_disp + (8 * i)))
  in
  Ok { sim; frame; outcome; written_ints; written_reals }

(** Standard workloads (paper Appendix 1 and friends). *)
module Programs = Programs

(* -- batch compilation -------------------------------------------------------- *)

(** Batch compilation: many mini-Pascal programs through one shared set
    of driving tables.

    Bird's economics make this the natural serving shape: table
    construction is the expensive artifact (tens of milliseconds) and a
    single compile through the comb-packed driver costs a fraction of a
    millisecond, so a batch amortizes the tables once and fans the
    per-program work across a {!Cogg.Pool} of domains.

    Domain-safety audit (why sharing [Tables.t] is sound):

    - [Tables.t] and everything it reaches ([Grammar.t], [Symtab.t],
      [Parse_table.t], [Compress.t], compiled templates) is immutable
      after [Cogg_build.build].  The only mutable fields in the bundle
      are [Lr0.state.closure]/[transitions], written exclusively during
      automaton construction; every post-build access is a read.
    - All per-compile state is created inside the compile call: the
      driver's stacks live in [Driver.parse]'s frame; [Emit.create]
      allocates the emitter, register file ([Regalloc.t]), CSE table
      ([Cse.t]) and code buffer per call; the front end ([Sema]), shaper
      ([Irgen], [Cse_opt]) and loader ([Loader_gen]) likewise build
      their state per invocation.  [test/check_globals.sh] pins this by
      rejecting new toplevel mutable bindings in the hot modules.
    - Results are placed by input index ({!Cogg.Pool.map}), so batch
      output order — and, since each compile is deterministic, every
      byte of it — is identical to the sequential run. *)
module Batch = struct
  type job = {
    name : string;  (** label for reports; the source path under [pasc] *)
    source : string;
  }

  type result_t = (compiled, string) result

  (** [compile_all ?pool tables jobs] compiles every job against
      [tables].  With a pool the jobs fan out across its domains; without
      one (or with a pool of size 1) the batch runs sequentially on the
      calling domain.  The result array is indexed like [jobs] either
      way. *)
  let compile_all ?pool ?cse ?checks ?strategy ?dispatch ?explain
      (tables : Cogg.Tables.t) (jobs : job array) : result_t array =
    Cogg.Pool.maybe pool
      (fun j ->
        (* the per-program span: events land in the compiling domain's
           buffer and are merged at serialization time, after the pool
           region has joined *)
        Cogg.Trace.with_span ~cat:"batch" ~args:[ ("program", j.name) ]
          "compile" (fun () ->
            compile ?cse ?checks ?strategy ?dispatch ?explain tables j.source))
      jobs

  (** Object-code bytes of a successful compile — the determinism suite's
      notion of "output": resolved code, exactly what the loader sees. *)
  let code_bytes (c : compiled) : string =
    Bytes.to_string c.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.code

  (** [fingerprint results] digests every job's listing and object bytes
      (or its error message) into one hex string: two batches produced
      the same compilations iff their fingerprints are equal. *)
  let fingerprint (results : result_t array) : string =
    let buf = Buffer.create 4096 in
    Array.iter
      (fun r ->
        match r with
        | Ok c ->
            Buffer.add_string buf c.gen.Cogg.Codegen.listing;
            Buffer.add_char buf '\000';
            Buffer.add_string buf (code_bytes c);
            Buffer.add_char buf '\001'
        | Error m ->
            Buffer.add_string buf m;
            Buffer.add_char buf '\002')
      results;
    Digest.to_hex (Digest.string (Buffer.contents buf))
end
