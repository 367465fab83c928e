(** The fuzzing engine: generate, observe coverage, cross-check, shrink,
    report.

    One round-based loop serves both schedules.  Each round builds its
    batch {e sequentially}, evaluates the batch across the pool
    (observation, oracles and shrinking are pure per-case work), then
    merges the results {e sequentially in batch order}.  Construction
    and merge never race, so the report — passes, skips, findings, kept
    pool, coverage map — is identical at any worker count.

    - {!Uniform}: every slot is a fresh input, and classes are taken
      round-robin over the allowed classes; over all classes the k-th
      input has index k.
    - {!Guided}: a deterministic bandit over measured coverage yield
      decides fresh vs mutate, which class a fresh input comes from, and
      which kept seed a mutant descends from.

    Every input is named forever by its {!lineage}, so any case or
    finding replays from its printed line alone. *)

type input = Pascal_src of Pascal.Ast.program | If_stream of Ifl.Token.t list

let render_input = function
  | Pascal_src p -> Gen_pascal.render p
  | If_stream toks -> Gen_if.to_text toks

let kind_of_input = function Pascal_src _ -> "pascal" | If_stream _ -> "if"

(* -- lineage ------------------------------------------------------------------- *)

(** Lineage of an input: the (seed, index) pair that generated its
    fresh ancestor plus the mutation path applied on top.  The fresh
    input of index [i] draws from [Rng.derive ~seed ~index:i],
    independent of how many cases ran before it, and every mutation
    step [m] draws from [Rng.derive ~seed:(key of the parent lineage)
    ~index:m], so the whole chain replays from the lineage alone —
    printed as [SEED:INDEX] or [SEED:INDEX:m1.m2.m3] and fed back
    through [pasc fuzz --replay]. *)
type lineage = { l_seed : int; l_index : int; l_path : int list }

let lineage_key (l : lineage) : int =
  List.fold_left Rng.mix (Rng.mix l.l_seed l.l_index) l.l_path

let replay_line (l : lineage) : string =
  match l.l_path with
  | [] -> Fmt.str "%d:%d" l.l_seed l.l_index
  | path ->
      Fmt.str "%d:%d:%s" l.l_seed l.l_index
        (String.concat "." (List.map string_of_int path))

let parse_replay (s : string) : (lineage, string) result =
  let fail () = Error (Fmt.str "malformed replay line %S (want SEED:INDEX[:m1.m2...])" s) in
  match String.split_on_char ':' (String.trim s) with
  | [ seed; index ] | [ seed; index; "" ] -> (
      match (int_of_string_opt seed, int_of_string_opt index) with
      | Some l_seed, Some l_index -> Ok { l_seed; l_index; l_path = [] }
      | _ -> fail ())
  | [ seed; index; path ] -> (
      match (int_of_string_opt seed, int_of_string_opt index) with
      | Some l_seed, Some l_index -> (
          let steps =
            List.map int_of_string_opt (String.split_on_char '.' path)
          in
          if List.for_all Option.is_some steps then
            Ok { l_seed; l_index; l_path = List.map Option.get steps }
          else fail ())
      | _ -> fail ())
  | _ -> fail ()

(* -- inputs -------------------------------------------------------------------- *)

(* An input's class — which generator profile, and Pascal source vs a
   direct IF stream — is encoded in its fresh index
   ([index mod n_classes]).  Mutation keeps both, so a lineage's class
   is its index's: a schedule can allocate fresh samples per class and
   still replay from nothing but the lineage. *)
let n_classes = 2 * Array.length Profile.all

let class_of_index (index : int) : int = index mod n_classes
let profile_of_index (index : int) : Profile.t =
  Profile.all.(class_of_index index / 2)

(* Statements in a branch-heavy stream that [malformed] mode mutates.
   Well-formed ones run 150-400 statements so that branches span more
   than 4096 bytes of code; a mutant of one is judged by how the
   pipeline refuses it, which a short stream shows as well, while a
   full-length one costs several times as much to compile and run. *)
let malformed_branch_statements = 24

(** The fresh input of [index]: odd classes are IF streams, which
    [malformed] mode then mutates (usually into malformed input) with
    {!Gen_if.mutate}. *)
let fresh ~(malformed : bool) ~(seed : int) ~(index : int) : input =
  let rng = Rng.derive ~seed ~index in
  let profile = profile_of_index index in
  if class_of_index index land 1 = 1 then
    let branch_heavy = profile = Profile.Branches in
    let size =
      if malformed && branch_heavy then Some malformed_branch_statements
      else None
    in
    let toks = Gen_if.program ~branch_heavy ?size rng in
    If_stream (if malformed then Gen_if.mutate rng toks else toks)
  else Pascal_src (Gen_pascal.program rng profile)

let mutate_input ~(malformed : bool) (rng : Rng.t) (profile : Profile.t) :
    input -> input = function
  | Pascal_src p -> Pascal_src (Gen_pascal.mutate rng profile p)
  | If_stream toks ->
      let mutate =
        if malformed then Gen_if.mutate else Gen_if.mutate_wellformed
      in
      If_stream (mutate rng toks)

let mutant_rng (parent : lineage) (m : int) : Rng.t =
  Rng.derive ~seed:(lineage_key parent) ~index:m

let child (parent : lineage) (m : int) : lineage =
  { parent with l_path = parent.l_path @ [ m ] }

(** Reconstruct an input from its lineage ([malformed] must match the
    run that printed it). *)
let input_of_lineage ?(malformed = false) (l : lineage) : input =
  let profile = profile_of_index l.l_index in
  let step (input, prefix) m =
    ( mutate_input ~malformed (mutant_rng prefix m) profile input,
      child prefix m )
  in
  let root = { l with l_path = [] } in
  fst
    (List.fold_left step
       (fresh ~malformed ~seed:l.l_seed ~index:l.l_index, root)
       l.l_path)

(* -- configuration -------------------------------------------------------------- *)

type schedule = Uniform | Guided

type config = {
  seed : int;
  budget : int;  (** total cases: fresh inputs plus mutants *)
  schedule : schedule;
  profile : Profile.t option;  (** keep only this profile's classes *)
  malformed : bool;
      (** IF classes only, each stream mutated by {!Gen_if.mutate}; the
          oracles check totality instead *)
  oracles : bool;  (** off: observe coverage only, no oracles, no batch check *)
  minimize : bool;  (** shrink each finding's input before reporting *)
  jobs : int;  (** domains evaluating each round's batch *)
  cross : Cogg.Tables.t option;
      (** second backend: every Pascal case additionally compiles and
          runs under these tables and the two machines' observable
          outputs must agree (under [malformed], every stream must also
          get a structured answer from it) *)
  spec : string option;
      (** the tables' spec file: enables the batch check's cache leg *)
  stop : unit -> bool;  (** checked between rounds; true ends the run *)
  log : string -> unit;  (** one progress line per round *)
}

let default_config =
  {
    seed = 1;
    budget = 64;
    schedule = Uniform;
    profile = None;
    malformed = false;
    oracles = true;
    minimize = false;
    jobs = 1;
    cross = None;
    spec = None;
    stop = (fun () -> false);
    log = ignore;
  }

(* -- oracles ------------------------------------------------------------------- *)

let oracles_for (tables : Cogg.Tables.t) (cfg : config) (input : input) :
    (string * (input -> Oracle.status)) list =
  let on_src f = function
    | Pascal_src p -> f (Gen_pascal.render p)
    | If_stream _ -> Oracle.Skip "source oracle on IF input"
  and on_toks f = function
    | If_stream toks -> f toks
    | Pascal_src p -> (
        (* the dispatch/determinism oracles run on the linearized IF the
           front end produces for this program *)
        match Pipeline.compile tables (Gen_pascal.render p) with
        | Error _ -> Oracle.Skip "front end rejected (exec oracle reports it)"
        | Ok c -> f c.Pipeline.tokens)
  in
  let cross name oracle =
    Option.fold ~none:[] ~some:(fun other -> [ (name, oracle other) ]) cfg.cross
  in
  if cfg.malformed then
    [
      ("total", on_toks (Oracle.total tables));
      ( "total-text",
        on_toks (fun t -> Oracle.total_text tables ~judged:t (Gen_if.to_text t))
      );
      ("dispatch", on_toks (Oracle.dispatch tables));
    ]
    @ cross "total-cross" (fun other -> on_toks (Oracle.total other))
  else
    match input with
    | Pascal_src _ ->
        [
          ("exec", on_src (Oracle.exec tables));
          ("dispatch", on_toks (Oracle.dispatch tables));
          ("determinism", on_src (Oracle.determinism tables));
        ]
        @ cross "cross" (fun other ->
              on_src (Oracle.cross_backend tables other))
    | If_stream _ ->
        [
          ("dispatch", on_toks (Oracle.dispatch tables));
          ("determinism", on_toks (Oracle.determinism_tokens tables));
        ]

let shrink_budget = 400

let minimize_finding (name : string) (check : input -> Oracle.status)
    (key : string) (input : input) : input =
  let same_failure (i : input) =
    Oracle.failure_key name (check i) = Some key
  in
  match input with
  | Pascal_src p ->
      Pascal_src
        (Shrink.minimize ~budget:shrink_budget
           ~candidates:Shrink.program_candidates
           ~test:(fun p -> same_failure (Pascal_src p))
           p)
  | If_stream toks ->
      If_stream
        (Shrink.minimize_tokens ~budget:shrink_budget
           ~test:(fun t -> same_failure (If_stream t))
           toks)

(** One input's coverage observation: compile it once with the
    [on_reduce] hook recording every user-production fire (in order, so
    bigrams are meaningful) and fold in the outcome bits.  An escaping
    exception counts as a rejection here; the oracles report it. *)
let observe (tables : Cogg.Tables.t) (input : input) : Covmap.obs =
  let n = tables.Cogg.Tables.n_user_prods in
  let fired = ref [] in
  let on_reduce p =
    if Cogg.Tables.is_user_prod tables p then fired := p :: !fired
  in
  let outcome =
    try
      match input with
      | Pascal_src p -> (
          match Pipeline.compile ~on_reduce tables (Gen_pascal.render p) with
          | Ok c -> Some c.Pipeline.gen
          | Error _ -> None)
      | If_stream toks -> (
          match Cogg.Codegen.generate ~on_reduce tables toks with
          | Ok r -> Some r
          | Error _ -> None)
    with _ -> None
  in
  let ok = outcome <> None in
  let long =
    match outcome with
    | Some r -> r.Cogg.Codegen.resolved.Cogg.Loader_gen.n_long > 0
    | None -> false
  in
  Covmap.features ~n_prods:n ~fired:(List.rev !fired) ~ok ~long

(* -- batch-level determinism --------------------------------------------------- *)

let remove_dir (dir : string) =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(** Compile the same corpus sequentially and across the pool (two
    domains when the run has none) and demand one fingerprint.  With
    the tables' [spec] at hand, also build it twice through a fresh
    private cache — once from the spec, then as a cache hit — and
    demand the same fingerprint from both. *)
let batch_check ?pool (tables : Cogg.Tables.t) ~(spec : string option)
    (sources : string list) : (string, string) result =
  let jobs_arr =
    Array.of_list
      (List.mapi
         (fun i s -> { Pipeline.Batch.name = Fmt.str "fuzz%04d" i; source = s })
         sources)
  in
  let fp ?pool tables =
    Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all ?pool tables jobs_arr)
  in
  let seq = fp tables in
  let domains, par =
    match pool with
    | Some pool -> (Cogg.Pool.size pool, fp ~pool tables)
    | None -> (2, Cogg.Pool.with_pool ~domains:2 (fun pool -> fp ~pool tables))
  in
  if seq <> par then
    Error (Fmt.str "fingerprint diverges: -j1 %s vs -j%d %s" seq domains par)
  else
    match spec with
    | None -> Ok seq
    | Some spec -> (
        let cache_dir = Filename.temp_dir "cogg-batch-check" "" in
        let build () =
          Cogg.Tables_cache.build_file ~target:tables.Cogg.Tables.target
            ~cache_dir spec
        in
        let cold, warm =
          Fun.protect
            ~finally:(fun () -> remove_dir cache_dir)
            (fun () ->
              let cold = build () in
              (cold, build ()))
        in
        match (cold, warm) with
        | ( Ok (cold, Cogg.Tables_cache.Built),
            Ok (warm, Cogg.Tables_cache.Cache_hit) ) ->
            let fc = fp cold and fw = fp warm in
            if fc <> fw then
              Error
                (Fmt.str "fingerprint diverges: cache cold %s vs warm %s" fc fw)
            else if fc <> seq then
              Error
                (Fmt.str "fingerprint diverges: cached tables %s vs session %s"
                   fc seq)
            else Ok seq
        | Ok (_, o1), Ok (_, o2) ->
            Error
              (Fmt.str
                 "cache check: a fresh cache answered %a then %a, not built \
                  from spec then cache hit"
                 Cogg.Tables_cache.pp_origin o1 Cogg.Tables_cache.pp_origin o2)
        | Error _, _ | _, Error _ ->
            Error "cache check: spec failed to build through the cache")

(* -- the engine ---------------------------------------------------------------- *)

type kept = {
  k_input : input;
  k_lineage : lineage;
  k_gain : int;  (** features newly covered when this seed was kept *)
  mutable k_children : int;  (** next mutation counter *)
  mutable k_yield : int;  (** children of this seed that were themselves kept *)
}

type finding = {
  f_lineage : lineage;
  f_oracle : string;
  f_status : Oracle.status;
  f_input : input;  (** the failing input, minimized under [cfg.minimize] *)
}

type report = {
  r_cases : int;
  r_passes : int;  (** individual oracle passes *)
  r_skips : int;
  r_kept : kept list;  (** inputs that added coverage, in discovery order *)
  r_covmap : Covmap.t;
  r_findings : finding list;
  r_batch : (string, string) result option;
      (** fingerprint at [-j 1] vs across the pool, and cache cold vs
          warm when a spec was supplied: [Ok fp] or [Error
          what_diverged]; [None] when no Pascal case ran under the
          oracles *)
}

(* A round is [shards * slots_per_shard] cases; slot [j] draws its
   guided-schedule decisions from shard [j mod shards]'s RNG stream, so
   the schedule does not depend on the worker count. *)
let shards = 8
let slots_per_shard = 8

(** Observe one case and, under [cfg.oracles], run its oracles and shrink
    its findings: returns (observation, passes, skips, findings). *)
let evaluate (tables : Cogg.Tables.t) (cfg : config)
    ((input, lineage) : input * lineage) :
    Covmap.obs * int * int * finding list =
  let verdicts =
    if not cfg.oracles then []
    else
      List.map (fun (name, check) -> (name, check, check input))
        (oracles_for tables cfg input)
  in
  let count p = List.length (List.filter (fun (_, _, st) -> p st) verdicts) in
  let findings =
    List.filter_map
      (fun (name, check, st) ->
        Option.map
          (fun key ->
            let f_input =
              if cfg.minimize then minimize_finding name check key input
              else input
            in
            {
              f_lineage = lineage;
              f_oracle = name;
              f_status = (if cfg.minimize then check f_input else st);
              f_input;
            })
          (Oracle.failure_key name st))
      verdicts
  in
  ( observe tables input,
    count (fun st -> st = Oracle.Pass),
    count (function Oracle.Skip _ -> true | _ -> false),
    findings )

(** Run [cfg.budget] cases (or until [cfg.stop ()]) under [cfg.schedule].

    The guided schedule is a deterministic bandit over measured marginal
    yield: the fresh-vs-mutate split and the per-class allocation of
    fresh samples are both weighted by cumulative (new features / cases)
    for that arm, read at round barriers — budget drains away from
    saturated input classes toward whatever is still paying. *)
let run (tables : Cogg.Tables.t) (cfg : config) : report =
  let allowed =
    Array.of_list
      (List.filter
         (fun c ->
           Option.fold ~none:true ~some:(( = ) Profile.all.(c / 2)) cfg.profile
           && ((not cfg.malformed) || c land 1 = 1))
         (List.init n_classes Fun.id))
  in
  let cov = Covmap.create ~n_prods:tables.Cogg.Tables.n_user_prods in
  let kept_rev = ref [] and findings_rev = ref [] and sources_rev = ref [] in
  let cases = ref 0 and passes = ref 0 and skips = ref 0 in
  let next_fresh = Array.make n_classes 0 in
  (* bandit statistics: per input class, and per arm (0 fresh, 1 mutate) *)
  let cls_cases = Array.make n_classes 0 in
  let cls_gain = Array.make n_classes 0 in
  let arm_cases = Array.make 2 0 in
  let arm_gain = Array.make 2 0 in
  let score c g = if c < 4 then 64 else 1 + (16 * g / c) in
  let shard_rngs =
    Array.init shards (fun s -> Rng.derive ~seed:cfg.seed ~index:(0x5EED0 + s))
  in
  let fresh_slot cls =
    let k = next_fresh.(cls) in
    next_fresh.(cls) <- k + 1;
    let index = (k * n_classes) + cls in
    ( ( fresh ~malformed:cfg.malformed ~seed:cfg.seed ~index,
        { l_seed = cfg.seed; l_index = index; l_path = [] } ),
      None )
  in
  (* AFL-style energy: a seed's weight grows with the number of its
     children that were themselves kept (its measured productive
     yield), with the capped initial gain as the cold-start prior *)
  let energy k = min 16 k.k_gain + (8 * k.k_yield) in
  let guided_slot rs pool =
    let fresh =
      Array.length pool = 0
      || Rng.weighted rs
           [
             (score arm_cases.(0) arm_gain.(0), true);
             (score arm_cases.(1) arm_gain.(1), false);
           ]
    in
    if fresh then
      fresh_slot
        (Rng.weighted rs
           (List.map
              (fun c -> (score cls_cases.(c) cls_gain.(c), c))
              (Array.to_list allowed)))
    else
      let parent =
        Rng.weighted rs
          (Array.to_list (Array.map (fun k -> (energy k, k)) pool))
      in
      let m = parent.k_children in
      parent.k_children <- m + 1;
      ( ( mutate_input ~malformed:cfg.malformed (mutant_rng parent.k_lineage m)
            (profile_of_index parent.k_lineage.l_index)
            parent.k_input,
          child parent.k_lineage m ),
        Some parent )
  in
  let round pool_opt =
    let pool = Array.of_list (List.rev !kept_rev) in
    let slots =
      Array.init
        (min (cfg.budget - !cases) (shards * slots_per_shard))
        (fun j ->
          match cfg.schedule with
          | Uniform ->
              fresh_slot allowed.((!cases + j) mod Array.length allowed)
          | Guided -> guided_slot shard_rngs.(j mod shards) pool)
    in
    let results =
      Cogg.Pool.maybe pool_opt (fun (item, _) -> evaluate tables cfg item) slots
    in
    Array.iteri
      (fun i (obs, p, s, fnds) ->
        let (input, lineage), parent = slots.(i) in
        incr cases;
        passes := !passes + p;
        skips := !skips + s;
        findings_rev := List.rev_append fnds !findings_rev;
        (* a slice of the corpus for the batch-level check *)
        (match input with
        | Pascal_src p when cfg.oracles && List.length !sources_rev < 24 ->
            sources_rev := Gen_pascal.render p :: !sources_rev
        | _ -> ());
        let gain = Covmap.add cov obs in
        let cls = class_of_index lineage.l_index in
        let arm = if parent = None then 0 else 1 in
        cls_cases.(cls) <- cls_cases.(cls) + 1;
        cls_gain.(cls) <- cls_gain.(cls) + gain;
        arm_cases.(arm) <- arm_cases.(arm) + 1;
        arm_gain.(arm) <- arm_gain.(arm) + gain;
        if gain > 0 then begin
          Option.iter (fun p -> p.k_yield <- p.k_yield + 1) parent;
          kept_rev :=
            {
              k_input = input;
              k_lineage = lineage;
              k_gain = gain;
              k_children = 0;
              k_yield = 0;
            }
            :: !kept_rev
        end)
      results;
    cfg.log
      (Fmt.str "%d cases: %d kept, %d prods, %d bigrams, %d findings" !cases
         (List.length !kept_rev)
         (Covmap.prods_covered cov)
         (Covmap.bigrams_covered cov)
         (List.length !findings_rev))
  in
  let go pool_opt =
    while !cases < cfg.budget && not (cfg.stop ()) do
      round pool_opt
    done;
    match List.rev !sources_rev with
    | [] -> None
    | sources -> Some (batch_check ?pool:pool_opt tables ~spec:cfg.spec sources)
  in
  let batch =
    if cfg.jobs > 1 then
      Cogg.Pool.with_pool ~domains:cfg.jobs (fun p -> go (Some p))
    else go None
  in
  {
    r_cases = !cases;
    r_passes = !passes;
    r_skips = !skips;
    r_kept = List.rev !kept_rev;
    r_covmap = cov;
    r_findings = List.rev !findings_rev;
    r_batch = batch;
  }

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "%d cases: %d oracle passes, %d skips, %d kept seeds, %d productions, %d \
     bigrams, %d findings"
    r.r_cases r.r_passes r.r_skips (List.length r.r_kept)
    (Covmap.prods_covered r.r_covmap)
    (Covmap.bigrams_covered r.r_covmap)
    (List.length r.r_findings);
  match r.r_batch with
  | Some (Ok fp) -> Fmt.pf ppf "; batch fingerprint %s" fp
  | Some (Error m) -> Fmt.pf ppf "; batch check FAILED: %s" m
  | None -> ()

(** Replay a case from its printed lineage under [cfg]'s [malformed]
    and [cross]: reconstruct the exact input and re-run the oracles. *)
let replay (tables : Cogg.Tables.t) (cfg : config) (line : string) :
    (input * (string * Oracle.status) list, string) result =
  Result.map
    (fun l ->
      let input = input_of_lineage ~malformed:cfg.malformed l in
      ( input,
        List.map
          (fun (name, check) -> (name, check input))
          (oracles_for tables cfg input) ))
    (parse_replay line)

(* -- corpora -------------------------------------------------------------------- *)

type corpus_entry = {
  e_name : string;
  e_kind : string;  (** ["pascal"] or ["if"] *)
  e_text : string;
}

(* Deterministic pins for productions the seeded corpus is not
   guaranteed to keep hitting as the generators evolve.  Coverage-only
   programs — deliberately NOT part of Pipeline.Programs, whose batch
   fingerprint is pinned elsewhere. *)
let pinned_entries : corpus_entry list =
  [
    {
      e_name = "pin_real_memops";
      e_kind = "pascal";
      e_text =
        "program pin; var r0, r1, r2 : real; begin r0 := 1.5; r1 := 2.25; r2 \
         := (r0 + 1.0) - r1; r2 := (r2 * 2.0) + r1; r2 := (r2 / 2.0) * r1; \
         r2 := (r0 - 1.0) / r1; write(r2) end.";
    };
  ]

(** The user productions a corpus entry fires (sorted, deduplicated);
    partial fires before a rejection still count. *)
let prods_of_entry (tables : Cogg.Tables.t) (e : corpus_entry) : int list =
  let fired = Hashtbl.create 64 in
  let on_reduce p =
    if Cogg.Tables.is_user_prod tables p then Hashtbl.replace fired p ()
  in
  (match e.e_kind with
  | "pascal" -> ignore (Pipeline.compile ~on_reduce tables e.e_text)
  | _ -> (
      match Ifl.Reader.program_of_string e.e_text with
      | Error _ -> ()
      | Ok toks -> ignore (Cogg.Codegen.generate ~on_reduce tables toks)));
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) fired [])

(** The fixed-seed generated slice of the distillation candidate set
    (same shape as the historical coverage corpus: Pascal across every
    profile, raw IF streams including branch-heavy ones). *)
let generated_entries ~(seed : int) ~(pascal_count : int) ~(if_count : int) :
    corpus_entry list =
  List.init pascal_count (fun i ->
      let rng = Rng.derive ~seed ~index:i in
      {
        e_name = Fmt.str "fuzz-s%d-i%d" seed i;
        e_kind = "pascal";
        e_text = Gen_pascal.source rng (Profile.rotate i);
      })
  @ List.init if_count (fun i ->
        let rng = Rng.derive ~seed ~index:(1000 + i) in
        {
          e_name = Fmt.str "fuzz-s%d-i%d" seed (1000 + i);
          e_kind = "if";
          e_text = Gen_if.to_text (Gen_if.program ~branch_heavy:(i mod 3 = 0) rng);
        })

(** A run's kept seeds, named after the schedule, then each finding's
    (minimized) input, named after its oracle; names end in the replay
    line with dashes for colons (dots, the path separators, keep the
    names filesystem-safe). *)
let report_entries (cfg : config) (r : report) : corpus_entry list =
  let entry prefix l input =
    {
      e_name =
        prefix ^ "-"
        ^ String.map (fun c -> if c = ':' then '-' else c) (replay_line l);
      e_kind = kind_of_input input;
      e_text = render_input input;
    }
  in
  let schedule =
    match cfg.schedule with Uniform -> "uniform" | Guided -> "guided"
  in
  List.map (fun k -> entry schedule k.k_lineage k.k_input) r.r_kept
  @ List.map (fun f -> entry f.f_oracle f.f_lineage f.f_input) r.r_findings

(** Greedy-minimal corpus over production coverage: returns the selected
    entries in pick order plus the size of the coverable universe. *)
let distill_corpus (tables : Cogg.Tables.t) (cands : corpus_entry list) :
    corpus_entry list * int =
  let arr = Array.of_list cands in
  let sets = Array.map (prods_of_entry tables) arr in
  let universe = Hashtbl.create 256 in
  Array.iter (List.iter (fun p -> Hashtbl.replace universe p ())) sets;
  let picked = Covmap.distill sets in
  (List.map (fun i -> arr.(i)) picked, Hashtbl.length universe)

(** Write [entries] under [dir] as [NN-NAME.pas] / [NN-NAME.ifl], each
    headed by a comment ["TITLE: NAME"]; returns the paths. *)
let write_corpus ~(title : string) (dir : string) (entries : corpus_entry list)
    : string list =
  if entries <> [] && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.mapi
    (fun i e ->
      let pascal = e.e_kind = "pascal" in
      let ext = if pascal then "pas" else "ifl" in
      let path =
        Filename.concat dir (Fmt.str "%02d-%s.%s" (i + 1) e.e_name ext)
      in
      let header = title ^ ": " ^ e.e_name in
      let oc = open_out path in
      output_string oc
        (if pascal then "{ " ^ header ^ " }\n" else "* " ^ header ^ "\n");
      output_string oc e.e_text;
      output_string oc "\n";
      close_out oc;
      path)
    entries
