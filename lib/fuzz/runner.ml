(** The fuzzing loop: generate, cross-check, shrink, report.

    Every case is named forever by its (seed, index) pair — the RNG
    stream for case [i] is [Rng.derive ~seed ~index:i], independent of
    how many cases ran before it — so any finding replays with
    [--seed S --start I --count 1]. *)

type input = Pascal_src of Pascal.Ast.program | If_stream of Ifl.Token.t list

type finding = {
  f_index : int;  (** case index (combine with the seed to replay) *)
  f_oracle : string;
  f_status : Oracle.status;
  f_repro : string;  (** replayable input text, minimized if requested *)
  f_kind : string;  (** ["pascal"] or ["if"]: how to replay [f_repro] *)
  f_minimized : bool;
}

type report = {
  r_seed : int;
  r_count : int;
  r_cases : int;
  r_passes : int;  (** individual oracle passes *)
  r_skips : int;
  r_findings : finding list;
  r_batch : (string, string) result option;
      (** fingerprint at [-j 1] vs [-j N] (and cache cold vs warm when a
          spec was supplied): [Ok fp] or [Error what_diverged] *)
}

type config = {
  seed : int;
  count : int;
  start : int;
  profile : Profile.t option;  (** [None]: rotate through all profiles *)
  minimize : bool;
  malformed : bool;  (** mutate streams and check totality instead *)
  jobs : int;  (** domains for the parallel half of the batch check *)
  spec : string option;  (** spec path, enables the cache cold/warm check *)
  cache_dir : string option;  (** scratch cache for the cold/warm check *)
  log : string -> unit;  (** per-finding progress line *)
  cross : Cogg.Tables.t option;
      (** second backend: every Pascal case additionally compiles and
          runs under these tables and the two machines' observable
          outputs must agree (the cross-backend differential oracle) *)
}

let default_config =
  {
    seed = 1;
    count = 64;
    start = 0;
    profile = None;
    minimize = false;
    malformed = false;
    jobs = 4;
    spec = None;
    cache_dir = None;
    log = ignore;
    cross = None;
  }

let render_input = function
  | Pascal_src p -> Gen_pascal.render p
  | If_stream toks -> Gen_if.to_text toks

(* -- one case ----------------------------------------------------------------- *)

let gen_input (cfg : config) (index : int) (rng : Rng.t) : input =
  let profile =
    match cfg.profile with Some p -> p | None -> Profile.rotate index
  in
  (* one case in four exercises the raw IF surface; the rest go through
     the full Pascal front end *)
  if Rng.chance rng 1 4 then
    If_stream
      (Gen_if.program ~branch_heavy:(profile = Profile.Branches) rng)
  else Pascal_src (Gen_pascal.program rng profile)

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
  if cfg.malformed then
    [
      ("total", on_toks (Oracle.total tables));
      ("total-text", on_toks (fun t -> Oracle.total_text tables (Gen_if.to_text t)));
      ("dispatch", on_toks (Oracle.dispatch tables));
    ]
  else
    match input with
    | Pascal_src _ ->
        [
          ("exec", on_src (Oracle.exec tables));
          ("dispatch", on_toks (Oracle.dispatch tables));
          ("determinism", on_src (Oracle.determinism tables));
        ]
        @ (match cfg.cross with
          | Some other ->
              [ ("cross", on_src (Oracle.cross_backend tables other)) ]
          | None -> [])
    | If_stream _ ->
        [
          ("dispatch", on_toks (Oracle.dispatch tables));
          ("determinism", on_toks (Oracle.determinism_tokens tables));
        ]

let shrink_budget = 400

let minimize_finding (tables : Cogg.Tables.t) (name : string)
    (check : input -> Oracle.status) (key : string) (input : input) : input =
  ignore tables;
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

let run_case (tables : Cogg.Tables.t) (cfg : config) (index : int) :
    int * int * finding list =
  let rng = Rng.derive ~seed:cfg.seed ~index in
  let input =
    let base = gen_input cfg index rng in
    if cfg.malformed then
      let toks =
        match base with
        | If_stream toks -> toks
        | Pascal_src _ -> Gen_if.program ~size:8 rng
      in
      If_stream (Gen_if.mutate rng toks)
    else base
  in
  let passes = ref 0 and skips = ref 0 and findings = ref [] in
  List.iter
    (fun (name, check) ->
      match check input with
      | Oracle.Pass -> incr passes
      | Oracle.Skip _ -> incr skips
      | (Oracle.Fail _ | Oracle.Crash _) as st ->
          let key = Option.get (Oracle.failure_key name st) in
          let minimized =
            if cfg.minimize then minimize_finding tables name check key input
            else input
          in
          let f =
            {
              f_index = index;
              f_oracle = name;
              f_status = (if cfg.minimize then check minimized else st);
              f_repro = render_input minimized;
              f_kind =
                (match minimized with
                | Pascal_src _ -> "pascal"
                | If_stream _ -> "if");
              f_minimized = cfg.minimize;
            }
          in
          cfg.log
            (Fmt.str "case %d [%s]: %a" index name Oracle.pp_status f.f_status);
          findings := f :: !findings)
    (oracles_for tables cfg input);
  (!passes, !skips, List.rev !findings)

(* -- batch-level determinism --------------------------------------------------- *)

(** Compile the same corpus sequentially and across [jobs] domains (and,
    when a spec path is at hand, against freshly-built vs cache-loaded
    tables) and demand one fingerprint. *)
let batch_check (tables : Cogg.Tables.t) (cfg : config)
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
  let par =
    if cfg.jobs <= 1 then seq
    else Cogg.Pool.with_pool ~domains:cfg.jobs (fun pool -> fp ~pool tables)
  in
  if seq <> par then
    Error (Fmt.str "fingerprint diverges: -j1 %s vs -j%d %s" seq cfg.jobs par)
  else
    match (cfg.spec, cfg.cache_dir) with
    | Some spec, Some cache_dir -> (
        let build () = Cogg.Tables_cache.build_file ~cache_dir spec in
        match (build (), build ()) with
        | Ok (cold, _), Ok (warm, origin) ->
            let fc = fp cold and fw = fp warm in
            if fc <> fw then
              Error
                (Fmt.str "fingerprint diverges: cache cold %s vs %s (%a)" fc fw
                   Cogg.Tables_cache.pp_origin origin)
            else if fc <> seq then
              Error
                (Fmt.str "fingerprint diverges: cached tables %s vs session %s"
                   fc seq)
            else Ok seq
        | Error _, _ | _, Error _ ->
            Error "cache check: spec failed to build through the cache")
    | _ -> Ok seq

(* -- the loop ------------------------------------------------------------------ *)

let run (tables : Cogg.Tables.t) (cfg : config) : report =
  let passes = ref 0 and skips = ref 0 and findings = ref [] in
  let sources = ref [] in
  for index = cfg.start to cfg.start + cfg.count - 1 do
    let p, s, fs = run_case tables cfg index in
    passes := !passes + p;
    skips := !skips + s;
    findings := !findings @ fs;
    (* remember a slice of the corpus for the batch-level check *)
    if (not cfg.malformed) && List.length !sources < 24 then begin
      let rng = Rng.derive ~seed:cfg.seed ~index in
      match gen_input cfg index rng with
      | Pascal_src p -> sources := Gen_pascal.render p :: !sources
      | If_stream _ -> ()
    end
  done;
  let batch =
    if cfg.malformed || !sources = [] then None
    else Some (batch_check tables cfg (List.rev !sources))
  in
  (match batch with
  | Some (Error m) -> cfg.log ("batch: " ^ m)
  | _ -> ());
  {
    r_seed = cfg.seed;
    r_count = cfg.count;
    r_cases = cfg.count;
    r_passes = !passes;
    r_skips = !skips;
    r_findings =
      !findings
      @ (match batch with
        | Some (Error m) ->
            [
              {
                f_index = -1;
                f_oracle = "batch";
                f_status = Oracle.Fail ("batch: " ^ m);
                f_repro = "";
                f_kind = "batch";
                f_minimized = false;
              };
            ]
        | _ -> []);
    r_batch = batch;
  }

let pp_report ppf (r : report) =
  Fmt.pf ppf "fuzz: seed %d, %d cases: %d oracle passes, %d skips, %d findings"
    r.r_seed r.r_cases r.r_passes r.r_skips
    (List.length r.r_findings);
  match r.r_batch with
  | Some (Ok fp) -> Fmt.pf ppf "; batch fingerprint %s" fp
  | Some (Error _) -> Fmt.pf ppf "; batch check FAILED"
  | None -> ()

(* -- coverage-guided mode ------------------------------------------------------ *)

(** Lineage of a guided-mode input: the (seed, index) pair that
    generated the base input plus the mutation path applied on top.
    Every mutation step [m] draws from [Rng.derive ~seed:(key of the
    parent lineage) ~index:m], so the whole chain replays from the
    lineage alone — printed as [SEED:INDEX] or [SEED:INDEX:m1.m2.m3]
    and fed back through [pasc fuzz --replay]. *)
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

(* The guided generator is the (seed, index) discipline with no config
   knobs.  The input class — which generator profile, and Pascal source
   vs a direct IF stream — is encoded in the index itself
   ([index mod n_classes]), so a sequential index sweep rotates through
   every class uniformly (the random baseline) while the guided
   scheduler can allocate fresh samples per class and still replay from
   nothing but the lineage. *)
let n_classes = 2 * Array.length Profile.all

let class_of_index (index : int) : int = index mod n_classes

(** The class of an input that already exists (for attributing a
    mutant's coverage gain to the class whose space it explores). *)
let class_of_input (profile : Profile.t) (input : input) : int =
  let pi = ref 0 in
  Array.iteri (fun i p -> if p = profile then pi := i) Profile.all;
  (2 * !pi) + match input with If_stream _ -> 1 | Pascal_src _ -> 0

let guided_gen ~(seed : int) ~(index : int) : input * Profile.t =
  let rng = Rng.derive ~seed ~index in
  let cls = class_of_index index in
  let profile = Profile.all.(cls / 2) in
  if cls land 1 = 1 then
    (If_stream (Gen_if.program ~branch_heavy:(profile = Profile.Branches) rng), profile)
  else (Pascal_src (Gen_pascal.program rng profile), profile)

let mutate_input (rng : Rng.t) (profile : Profile.t) : input -> input = function
  | Pascal_src p -> Pascal_src (Gen_pascal.mutate rng profile p)
  | If_stream toks -> If_stream (Gen_if.mutate_wellformed rng toks)

(** Reconstruct a kept seed's exact input from its lineage. *)
let input_of_lineage (l : lineage) : input * Profile.t =
  let base, profile = guided_gen ~seed:l.l_seed ~index:l.l_index in
  let rec go input prefix = function
    | [] -> input
    | m :: rest ->
        let rng = Rng.derive ~seed:(lineage_key prefix) ~index:m in
        go (mutate_input rng profile input)
          { prefix with l_path = prefix.l_path @ [ m ] }
          rest
  in
  (go base { l with l_path = [] } l.l_path, profile)

(** One input's coverage observation: compile it once with the
    [on_reduce] hook recording every user-production fire (in order, so
    bigrams are meaningful) and fold in the outcome bits. *)
let observe (tables : Cogg.Tables.t) (input : input) : Covmap.obs =
  let n = tables.Cogg.Tables.n_user_prods in
  let fired = ref [] in
  let on_reduce p =
    if Cogg.Tables.is_user_prod tables p then fired := p :: !fired
  in
  let outcome =
    match input with
    | Pascal_src p -> (
        match Pipeline.compile ~on_reduce tables (Gen_pascal.render p) with
        | Ok c -> Some c.Pipeline.gen
        | Error _ -> None)
    | If_stream toks -> (
        match Cogg.Codegen.generate ~on_reduce tables toks with
        | Ok r -> Some r
        | Error _ -> None)
  in
  let ok = outcome <> None in
  let long =
    match outcome with
    | Some r -> r.Cogg.Codegen.resolved.Cogg.Loader_gen.n_long > 0
    | None -> false
  in
  Covmap.features ~n_prods:n ~fired:(List.rev !fired) ~ok ~long

type guided_config = {
  g_seed : int;
  g_budget : int;  (** total cases (fresh inputs + mutants) *)
  g_shards : int;  (** logical shards, independent of the worker count *)
  g_batch : int;  (** batch items per shard per round *)
  g_jobs : int;  (** domains evaluating a round's batch in parallel *)
  g_oracles : bool;  (** also run the differential oracles per case *)
  g_cross : Cogg.Tables.t option;
  g_stop : (unit -> bool) option;
      (** long-run mode: checked between rounds; overrides the budget *)
  g_log : string -> unit;
}

let default_guided =
  {
    g_seed = 1;
    g_budget = 512;
    g_shards = 8;
    g_batch = 8;
    g_jobs = 1;
    g_oracles = false;
    g_cross = None;
    g_stop = None;
    g_log = ignore;
  }

type kept = {
  k_input : input;
  k_lineage : lineage;
  k_profile : Profile.t;
  k_gain : int;  (** features newly covered when this seed was kept *)
  mutable k_children : int;  (** next mutation counter *)
  mutable k_yield : int;  (** children of this seed that were themselves kept *)
}

type guided_finding = {
  gf_lineage : lineage;
  gf_oracle : string;
  gf_status : Oracle.status;
  gf_repro : string;
  gf_kind : string;
}

type guided_report = {
  g_cases : int;
  g_kept : kept list;  (** in discovery order *)
  g_covmap : Covmap.t;
  g_findings : guided_finding list;
}

(** The seed-pool scheduler.  Each round builds one batch {e
    sequentially} — per-shard RNG streams decide fresh-vs-mutate and
    pick mutation parents, and every fresh input takes the next index
    of its chosen class — then evaluates the batch's items in parallel
    across the pool (observation and oracles are pure), then merges the
    observations into the coverage map {e sequentially in item order}
    at the round barrier (quiescence).  Construction and merge never
    race, so the kept pool and the coverage map are identical at any
    worker count.

    Scheduling is a deterministic bandit over measured marginal yield:
    the fresh-vs-mutate split and the per-class allocation of fresh
    samples are both weighted by cumulative (new features / cases) for
    that arm, read at round barriers — budget drains away from
    saturated input classes toward whatever is still paying. *)
let run_guided (tables : Cogg.Tables.t) (cfg : guided_config) : guided_report =
  let cov = Covmap.create ~n_prods:tables.Cogg.Tables.n_user_prods in
  let kept_rev = ref [] and n_kept = ref 0 in
  let findings = ref [] in
  let cases = ref 0 in
  let next_fresh = Array.make n_classes 0 in
  (* bandit statistics: per input class, and per arm (0 fresh, 1 mutate) *)
  let cls_cases = Array.make n_classes 0 in
  let cls_gain = Array.make n_classes 0 in
  let arm_cases = Array.make 2 0 in
  let arm_gain = Array.make 2 0 in
  let score c g = if c < 4 then 64 else 1 + (16 * g / c) in
  let rounds = ref 0 in
  let shard_rngs =
    Array.init (max 1 cfg.g_shards) (fun s ->
        Rng.derive ~seed:cfg.g_seed ~index:(0x5EED0 + s))
  in
  let oracle_cfg = { default_config with cross = cfg.g_cross } in
  let eval (input, lineage, _profile) =
    let obs = observe tables input in
    let fnds =
      if not cfg.g_oracles then []
      else
        List.filter_map
          (fun (name, check) ->
            match check input with
            | Oracle.Pass | Oracle.Skip _ -> None
            | st ->
                Some
                  {
                    gf_lineage = lineage;
                    gf_oracle = name;
                    gf_status = st;
                    gf_repro = render_input input;
                    gf_kind =
                      (match input with
                      | Pascal_src _ -> "pascal"
                      | If_stream _ -> "if");
                  })
          (oracles_for tables oracle_cfg input)
    in
    (obs, fnds)
  in
  let continue_ () =
    !cases < cfg.g_budget
    && match cfg.g_stop with Some stop -> not (stop ()) | None -> true
  in
  let round pool_opt =
    incr rounds;
    let pool = Array.of_list (List.rev !kept_rev) in
    let batch_size =
      min (cfg.g_budget - !cases) (max 1 cfg.g_shards * max 1 cfg.g_batch)
    in
    (* AFL-style energy: a seed's weight grows with the number of its
       children that were themselves kept (its measured productive
       yield), with the capped initial gain as the cold-start prior *)
    let energy k = min 16 k.k_gain + (8 * k.k_yield) in
    let parents = Array.make batch_size None in
    let arms = Array.make batch_size 0 in
    let items =
      Array.init batch_size (fun j ->
          let rs = shard_rngs.(j mod Array.length shard_rngs) in
          let fresh =
            Array.length pool = 0
            || Rng.weighted rs
                 [
                   (score arm_cases.(0) arm_gain.(0), true);
                   (score arm_cases.(1) arm_gain.(1), false);
                 ]
          in
          if fresh then begin
            let cls =
              Rng.weighted rs
                (List.init n_classes (fun c ->
                     (score cls_cases.(c) cls_gain.(c), c)))
            in
            let k = next_fresh.(cls) in
            next_fresh.(cls) <- k + 1;
            let index = (k * n_classes) + cls in
            let input, profile = guided_gen ~seed:cfg.g_seed ~index in
            (input, { l_seed = cfg.g_seed; l_index = index; l_path = [] }, profile)
          end
          else begin
            arms.(j) <- 1;
            let parent =
              Rng.weighted rs
                (Array.to_list (Array.map (fun k -> (energy k, k)) pool))
            in
            parents.(j) <- Some parent;
            let m = parent.k_children in
            parent.k_children <- m + 1;
            let rng = Rng.derive ~seed:(lineage_key parent.k_lineage) ~index:m in
            ( mutate_input rng parent.k_profile parent.k_input,
              { parent.k_lineage with
                l_path = parent.k_lineage.l_path @ [ m ] },
              parent.k_profile )
          end)
    in
    let results = Cogg.Pool.maybe pool_opt eval items in
    Array.iteri
      (fun i (obs, fnds) ->
        incr cases;
        findings := fnds @ !findings;
        let gain = Covmap.add cov obs in
        let input, lineage, profile = items.(i) in
        let cls = class_of_input profile input in
        cls_cases.(cls) <- cls_cases.(cls) + 1;
        cls_gain.(cls) <- cls_gain.(cls) + gain;
        arm_cases.(arms.(i)) <- arm_cases.(arms.(i)) + 1;
        arm_gain.(arms.(i)) <- arm_gain.(arms.(i)) + gain;
        if gain > 0 then begin
          (match parents.(i) with
          | Some p -> p.k_yield <- p.k_yield + 1
          | None -> ());
          kept_rev :=
            {
              k_input = input;
              k_lineage = lineage;
              k_profile = profile;
              k_gain = gain;
              k_children = 0;
              k_yield = 0;
            }
            :: !kept_rev;
          incr n_kept
        end)
      results;
    cfg.g_log
      (Fmt.str "round %d: %d cases, %d kept, %d prods, %d bigrams" !rounds
         !cases !n_kept
         (Covmap.prods_covered cov)
         (Covmap.bigrams_covered cov))
  in
  let loop pool_opt = while continue_ () do round pool_opt done in
  if cfg.g_jobs > 1 then
    Cogg.Pool.with_pool ~domains:cfg.g_jobs (fun p -> loop (Some p))
  else loop None;
  {
    g_cases = !cases;
    g_kept = List.rev !kept_rev;
    g_covmap = cov;
    g_findings = List.rev !findings;
  }

(** The random baseline at the same case budget: the plain (seed, index)
    generator with no feedback, coverage accumulated the same way. *)
let random_coverage (tables : Cogg.Tables.t) ~(seed : int) ~(count : int) :
    Covmap.t =
  let cov = Covmap.create ~n_prods:tables.Cogg.Tables.n_user_prods in
  for index = 0 to count - 1 do
    let input, _ = guided_gen ~seed ~index in
    ignore (Covmap.add cov (observe tables input))
  done;
  cov

(** Replay a kept seed or finding from its printed lineage: reconstruct
    the exact input and re-run the oracles on it. *)
let replay (tables : Cogg.Tables.t) ?cross (line : string) :
    (input * (string * Oracle.status) list, string) result =
  match parse_replay line with
  | Error m -> Error m
  | Ok l ->
      let input, _profile = input_of_lineage l in
      let cfg = { default_config with cross } in
      Ok
        ( input,
          List.map (fun (name, check) -> (name, check input))
            (oracles_for tables cfg input) )

(* -- corpus distillation -------------------------------------------------------- *)

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

(** Kept guided seeds as distillation candidates, named by their replay
    lines (dots for path separators keep the names filesystem-safe). *)
let kept_entries (r : guided_report) : corpus_entry list =
  List.map
    (fun k ->
      {
        e_name =
          "guided-"
          ^ String.map
              (fun c -> if c = ':' then '-' else c)
              (replay_line k.k_lineage);
        e_kind =
          (match k.k_input with Pascal_src _ -> "pascal" | If_stream _ -> "if");
        e_text = render_input k.k_input;
      })
    r.g_kept

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

(** Write each finding's reproducer under [dir]; returns the paths. *)
let write_corpus (dir : string) (r : report) : string list =
  match
    List.filter (fun f -> f.f_repro <> "") r.r_findings
  with
  | [] -> []
  | fs ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.map
        (fun f ->
          let ext = if f.f_kind = "pascal" then "pas" else "ifl" in
          let path =
            Filename.concat dir
              (Fmt.str "seed%d-case%d-%s.%s" r.r_seed f.f_index f.f_oracle ext)
          in
          let oc = open_out path in
          let header =
            Fmt.str
              "fuzz reproducer: seed=%d index=%d oracle=%s (%a) — replay: pasc fuzz --seed %d --start %d --count 1"
              r.r_seed f.f_index f.f_oracle Oracle.pp_status f.f_status
              r.r_seed f.f_index
          in
          output_string oc
            (if f.f_kind = "pascal" then "{ " ^ header ^ " }\n"
             else "* " ^ header ^ "\n");
          output_string oc f.f_repro;
          output_string oc "\n";
          close_out oc;
          path)
        fs
