(* The incremental-construction oracle (DESIGN.md §12).

   Random single-production edits — template tweaks, production
   duplication, production removal — are applied textually to both real
   specs, and the incremental rebuild (spliced from the previous build
   of the unedited spec) must be byte-identical to a from-scratch build
   of the edited text, and emit the same code for the named programs.
   When an edit makes the spec invalid, both paths must report the same
   errors.  The @incremental alias runs this executable.

   Also here: the v4->v5 bundle-format gate (a stale-format cache entry
   is rejected as corrupt and migrated by a clean rebuild) and the
   cross-process cache path (a miss on an edited spec follows the
   lineage pointer and splices). *)

let rec find_up ?(depth = 6) dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else if depth = 0 then None
  else find_up ~depth:(depth - 1) (Filename.dirname dir) rel

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spec_text name =
  match find_up (Sys.getcwd ()) (Filename.concat "specs" name) with
  | Some p -> read_file p
  | None -> failwith ("cannot locate specs/" ^ name)

let fail fmt = Fmt.kstr failwith fmt

(* -- textual spec surgery ----------------------------------------------------

   Edits are applied to the raw text, exactly as a spec author would
   make them, so line numbers shift and the oracle exercises the
   line-independence of the content hashes. *)

let lines_of text = String.split_on_char '\n' text
let text_of lines = String.concat "\n" lines

let is_header line =
  String.length line > 0
  && (not (List.mem line.[0] [ ' '; '\t'; '*'; '$' ]))
  &&
  let rec has_prod i =
    i + 3 <= String.length line
    && (String.sub line i 3 = "::=" || has_prod (i + 1))
  in
  has_prod 0

(* (start, length) of every production block: a left-aligned [lhs ::= rhs]
   header plus its indented template/comment lines up to the next header. *)
let blocks (lines : string list) : (int * int) list =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let rec next_header i = if i >= n || is_header arr.(i) then i else next_header (i + 1) in
  let rec go i acc =
    let i = next_header i in
    if i >= n then List.rev acc
    else
      let stop = next_header (i + 1) in
      go stop ((i, stop - i) :: acc)
  in
  go 0 []

let pick lst seed =
  match lst with
  | [] -> None
  | _ -> Some (List.nth lst (abs seed mod List.length lst))

(* duplicate one [modifies ...] template line: a genuine single-production
   template change that keeps the spec valid *)
let edit_tweak text seed =
  let lines = lines_of text in
  let candidates =
    List.filteri (fun _ _ -> true) lines
    |> List.mapi (fun i l -> (i, l))
    |> List.filter (fun (_, l) ->
           let t = String.trim l in
           String.length t > 9 && String.sub t 0 9 = "modifies ")
  in
  match pick candidates seed with
  | None -> None
  | Some (i, l) ->
      Some
        (text_of
           (List.concat
              (List.mapi (fun j x -> if j = i then [ x; l ] else [ x ]) lines)))

let edit_remove text seed =
  let lines = lines_of text in
  match pick (blocks lines) seed with
  | None -> None
  | Some (start, len) ->
      Some
        (text_of
           (List.filteri (fun i _ -> i < start || i >= start + len) lines))

let edit_duplicate text seed =
  let lines = lines_of text in
  match pick (blocks lines) seed with
  | None -> None
  | Some (start, len) ->
      let block =
        List.filteri (fun i _ -> i >= start && i < start + len) lines
      in
      Some (text_of (lines @ block))

type kind = Tweak | Remove | Duplicate

let apply kind text seed =
  match kind with
  | Tweak -> edit_tweak text seed
  | Remove -> edit_remove text seed
  | Duplicate -> edit_duplicate text seed

let kind_name = function
  | Tweak -> "template-tweak"
  | Remove -> "production-remove"
  | Duplicate -> "production-duplicate"

(* -- the oracle --------------------------------------------------------------- *)

type subject = { name : string; target : Machine.Target.t; text : string }

let subjects =
  lazy
    [
      {
        name = "amdahl470.cgg";
        target = Machine.Targets.default;
        text = spec_text "amdahl470.cgg";
      };
      {
        name = "risc32.cgg";
        target = Machine.Targets.find_exn "risc32";
        text = spec_text "risc32.cgg";
      };
    ]

let errors_str es = Fmt.str "%a" (Fmt.list Cogg.Cogg_build.pp_error) es

(* one scratch build of each unedited spec: the "previous revision"
   every random edit splices from *)
let previous (s : subject) : Cogg.Tables.t =
  match Cogg.Cogg_build.build_string ~target:s.target s.text with
  | Ok t -> t
  | Error es -> fail "%s: baseline build failed: %s" s.name (errors_str es)

(* the named programs' listings, object bytes and errors, digested *)
let emitted (t : Cogg.Tables.t) : string =
  Pipeline.Batch.fingerprint
    (Pipeline.Batch.compile_all t
       (Array.of_list
          (List.map
             (fun (name, source) -> { Pipeline.Batch.name; source })
             Pipeline.Programs.all)))

let check_edit ~prev (s : subject) kind seed : unit =
  match apply kind s.text seed with
  | None -> ()
  | Some edited -> (
      let scratch = Cogg.Cogg_build.build_string ~target:s.target edited in
      let incr =
        Cogg.Cogg_build.build_incremental_string ~target:s.target
          ~previous:prev edited
      in
      match (scratch, incr) with
      | Ok a, Ok (b, stats) ->
          let wa = Cogg.Tables_io.write a and wb = Cogg.Tables_io.write b in
          if wa <> wb then
            fail "%s %s(%d): incremental bytes differ from scratch (%s)"
              s.name (kind_name kind) seed
              (Fmt.str "%a" Cogg.Cogg_build.pp_incr_stats stats);
          (* the parse table is not in the bundle either: reloaded, the
             edited spec rebuilds the one its scratch build made *)
          let pa = Cogg.Tables.parse a
          and pb = Cogg.Tables.parse (Cogg.Tables_io.read wb) in
          if
            pa.Cogg.Parse_table.actions <> pb.Cogg.Parse_table.actions
            || pa.Cogg.Parse_table.conflicts <> pb.Cogg.Parse_table.conflicts
            || Cogg.Parse_table.n_states pb <> Cogg.Tables.n_states a
          then
            fail "%s %s(%d): the reloaded bundle rebuilds another parse table"
              s.name (kind_name kind) seed;
          (* what emission derives from the templates is not in the
             bundle: both tables must also emit the same code *)
          if emitted a <> emitted b then
            fail "%s %s(%d): incremental tables emit other code than scratch"
              s.name (kind_name kind) seed;
          (* a pure template tweak must actually splice; anything that
             recompiles every template defeats the point *)
          if kind = Tweak && not stats.Cogg.Cogg_build.spliced_tables then
            fail "%s %s(%d): template tweak did not splice the tables"
              s.name (kind_name kind) seed
      | Error ea, Error eb ->
          if errors_str ea <> errors_str eb then
            fail "%s %s(%d): error reports differ:\n%s\nvs\n%s" s.name
              (kind_name kind) seed (errors_str ea) (errors_str eb)
      | Ok _, Error es ->
          fail "%s %s(%d): incremental failed where scratch succeeded: %s"
            s.name (kind_name kind) seed (errors_str es)
      | Error es, Ok _ ->
          fail "%s %s(%d): incremental succeeded where scratch failed: %s"
            s.name (kind_name kind) seed (errors_str es))

let oracle_tests () =
  List.iter
    (fun s ->
      let prev = previous s in
      (* deterministic smoke of each edit kind first, then the random sweep *)
      List.iter
        (fun kind -> check_edit ~prev s kind 7)
        [ Tweak; Remove; Duplicate ];
      let gen =
        QCheck.Gen.(
          pair (oneofl [ Tweak; Remove; Duplicate ]) (int_bound 100_000))
      in
      let arb =
        QCheck.make gen ~print:(fun (k, seed) ->
            Printf.sprintf "%s seed=%d" (kind_name k) seed)
      in
      let test =
        QCheck.Test.make ~count:12
          ~name:(Printf.sprintf "%s: incremental == scratch" s.name)
          arb
          (fun (kind, seed) ->
            check_edit ~prev s kind seed;
            true)
      in
      QCheck.Test.check_exn test;
      Printf.printf "incremental oracle: %s ok (3 fixed + 12 random edits)\n%!"
        s.name)
    (Lazy.force subjects)

(* -- format gate: stale bundles are rejected and migrated -------------------- *)

let fresh_cache_dir () =
  let path = Filename.temp_file "cogg-incr-oracle" "" in
  Sys.remove path;
  path

let format_gate_tests () =
  let s = List.hd (Lazy.force subjects) in
  let dir = fresh_cache_dir () in
  let path =
    Cogg.Tables_cache.entry_path ~cache_dir:dir ~target:s.target s.text
  in
  Cogg.Tables_cache.(ignore (prune ~cache_dir:dir ()));
  let build () =
    Cogg.Tables_cache.build_text ~cache_dir:dir ~target:s.target s.text
  in
  (match build () with
  | Ok (_, Cogg.Tables_cache.Built) -> ()
  | Ok (_, o) ->
      fail "expected a scratch build, got %s"
        (Fmt.str "%a" Cogg.Tables_cache.pp_origin o)
  | Error es -> fail "cache build failed: %s" (errors_str es));
  (* a well-formed current body behind each older magic *)
  let current = read_file path in
  let body = String.sub current 4 (String.length current - 4) in
  List.iter
    (fun magic ->
      let stale = magic ^ body in
      (* an older bundle must be refused by the reader, as stale... *)
      (match Cogg.Tables_io.read stale with
      | exception Cogg.Tables_io.Corrupt m ->
          if not (String.length m >= 5 && String.sub m 0 5 = "stale") then
            fail "a %s bundle was refused, but not as stale: %s" magic m
      | _ ->
          fail "a %s bundle was accepted by the %s reader" magic
            Cogg.Tables_io.magic);
      (* ...and a cache entry holding one must migrate: clean miss,
         rebuild, entry rewritten in the current format *)
      let oc = open_out_bin path in
      output_string oc stale;
      close_out oc;
      (match build () with
      | Ok (_, (Cogg.Tables_cache.Built | Cogg.Tables_cache.Built_incremental _))
        -> ()
      | Ok (_, Cogg.Tables_cache.Cache_hit) ->
          fail "a stale %s entry was served as a hit" magic
      | Error es -> fail "%s migration rebuild failed: %s" magic (errors_str es));
      (match build () with
      | Ok (_, Cogg.Tables_cache.Cache_hit) -> ()
      | Ok (_, o) ->
          fail "migrated %s entry should hit, got %s" magic
            (Fmt.str "%a" Cogg.Tables_cache.pp_origin o)
      | Error es ->
          fail "post-%s-migration build failed: %s" magic (errors_str es));
      Printf.printf "incremental oracle: %s->%s rejection/migration ok\n%!"
        magic Cogg.Tables_io.magic)
    [ "CGB4"; "CGB5"; "CGB6"; "CGB7"; "CGB8" ]

(* -- cross-process path: an edited spec splices through the cache ------------- *)

let cache_splice_tests () =
  let s = List.hd (Lazy.force subjects) in
  let dir = fresh_cache_dir () in
  let build text =
    match Cogg.Tables_cache.build_text ~cache_dir:dir ~target:s.target text with
    | Ok r -> r
    | Error es -> fail "cache build failed: %s" (errors_str es)
  in
  (match build s.text with
  | _, Cogg.Tables_cache.Built -> ()
  | _, o ->
      fail "first build should be scratch, got %s"
        (Fmt.str "%a" Cogg.Tables_cache.pp_origin o));
  let edited = Option.get (edit_tweak s.text 3) in
  (match build edited with
  | t, Cogg.Tables_cache.Built_incremental st ->
      if not st.Cogg.Cogg_build.spliced_tables then
        fail "cache splice: tables were rebuilt for a template tweak";
      let scratch =
        match Cogg.Cogg_build.build_string ~target:s.target edited with
        | Ok t -> t
        | Error es -> fail "scratch build failed: %s" (errors_str es)
      in
      if Cogg.Tables_io.write t <> Cogg.Tables_io.write scratch then
        fail "cache splice: spliced bundle differs from scratch";
      (* the stored entry must hold those same bytes *)
      let stored =
        read_file
          (Cogg.Tables_cache.entry_path ~cache_dir:dir ~target:s.target edited)
      in
      if stored <> Cogg.Tables_io.write scratch then
        fail "cache splice: stored entry differs from scratch bytes"
  | _, o ->
      fail "edited spec should rebuild incrementally, got %s"
        (Fmt.str "%a" Cogg.Tables_cache.pp_origin o));
  Printf.printf "incremental oracle: cache lineage splice ok\n%!"

let () =
  oracle_tests ();
  format_gate_tests ();
  cache_splice_tests ();
  Printf.printf "incremental oracle: all checks passed\n%!"
