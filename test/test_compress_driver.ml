(* Driver-equivalence tests: the comb-compressed dispatch path must take
   exactly the same actions as the flat (uncompressed) table, both
   per-entry and end-to-end (byte-identical generated code), and the
   array-backed driver must keep reporting accurate parse statistics. *)

let check_int = Alcotest.(check int)

let amdahl () = Lazy.force Util.amdahl_tables

let all_methods =
  [
    ("none", Cogg.Compress.No_compression);
    ("defaults", Cogg.Compress.Defaults_only);
    ("comb", Cogg.Compress.Comb_only);
    ("defaults+comb", Cogg.Compress.Defaults_and_comb);
  ]

(* Default reductions may soften an Error entry into a Reduce (delayed
   error detection); any other disagreement is a packing bug. *)
let softening_allowed = function
  | Cogg.Compress.Defaults_only | Cogg.Compress.Defaults_and_comb -> true
  | Cogg.Compress.No_compression | Cogg.Compress.Comb_only -> false

(* [each_entry t f] packs [t]'s parse table under every method and calls
   [f name method_ c state sym] on every (state, symbol) entry. *)
let each_entry (t : Cogg.Tables.t) f =
  let pt = Cogg.Tables.parse t in
  let n_syms = Cogg.Grammar.n_syms t.Cogg.Tables.grammar in
  List.iter
    (fun (name, method_) ->
      let c = Cogg.Compress.compress ~method_ pt in
      for state = 0 to Cogg.Parse_table.n_states pt - 1 do
        for sym = 0 to n_syms - 1 do
          f name method_ c state sym
        done
      done)
    all_methods

let per_entry_equivalence tables () =
  let t = Lazy.force tables in
  let pt = Cogg.Tables.parse t in
  each_entry t (fun name method_ c state sym ->
      let a = Cogg.Parse_table.action pt state sym in
      let b = Cogg.Compress.action c state sym in
      if a <> b then
        match (a, b) with
        | Cogg.Parse_table.Error, Cogg.Parse_table.Reduce _
          when softening_allowed method_ ->
            ()
        | _ ->
            Alcotest.failf "%s: action differs at state %d sym %d" name state
              sym)

(* The raw-integer probe the driver runs on and its decoded form must be
   two views of the same entry. *)
let test_action_code_consistent () =
  each_entry (amdahl ()) (fun name _ c state sym ->
      let code = Cogg.Compress.action_code c state sym in
      if Cogg.Compress.decode_action code <> Cogg.Compress.action c state sym
      then
        Alcotest.failf "%s: decode mismatch at state %d sym %d" name state sym)

(* The driver's inner loop probes through [dispatcher]'s closure, not
   [action_code]; the two must agree on every entry. *)
let test_dispatcher_agrees () =
  each_entry (amdahl ()) (fun name _ c state sym ->
      if Cogg.Compress.(dispatcher c state sym <> action_code c state sym) then
        Alcotest.failf "%s: dispatcher differs at state %d sym %d" name state
          sym)

(* [verify] is the oracle the other tests lean on, so it must reject a
   wrong packing, not only accept a right one. *)
let test_verify_catches_corruption () =
  let pt = Cogg.Tables.parse (amdahl ()) in
  let c = Cogg.Compress.compress pt in
  (* +2 keeps an entry's kind and moves it to the next state or production *)
  let bump col i =
    Cogg.Cells.to_array col
    |> Array.mapi (fun j v -> if j = i then v + 2 else v)
    |> Cogg.Cells.of_array
  in
  let first_set col =
    Option.get (Array.find_index (( <> ) 0) (Cogg.Cells.to_array col))
  in
  List.iter
    (fun (what, c') ->
      if Result.is_ok (Cogg.Compress.verify c' pt) then
        Alcotest.failf "verify accepted a changed %s" what)
    Cogg.Compress.
      [
        ("packed cell", { c with value = bump c.value (first_set c.check) });
        ( "row default",
          { c with defaults = bump c.defaults (first_set c.defaults) } );
      ]

(* The table carried in Tables.t is the one Cogg_build packed; the driver
   probes it directly, so it must verify against the flat table. *)
let test_carried_table_verifies () =
  let t = amdahl () in
  match Cogg.Compress.verify t.Cogg.Tables.compressed (Cogg.Tables.parse t) with
  | Ok softened ->
      Alcotest.(check bool) "defaults soften some errors" true (softened > 0)
  | Error m -> Alcotest.fail m

let programs =
  [
    ("gcd", Pipeline.Programs.gcd);
    ("sieve", Pipeline.Programs.sieve);
    ("appendix1", Pipeline.Programs.appendix1_equation);
  ]

(* Each program is compiled once through the pipeline; its linearized IF
   then drives the code generator under each dispatch. *)
let flat_and_comb src =
  let t = amdahl () in
  match Pipeline.compile t src with
  | Error m -> Alcotest.failf "compile failed: %s" m
  | Ok c ->
      let generate dispatch =
        match Cogg.Codegen.generate ~dispatch t c.Pipeline.tokens with
        | Ok r -> r
        | Error e ->
            Alcotest.failf "codegen failed: %a" Cogg.Codegen.pp_error e
      in
      (generate Cogg.Driver.Flat, generate Cogg.Driver.Comb)

(* End to end: both dispatch paths must produce byte-identical code. *)
let test_flat_comb_identical_code () =
  List.iter
    (fun (name, src) ->
      let flat, comb = flat_and_comb src in
      Alcotest.(check string)
        (name ^ ": identical listings")
        flat.Cogg.Codegen.listing comb.Cogg.Codegen.listing;
      Alcotest.(check bytes)
        (name ^ ": identical code bytes")
        flat.Cogg.Codegen.resolved.Cogg.Loader_gen.code
        comb.Cogg.Codegen.resolved.Cogg.Loader_gen.code)
    programs

(* Well-formed IF never exercises a softened (defaulted) entry on a path
   that changes the action sequence, so the parse statistics agree too. *)
let test_outcomes_agree () =
  List.iter
    (fun (name, src) ->
      let flat, comb = flat_and_comb src in
      let fo = flat.Cogg.Codegen.outcome in
      let co = comb.Cogg.Codegen.outcome in
      check_int (name ^ ": reductions") fo.Cogg.Driver.reductions
        co.Cogg.Driver.reductions;
      check_int (name ^ ": shifts") fo.Cogg.Driver.shifts co.Cogg.Driver.shifts;
      check_int (name ^ ": max_stack") fo.Cogg.Driver.max_stack
        co.Cogg.Driver.max_stack;
      (* every stack slot was shifted onto the stack exactly once *)
      Alcotest.(check bool)
        (name ^ ": max_stack bounded by shifts")
        true
        (co.Cogg.Driver.max_stack > 0
        && co.Cogg.Driver.max_stack <= co.Cogg.Driver.shifts))
    programs

(* The paper's section-1 machine and example statement (A := A + B): the
   parse is small and deterministic, pinning the statistics exactly (a
   regression guard for the array-backed stacks, whose depth is tracked
   incrementally on shift rather than recounted with [List.length]).
   The depth counts the bottom sentinel plus every shifted token,
   including re-shifted reduction results. *)
let intro_spec =
  {|
* The artificial machine of paper section 1.
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word, iadd, store, ret
$Opcodes
 l, ar, st, bcr
$Constants
 fifteen = 15
$Productions
r.2 ::= word d.1
 using r.2
 l     r.2,d.1
r.1 ::= iadd r.1 r.2
 modifies r.1
 ar    r.1,r.2
lambda ::= store word d.1 r.2
 st    r.2,d.1
lambda ::= ret
 need r.14
 bcr   fifteen,r.14
|}

let intro_tables () =
  match Cogg.Cogg_build.build_string intro_spec with
  | Ok t -> t
  | Error es ->
      Alcotest.failf "spec build failed: %a"
        (Fmt.list Cogg.Cogg_build.pp_error)
        es

let test_max_stack_exact () =
  let t = intro_tables () in
  let if_text = "store word d:100 iadd word d:100 word d:104 ret" in
  List.iter
    (fun (name, dispatch) ->
      match Cogg.Codegen.generate_string ~dispatch t if_text with
      | Error m -> Alcotest.failf "%s: %s" name m
      | Ok r ->
          let o = r.Cogg.Codegen.outcome in
          check_int (name ^ ": exact shifts") 17 o.Cogg.Driver.shifts;
          check_int (name ^ ": exact reductions") 8 o.Cogg.Driver.reductions;
          check_int (name ^ ": exact max_stack") 9 o.Cogg.Driver.max_stack)
    [ ("flat", Cogg.Driver.Flat); ("comb", Cogg.Driver.Comb) ]

(* Malformed IF must fail cleanly under both dispatches: comb may detect
   the error later (after default reductions), but never accepts. *)
let test_invalid_if_rejected_both () =
  let t = amdahl () in
  List.iter
    (fun (name, dispatch) ->
      match
        Cogg.Codegen.generate_string ~dispatch t "store word dsp:0 ret"
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: invalid IF accepted" name)
    [ ("flat", Cogg.Driver.Flat); ("comb", Cogg.Driver.Comb) ]

(* The row default is the most frequent reduction and a tie goes to the
   smaller encoding: a strict order, so the packed bytes never depend on
   hash-table iteration order. *)
let test_default_tie_break () =
  let t = intro_tables () in
  let row cells =
    Array.init (Cogg.Grammar.n_syms t.Cogg.Tables.grammar) (fun sym ->
        Option.value (List.nth_opt cells sym) ~default:Cogg.Parse_table.Error)
  in
  let open Cogg.Parse_table in
  let pt = Cogg.Tables.parse t in
  let actions = Array.copy pt.actions in
  actions.(0) <- row [ Reduce 2; Reduce 1; Reduce 2; Reduce 1; Shift 1 ];
  actions.(1) <- row [ Reduce 1; Reduce 2; Reduce 2; Reduce 1; Reduce 2 ];
  List.iter
    (fun method_ ->
      let c = Cogg.Compress.compress ~method_ { pt with actions } in
      let default state =
        Cogg.Compress.(
          decode_action Cogg.Cells.(get c.defaults (get c.row_index state)))
      in
      if (default 0, default 1) <> (Reduce 1, Reduce 2) then
        Alcotest.fail "row defaults do not follow (count, -encoding)")
    Cogg.Compress.[ Defaults_only; Defaults_and_comb ]

(* -- the comb packer against its reference ------------------------------------ *)

(* Reference.pack_rows is the first fit Compress.pack_rows used before
   its word-parallel search: rows densest first (ties by row id), each
   probed one candidate offset at a time from the [min_free] cursor.
   The word-parallel packer must place every row where it does. *)

let show_rows rows =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun r es ->
            Fmt.str "row %d: %s" r
              (String.concat " "
                 (List.map (fun (s, v) -> Fmt.str "%d=%d" s v) es)))
          rows))

(* The first index at which two packings differ, as a message. *)
let packing_diff (o, v, c) (o', v', c') =
  let first name a b =
    if Array.length a <> Array.length b then
      Some
        (Fmt.str "%s: length %d vs %d" name (Array.length a) (Array.length b))
    else
      Option.map
        (fun i -> Fmt.str "%s.(%d): %d vs %d" name i a.(i) b.(i))
        (Array.find_index Fun.id (Array.map2 ( <> ) a b))
  in
  List.find_map Fun.id
    [ first "offsets" o o'; first "value" v v'; first "check" c c' ]

(* The rows Compress fed the packer for a built table: for each shared
   row, the (column, encoded action) entries of the flat table that are
   neither errors nor the row default, in column order. *)
let comb_rows (t : Cogg.Tables.t) : (int * int) list array =
  let c = t.Cogg.Tables.compressed in
  let rows = Array.make (Cogg.Cells.length c.Cogg.Compress.offsets) [] in
  Array.iteri
    (fun state actions ->
      let rid = Cogg.Cells.get c.Cogg.Compress.row_index state in
      let d = Cogg.Cells.get c.Cogg.Compress.defaults rid in
      rows.(rid) <-
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun sym a ->
                  let v = Cogg.Compress.encode_action a in
                  if v <> d && v <> 0 then Some (sym, v) else None)
                actions)))
    (Cogg.Tables.parse t).Cogg.Parse_table.actions;
  rows

let test_packer_matches_reference tables () =
  let t = Lazy.force tables in
  let rows = comb_rows t in
  let packed = Cogg.Compress.pack_rows rows in
  (match packing_diff (Reference.pack_rows rows) packed with
  | None -> ()
  | Some d -> Alcotest.failf "packer differs from the reference at %s" d);
  (* and it is the comb the build carries *)
  let c = t.Cogg.Tables.compressed in
  let carried =
    Cogg.Cells.(
      to_array c.Cogg.Compress.offsets,
      to_array c.Cogg.Compress.value,
      to_array c.Cogg.Compress.check)
  in
  match packing_diff carried packed with
  | None -> ()
  | Some d -> Alcotest.failf "packer differs from the carried comb at %s" d

(* Random row sets.  A row is empty, a single column 0, wide and sparse
   (columns up to 300, so windows straddle several 62-bit words), or
   narrow and dense; lengths repeat often, so densest-first order leans
   on its row-id tie-break, and 40 rows of up to 20 entries overrun the
   packer's initial capacity (4 cells per row). *)
let gen_rows : (int * int) list array QCheck.Gen.t =
  let open QCheck.Gen in
  let row ~max_len ~span =
    map
      (fun cols -> List.map (fun s -> (s, 2 + (s * 7 mod 97))) cols)
      (map
         (List.sort_uniq Int.compare)
         (list_size (int_range 1 max_len) (int_bound (span - 1))))
  in
  map Array.of_list
    (list_size (int_range 0 40)
       (frequency
          [
            (1, return []);
            (1, return [ (0, 5) ]);
            (3, row ~max_len:12 ~span:300);
            (3, row ~max_len:20 ~span:24);
          ]))

let prop_packer_matches_reference =
  QCheck.Test.make ~count:500 ~name:"random rows: packer = reference"
    (QCheck.make gen_rows ~print:show_rows)
    (fun rows ->
      match
        packing_diff (Reference.pack_rows rows) (Cogg.Compress.pack_rows rows)
      with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "differs at %s" d)

let () =
  Alcotest.run "compress_driver"
    [
      ( "equivalence",
        [
          Alcotest.test_case "per-entry, all methods" `Quick
            (per_entry_equivalence Util.amdahl_tables);
          Alcotest.test_case "action_code consistent" `Quick
            test_action_code_consistent;
          Alcotest.test_case "carried table verifies" `Quick
            test_carried_table_verifies;
          Alcotest.test_case "risc32 per-entry, all methods" `Quick
            (per_entry_equivalence Util.risc32_tables);
          Alcotest.test_case "dispatcher = action_code" `Quick
            test_dispatcher_agrees;
          Alcotest.test_case "verify catches corruption" `Quick
            test_verify_catches_corruption;
          Alcotest.test_case "default tie-break" `Quick test_default_tie_break;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "flat = comb code bytes" `Quick
            test_flat_comb_identical_code;
          Alcotest.test_case "outcomes agree" `Quick test_outcomes_agree;
          Alcotest.test_case "invalid IF rejected" `Quick
            test_invalid_if_rejected_both;
        ] );
      ( "packer",
        [
          Alcotest.test_case "amdahl470 rows = reference" `Quick
            (test_packer_matches_reference Util.amdahl_tables);
          Alcotest.test_case "risc32 rows = reference" `Quick
            (test_packer_matches_reference Util.risc32_tables);
          QCheck_alcotest.to_alcotest prop_packer_matches_reference;
        ] );
      ( "stack accounting",
        [ Alcotest.test_case "exact max_stack" `Quick test_max_stack_exact ] );
    ]
