(* Table statistics (Table 1), serialization sizes (Table 2) and the
   grammar-subset ablation machinery. *)

let check_int = Alcotest.(check int)

let spec () =
  match Cogg.Spec_parse.of_file (Util.spec_path "amdahl470.cgg") with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Cogg.Spec_parse.pp_error e

let tables () = Lazy.force Util.amdahl_tables

(* -- Table 1 -------------------------------------------------------------- *)

let test_table1_consistency () =
  let s1 = Cogg.Stats.table1 (spec ()) (tables ()) in
  check_int "entries = states * xdim"
    (s1.Cogg.Stats.states * s1.Cogg.Stats.x_dimension)
    s1.Cogg.Stats.entries;
  Alcotest.(check bool)
    "significant <= entries" true
    (s1.Cogg.Stats.significant <= s1.Cogg.Stats.entries);
  Alcotest.(check bool)
    "templates >= productions" true
    (s1.Cogg.Stats.templates >= s1.Cogg.Stats.productions);
  Alcotest.(check bool)
    "same order of magnitude as the paper" true
    (s1.Cogg.Stats.states > 300
    && s1.Cogg.Stats.productions > 150
    && s1.Cogg.Stats.x_dimension > 70
    && s1.Cogg.Stats.x_dimension < 100)

let test_table1_declared_counts () =
  let s1 = Cogg.Stats.table1 (spec ()) (tables ()) in
  let t = tables () in
  let st = t.Cogg.Tables.symtab in
  check_int "declared = sum of sections"
    (List.length st.Cogg.Symtab.nonterminals
    + List.length st.Cogg.Symtab.terminals
    + List.length st.Cogg.Symtab.operators
    + List.length st.Cogg.Symtab.opcodes
    + List.length st.Cogg.Symtab.constants
    + List.length st.Cogg.Symtab.semantics)
    s1.Cogg.Stats.symbols_declared

(* -- serialization ---------------------------------------------------------- *)

let test_template_array_roundtrip () =
  let t = tables () in
  let bytes = Cogg.Tables_io.template_array_bytes t in
  let back = Cogg.Tables_io.read_template_array bytes in
  check_int "same length" (Array.length t.Cogg.Tables.compiled)
    (Array.length back);
  Array.iteri
    (fun i orig ->
      match (orig, back.(i)) with
      | None, None -> ()
      | Some a, Some b ->
          (* structural equality of the compiled production *)
          if a <> b then Alcotest.failf "production %d differs after roundtrip" i
      | _ -> Alcotest.failf "presence differs at %d" i)
    t.Cogg.Tables.compiled

let test_template_array_corrupt () =
  (match Cogg.Tables_io.read_template_array "JUNK" with
  | exception Cogg.Tables_io.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let t = tables () in
  let bytes = Cogg.Tables_io.template_array_bytes t in
  let truncated = String.sub bytes 0 (String.length bytes / 2) in
  match Cogg.Tables_io.read_template_array truncated with
  | exception Cogg.Tables_io.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated payload accepted"

let test_sizes_sane () =
  let s = Cogg.Tables_io.sizes (tables ()) in
  Alcotest.(check bool)
    "compressed < uncompressed" true
    (s.Cogg.Tables_io.compressed_table < s.Cogg.Tables_io.uncompressed_table);
  Alcotest.(check bool)
    "template array nonempty" true
    (s.Cogg.Tables_io.template_array > 1000);
  (* parse table serialization is as large as the accounting claims *)
  let c =
    Cogg.Compress.compress ~method_:Cogg.Compress.Defaults_and_comb
      (tables ()).Cogg.Tables.parse
  in
  let serialized = Cogg.Tables_io.parse_table_bytes c in
  Alcotest.(check bool)
    "serialized table within 2x of accounting" true
    (String.length serialized < 2 * c.Cogg.Compress.size_bytes)

(* -- compressed tables drive the parser identically --------------------------- *)

let test_compressed_lookup_equivalence () =
  let t = tables () in
  let pt = t.Cogg.Tables.parse in
  let c = Cogg.Compress.compress pt in
  let n_syms = Cogg.Grammar.n_syms t.Cogg.Tables.grammar in
  let softened = ref 0 in
  for state = 0 to Cogg.Parse_table.n_states pt - 1 do
    for sym = 0 to n_syms - 1 do
      let a = Cogg.Parse_table.action pt state sym in
      let b = Cogg.Compress.action c state sym in
      if a <> b then
        match (a, b) with
        | Cogg.Parse_table.Error, Cogg.Parse_table.Reduce _ -> incr softened
        | _ -> Alcotest.failf "lookup differs at state %d sym %d" state sym
    done
  done;
  Alcotest.(check bool) "some errors softened to default reductions" true
    (!softened > 0)

(* -- subsets -------------------------------------------------------------------- *)

let test_subsets_shrink_monotonically () =
  let sp = spec () in
  let sizes =
    List.map
      (fun lvl ->
        List.length (Cogg.Spec_subset.filter lvl sp).Cogg.Spec_ast.productions)
      Cogg.Spec_subset.all_levels
  in
  match sizes with
  | [ full; nofused; intonly; core ] ->
      Alcotest.(check bool) "monotone" true
        (full > nofused && nofused > intonly && intonly > core);
      Alcotest.(check bool) "core is small" true (core < 50)
  | _ -> Alcotest.fail "levels changed"

let test_subsets_all_build () =
  List.iter
    (fun (lvl, r) ->
      match r with
      | Ok _ -> ()
      | Error es ->
          Alcotest.failf "%s: %a"
            (Cogg.Spec_subset.level_name lvl)
            (Fmt.list Cogg.Cogg_build.pp_error) es)
    (Cogg.Spec_subset.build_levels (spec ()))

let test_subsets_generate_correct_code () =
  List.iter
    (fun (lvl, r) ->
      match r with
      | Error _ -> Alcotest.fail "build failed"
      | Ok t -> (
          match Pipeline.verify ~cse:false t Pipeline.Programs.gcd with
          | Ok v ->
              Alcotest.(check bool)
                (Cogg.Spec_subset.level_name lvl ^ " correct")
                true v.Pipeline.agreed
          | Error m -> Alcotest.failf "%s: %s" (Cogg.Spec_subset.level_name lvl) m))
    (Cogg.Spec_subset.build_levels (spec ()))

let test_full_beats_core_on_code_size () =
  let sp = spec () in
  let build lvl =
    match Cogg.Cogg_build.build (Cogg.Spec_subset.filter lvl sp) with
    | Ok t -> t
    | Error _ -> Alcotest.fail "build failed"
  in
  let code_bytes t =
    match Pipeline.compile ~cse:false t Pipeline.Programs.appendix1_equation with
    | Ok c ->
        Bytes.length c.Pipeline.gen.Cogg.Codegen.resolved.Cogg.Loader_gen.code
    | Error m -> Alcotest.fail m
  in
  let full = code_bytes (build Cogg.Spec_subset.Full) in
  let nofused = code_bytes (build Cogg.Spec_subset.No_fused) in
  Alcotest.(check bool)
    (Printf.sprintf "redundant grammar gives better code (%d < %d)" full nofused)
    true (full < nofused)

(* -- full bundle roundtrip -------------------------------------------------- *)

let test_bundle_roundtrip_drives_codegen () =
  let t = tables () in
  let bytes = Cogg.Tables_io.write t in
  let t2 = Cogg.Tables_io.read bytes in
  (* the reloaded bundle must generate byte-identical code *)
  List.iter
    (fun (name, src) ->
      match (Pipeline.compile t src, Pipeline.compile t2 src) with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (name ^ " identical listings")
            a.Pipeline.gen.Cogg.Codegen.listing
            b.Pipeline.gen.Cogg.Codegen.listing
      | Error m, _ | _, Error m -> Alcotest.failf "%s: %s" name m)
    [ ("gcd", Pipeline.Programs.gcd);
      ("appendix1", Pipeline.Programs.appendix1_equation);
      ("classify", Pipeline.Programs.classify) ]

(* the reader's message for a bundle it must refuse as corrupt *)
let rejected what bytes =
  match Cogg.Tables_io.read bytes with
  | exception Cogg.Tables_io.Corrupt m -> m
  | _ -> Alcotest.failf "a bundle with %s was accepted" what

let test_bundle_rejects_garbage () =
  ignore (rejected "bad magic" "NOPE");
  let bytes = Cogg.Tables_io.write (tables ()) in
  let truncated = String.sub bytes 0 (String.length bytes * 2 / 3) in
  ignore (rejected "a truncated body" truncated)

(* -- bundle format --------------------------------------------------------- *)

let methods =
  Cogg.Compress.[ No_compression; Defaults_only; Comb_only; Defaults_and_comb ]

(* The writer emits the current format; a well-formed body behind an
   older magic is refused as a stale format, not misread. *)
let test_bundle_format_magic () =
  let bytes = Cogg.Tables_io.write (tables ()) in
  Alcotest.(check string) "current magic" "CGB6" (String.sub bytes 0 4);
  let body = String.sub bytes 4 (String.length bytes - 4) in
  List.iter
    (fun magic ->
      Alcotest.(check bool)
        (magic ^ " named as a stale format")
        true
        (Util.contains (rejected magic (magic ^ body)) "stale"))
    [ "CGB4"; "CGB5" ]

(* Method codes are on-disk format: each packing keeps its number, and
   one that names no packing is corruption. *)
let test_method_codes () =
  Alcotest.(check (list int))
    "stable method codes" [ 0; 1; 2; 3 ]
    (List.map Cogg.Tables_io.method_code methods);
  List.iter
    (fun code ->
      match Cogg.Tables_io.method_of_code code with
      | exception Cogg.Tables_io.Corrupt _ -> ()
      | _ -> Alcotest.failf "method code %d accepted" code)
    [ -1; 4 ]

(* The bundle carries whichever packing it is given: every method's
   arrays come back identical. *)
let test_every_method_survives_bundle () =
  let t = tables () in
  List.iter
    (fun method_ ->
      let c = Cogg.Compress.compress ~method_ t.Cogg.Tables.parse in
      let t' = { t with Cogg.Tables.compressed = c } in
      if (Cogg.Tables_io.read (Cogg.Tables_io.write t')).Cogg.Tables.compressed
         <> c
      then
        Alcotest.failf "method %d changed across the bundle"
          (Cogg.Tables_io.method_code method_))
    methods

(* Out-of-range length prefixes and comb offsets are corruption, not a
   crash or an allocation sized by garbage (a negative offset would send
   the comb probe below index 0 at dispatch time). *)
let test_bundle_rejects_out_of_range () =
  let t = tables () in
  let c = t.Cogg.Tables.compressed in
  let offsets = Array.copy c.Cogg.Compress.offsets in
  offsets.(0) <- -1;
  let compressed = { c with Cogg.Compress.offsets } in
  ignore
    (rejected "a negative comb offset"
       (Cogg.Tables_io.write { t with Cogg.Tables.compressed }));
  let bytes = Cogg.Tables_io.write t in
  let with_i32 pos v =
    let b = Bytes.of_string bytes in
    Bytes.set_int32_be b pos v;
    Bytes.to_string b
  in
  (* the magic is followed by the target name's length, the name, and
     the symbol-name array's count *)
  let name = t.Cogg.Tables.target.Machine.Target.name in
  let names_count = 8 + String.length name in
  ignore (rejected "a negative string length" (with_i32 4 (-1l)));
  ignore (rejected "a string length past the end" (with_i32 4 Int32.max_int));
  ignore (rejected "a negative array count" (with_i32 names_count (-5l)))

let () =
  Alcotest.run "tables"
    [
      ( "table1",
        [
          Alcotest.test_case "consistency" `Quick test_table1_consistency;
          Alcotest.test_case "declared counts" `Quick test_table1_declared_counts;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "template roundtrip" `Quick test_template_array_roundtrip;
          Alcotest.test_case "corrupt input" `Quick test_template_array_corrupt;
          Alcotest.test_case "sizes sane" `Quick test_sizes_sane;
        ] );
      ( "compression",
        [ Alcotest.test_case "lookup equivalence" `Quick test_compressed_lookup_equivalence ] );
      ( "bundle",
        [
          Alcotest.test_case "roundtrip drives codegen" `Quick test_bundle_roundtrip_drives_codegen;
          Alcotest.test_case "rejects garbage" `Quick test_bundle_rejects_garbage;
          Alcotest.test_case "current and stale magic" `Quick
            test_bundle_format_magic;
          Alcotest.test_case "method codes are stable" `Quick test_method_codes;
          Alcotest.test_case "every method survives" `Quick
            test_every_method_survives_bundle;
          Alcotest.test_case "rejects out-of-range values" `Quick
            test_bundle_rejects_out_of_range;
        ] );
      ( "subsets",
        [
          Alcotest.test_case "shrink monotonically" `Quick test_subsets_shrink_monotonically;
          Alcotest.test_case "all build" `Quick test_subsets_all_build;
          Alcotest.test_case "correct code" `Quick test_subsets_generate_correct_code;
          Alcotest.test_case "full beats core" `Quick test_full_beats_core_on_code_size;
        ] );
    ]
