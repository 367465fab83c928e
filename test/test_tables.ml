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
  (* the bundle carries the comb at exactly the widths Table 2 charges,
     and [sizes] of a loaded bundle decodes none of its first-use
     sections *)
  List.iter
    (fun (name, t, bytes) ->
      let loaded = Cogg.Tables_io.read (Cogg.Tables_io.write t) in
      let c = loaded.Cogg.Tables.compressed in
      check_int (name ^ ": size_bytes") bytes c.Cogg.Compress.size_bytes;
      check_int (name ^ ": comb cells in the bundle") bytes
        (Cogg.Compress.cell_bytes c);
      let s' = Cogg.Tables_io.sizes loaded in
      check_int (name ^ ": flat size")
        (Array.fold_left
           (fun n row -> n + (2 * Array.length row))
           0 (Cogg.Tables.actions t))
        s'.Cogg.Tables_io.uncompressed_table;
      Alcotest.(check bool)
        (name ^ ": sizes leaves the dense rows encoded")
        false
        (Cogg.Once.is_ready loaded.Cogg.Tables.rows.Cogg.Tables.value))
    [ ("amdahl470", tables (), 63_135);
      ("risc32", Lazy.force Util.risc32_tables, 63_132) ]

(* -- compressed tables drive the parser identically --------------------------- *)

let test_compressed_lookup_equivalence () =
  let t = tables () in
  let pt = Cogg.Tables.parse t in
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

(* the sections a comb compile never needs, decoded or not yet *)
let first_use_ready (t : Cogg.Tables.t) =
  Cogg.
    [
      Once.is_ready t.Tables.rows.Tables.value;
      Once.is_ready t.Tables.conflict_log.Tables.value;
      Once.is_ready t.Tables.states.Tables.value;
    ]

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
      ("classify", Pipeline.Programs.classify) ];
  (* ...without decoding anything a comb compile does not read *)
  Alcotest.(check (list bool))
    "rows, conflicts and states still encoded"
    [ false; false; false ] (first_use_ready t2);
  (* and every first-use section decodes to what was written *)
  let p = Cogg.Tables.parse t and p2 = Cogg.Tables.parse t2 in
  Alcotest.(check bool) "dense rows" true
    (p.Cogg.Parse_table.actions = p2.Cogg.Parse_table.actions);
  Alcotest.(check bool) "conflicts" true
    (p.Cogg.Parse_table.conflicts = p2.Cogg.Parse_table.conflicts);
  Alcotest.(check bool) "hashes" true
    (t.Cogg.Tables.hashes = t2.Cogg.Tables.hashes);
  check_int "skeletal states" (Cogg.Tables.n_states t)
    (Array.length p2.Cogg.Parse_table.automaton.Cogg.Lr0.states);
  (* a decoded section is written back as the bytes it came from *)
  Alcotest.(check string) "rewritten bundle" bytes (Cogg.Tables_io.write t2)

(* The bytes a table build produces are a contract: a from-scratch build
   of either shipped spec writes the bundle these digests and lengths
   pin.  A change to LR construction, lookaheads, compression, template
   compilation, the spec hashes or the bundle layout that moves a byte
   fails here, not only in a digest computed by hand.  The second digest
   covers only the bytes after the header, which CGB7 bundles carried
   unchanged, so it is the MD5 a CGB7 header stored. *)
let pinned_bundles =
  [
    ( "amdahl470",
      "amdahl470.cgg",
      "cdcf55e9b5bad7183cd9310204684cee",
      "86f8fcd9e665eed32cf7a049dc430227",
      260_192 );
    ( "risc32",
      "risc32.cgg",
      "61bf012034f9dd878ce3c59741c1a9cf",
      "c8a48115d9fc9f2aa3a4226d778ba84e",
      263_762 );
  ]

let test_bundle_bytes_pinned () =
  let build (target, file, _, _, _) =
    match
      Cogg.Cogg_build.build_file
        ~target:(Machine.Targets.find_exn target)
        (Util.spec_path file)
    with
    | Ok t -> Cogg.Tables_io.write t
    | Error es ->
        Alcotest.failf "%s failed to build: %a" file
          (Fmt.list Cogg.Cogg_build.pp_error)
          es
  in
  let check (target, _, md5, body_md5, len) bytes =
    let h = Cogg.Tables_io.header_bytes in
    check_int (target ^ ": bundle length") len (String.length bytes);
    Alcotest.(check string)
      (target ^ ": bundle MD5")
      md5
      (Digest.to_hex (Digest.string bytes));
    Alcotest.(check string)
      (target ^ ": MD5 of the bytes after the header")
      body_md5
      (Digest.to_hex (Digest.substring bytes h (String.length bytes - h)))
  in
  List.iter (fun pin -> check pin (build pin)) pinned_bundles

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

(* -- integrity: the checksum and the structure behind it ------------------- *)

let amdahl_bundle = lazy (Cogg.Tables_io.write (tables ()))

let flip bytes pos bit =
  let b = Bytes.of_string bytes in
  Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
  Bytes.to_string b

(* Each of 1,000 single-bit flips spread evenly over the bundle is
   refused: the checksum covers every byte after the header, and the
   header is the magic, the length and the checksum itself. *)
let test_bit_flips_refused () =
  let bytes = Lazy.force amdahl_bundle in
  let n = String.length bytes in
  let flips = 1000 in
  for k = 0 to flips - 1 do
    let pos = k * n / flips and bit = k mod 8 in
    match Cogg.Tables_io.read (flip bytes pos bit) with
    | exception Cogg.Tables_io.Corrupt _ -> ()
    | _ -> Alcotest.failf "a flip of bit %d at offset %d was accepted" bit pos
  done

(* The checksum reads the bytes after the header as aligned 8-byte words.
   Any change confined to one of them is caught for certain, not just
   likely: each bit of a word reaches a lane, bit 63 included (a word fed
   through [Int64.to_int] would lose it).  The risc32 bundle ends in a
   2-byte tail; the amdahl470 bundle has none. *)
let both_bundles =
  lazy
    [ ("amdahl470", Lazy.force amdahl_bundle);
      ("risc32", Cogg.Tables_io.write (Lazy.force Util.risc32_tables)) ]

(* [bytes] with [mask]'s bytes XORed in from [pos] on, as far as the
   bundle goes, must be refused by the checksum: it comes before any
   structural check *)
let refused_by_checksum what bytes pos mask =
  let b = Bytes.of_string bytes in
  for k = 0 to Int.min 8 (Bytes.length b - pos) - 1 do
    let m = Int64.to_int (Int64.shift_right_logical mask (8 * k)) land 0xff in
    Bytes.set_uint8 b (pos + k) (Bytes.get_uint8 b (pos + k) lxor m)
  done;
  match Cogg.Tables_io.read (Bytes.to_string b) with
  | exception Cogg.Tables_io.Corrupt "checksum mismatch" -> true
  | exception Cogg.Tables_io.Corrupt m ->
      Alcotest.failf "%s: refused for another reason: %s" what m
  | _ -> false

let body_words bytes =
  let h = Cogg.Tables_io.header_bytes in
  ((String.length bytes - h) / 8, (String.length bytes - h) mod 8)

let test_word_flips_refused () =
  let h = Cogg.Tables_io.header_bytes in
  List.iter
    (fun (name, bytes) ->
      let words, tail = body_words bytes in
      let flips pos bits =
        for bit = 0 to bits - 1 do
          let what = Printf.sprintf "%s: bit %d of the word at %d" name bit pos in
          if not (refused_by_checksum what bytes pos (Int64.shift_left 1L bit))
          then Alcotest.failf "%s: a flip was accepted" what
        done
      in
      List.iter
        (fun w -> flips (h + (8 * w)) 64)
        [ 0; words / 2; words - 1 ];
      flips (h + (8 * words)) (8 * tail))
    (Lazy.force both_bundles);
  check_int "risc32 tail bytes" 2
    (snd (body_words (List.assoc "risc32" (Lazy.force both_bundles))))

let prop_word_xor_refused =
  let gen = QCheck.Gen.(triple (int_bound 1) (int_bound max_int) ui64) in
  QCheck.Test.make ~count:400
    ~name:"any nonzero XOR within one aligned word is refused"
    (QCheck.make gen ~print:(fun (b, w, m) ->
         Printf.sprintf "bundle %d, word %d, mask %Lx" b w m))
    (fun (b, w, mask) ->
      let name, bytes = List.nth (Lazy.force both_bundles) b in
      let words, tail = body_words bytes in
      let w = w mod (words + if tail > 0 then 1 else 0) in
      let pos = Cogg.Tables_io.header_bytes + (8 * w) in
      let width = Int.min 8 (String.length bytes - pos) in
      let mask =
        if width = 8 then mask
        else Int64.logand mask (Int64.pred (Int64.shift_left 1L (8 * width)))
      in
      QCheck.assume (mask <> 0L);
      refused_by_checksum
        (Printf.sprintf "%s: word %d ^ %Lx" name w mask)
        bytes pos mask)

(* A torn write leaves a proper prefix: every one is refused, at every
   offset of the header and directory, then every 64 bytes to the end. *)
let test_prefixes_refused () =
  let bytes = Lazy.force amdahl_bundle in
  let n = String.length bytes in
  let refused len =
    match Cogg.Tables_io.read (String.sub bytes 0 len) with
    | exception Cogg.Tables_io.Corrupt _ -> ()
    | _ -> Alcotest.failf "a %d-byte prefix of %d bytes was accepted" len n
  in
  for len = 0 to Cogg.Tables_io.directory_end do
    refused len
  done;
  let len = ref (Cogg.Tables_io.directory_end + 64) in
  while !len < n do
    refused !len;
    len := !len + 64
  done;
  refused (n - 1)

(* -- bundle format --------------------------------------------------------- *)

let methods =
  Cogg.Compress.[ No_compression; Defaults_only; Comb_only; Defaults_and_comb ]

(* The writer emits the current format; a well-formed body behind an
   older magic is refused as a stale format, not misread. *)
let test_bundle_format_magic () =
  let bytes = Cogg.Tables_io.write (tables ()) in
  Alcotest.(check string) "current magic" "CGB8" (String.sub bytes 0 4);
  let body = String.sub bytes 4 (String.length bytes - 4) in
  List.iter
    (fun magic ->
      Alcotest.(check bool)
        (magic ^ " named as a stale format")
        true
        (Util.contains (rejected magic (magic ^ body)) "stale"))
    [ "CGB4"; "CGB5"; "CGB6"; "CGB7" ]

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
   columns come back identical (as values: a reloaded column is a view on
   the bundle's bytes). *)
let test_every_method_survives_bundle () =
  let t = tables () in
  let contents (c : Cogg.Compress.t) =
    ( (c.n_states, c.n_syms, c.method_, c.size_bytes),
      List.map Cogg.Cells.to_array
        [ c.row_index; c.defaults; c.offsets; c.value; c.check ] )
  in
  List.iter
    (fun method_ ->
      let c = Cogg.Compress.compress ~method_ (Cogg.Tables.parse t) in
      let t' = { t with Cogg.Tables.compressed = c } in
      let back = Cogg.Tables_io.read (Cogg.Tables_io.write t') in
      if contents c <> contents back.Cogg.Tables.compressed then
        Alcotest.failf "method %d changed across the bundle"
          (Cogg.Tables_io.method_code method_))
    methods

(* A patched body under a fresh checksum: what refuses it is then the
   structural check behind the checksum, which also catches writer
   bugs. *)
let resealed bytes patch =
  let b = Bytes.of_string bytes in
  patch b;
  Cogg.Tables_io.seal b;
  Bytes.to_string b

(* The meta section ends with the start state, the lookahead-mode word
   and the user production count.  The mode word is on-disk format too:
   every bundle carries 0, for SLR(1), and a bundle that carries 1, the
   code of a lookahead construction the format no longer has, is
   refused. *)
let test_lookahead_mode_word () =
  let bytes = Lazy.force amdahl_bundle in
  let meta_len =
    Int32.to_int (String.get_int32_le bytes Cogg.Tables_io.header_bytes)
  in
  let mode = Cogg.Tables_io.directory_end + meta_len - 8 in
  check_int "the written mode word" 0
    (Int32.to_int (String.get_int32_le bytes mode));
  let m =
    rejected "lookahead mode 1"
      (resealed bytes (fun b -> Bytes.set_int32_le b mode 1l))
  in
  if not (Util.contains m "lookahead mode") then
    Alcotest.failf "refused for another reason: %s" m

(* [a] as a column of 4-byte cells, wider than its values need *)
let wide a =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) a;
  { Cogg.Cells.buf = Bytes.to_string b; pos = 0; width = 4;
    len = Array.length a }

(* Out-of-range length prefixes, section lengths, row ids and comb
   offsets are corruption, not a crash or an allocation sized by garbage.
   Cells are unsigned at every width, so a 4-byte cell of all ones is a
   row id or an offset far past the end, never -1. *)
let test_bundle_rejects_out_of_range () =
  let t = tables () in
  let c = t.Cogg.Tables.compressed in
  let row_index = Cogg.Cells.to_array c.Cogg.Compress.row_index in
  row_index.(0) <- Cogg.Cells.length c.Cogg.Compress.defaults;
  let compressed =
    { c with Cogg.Compress.row_index = Cogg.Cells.of_array row_index }
  in
  ignore
    (rejected "a row id past the last row"
       (Cogg.Tables_io.write { t with Cogg.Tables.compressed }));
  (match Cogg.Cells.of_array [| 3; -1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative cell was encoded");
  (* row ids and offsets at 4 bytes a cell: the bundle is accepted as
     written, and refused once either column's first cell is all ones *)
  let widened =
    Cogg.Compress.
      {
        c with
        row_index = wide (Cogg.Cells.to_array c.row_index);
        offsets = wide (Cogg.Cells.to_array c.offsets);
      }
  in
  let bytes = Cogg.Tables_io.write { t with Cogg.Tables.compressed = widened } in
  ignore (Cogg.Tables_io.read bytes);
  (* the comb section follows meta and opens with four 4-byte scalars,
     then the row ids, defaults and offsets, each behind a column header *)
  let h = Cogg.Tables_io.header_bytes and col = Cogg.Cells.header_bytes in
  let comb =
    Cogg.Tables_io.directory_end + Int32.to_int (String.get_int32_le bytes h)
  in
  let row_ids = comb + 16 + col in
  let offsets =
    row_ids
    + Cogg.Cells.byte_size widened.Cogg.Compress.row_index
    + col
    + Cogg.Cells.byte_size c.Cogg.Compress.defaults
    + col
  in
  let all_ones pos = resealed bytes (fun b -> Bytes.set_int32_le b pos (-1l)) in
  ignore (rejected "a 4-byte row id of all ones" (all_ones row_ids));
  ignore (rejected "a 4-byte comb offset of all ones" (all_ones offsets));
  let bytes = Cogg.Tables_io.write t in
  let with_i32 pos v = resealed bytes (fun b -> Bytes.set_int32_le b pos v) in
  (* the meta section opens with the target name's length, the name, and
     the symbol-name array's count *)
  let meta = Cogg.Tables_io.directory_end in
  let name = t.Cogg.Tables.target.Machine.Target.name in
  let names_count = meta + 4 + String.length name in
  ignore (rejected "a negative string length" (with_i32 meta (-1l)));
  ignore (rejected "a string length past the end" (with_i32 meta Int32.max_int));
  ignore (rejected "a negative array count" (with_i32 names_count (-5l)));
  ignore
    (rejected "a section past the end"
       (resealed bytes (fun b -> Bytes.set_int32_le b h Int32.max_int)));
  ignore
    (rejected "a negative section length"
       (resealed bytes (fun b -> Bytes.set_int32_le b (h + 4) (-1l))))

(* -- concurrent first use -------------------------------------------------- *)

(* One loaded bundle is shared by every domain of a pool, so the first
   use of a section can happen on several domains at once.  Each of 200
   rounds loads a fresh bundle and releases four domains on it together;
   each runs a flat-dispatch compile (which decodes the dense rows) and a
   parse of truncated IF (whose error report reads them too).  Nothing
   may raise and every domain must see the sequential result.  The
   domains live across rounds: spawning four per round would cost more
   than the rounds themselves. *)
let test_concurrent_first_use () =
  let bytes = Lazy.force amdahl_bundle in
  let tokens =
    match Pipeline.compile (tables ()) Pipeline.Programs.appendix1_equation with
    | Ok c -> c.Pipeline.tokens
    | Error m -> Alcotest.fail m
  in
  let truncated = List.filteri (fun i _ -> i < List.length tokens / 2) tokens in
  let run t =
    let flat =
      match Cogg.Codegen.generate ~dispatch:Cogg.Driver.Flat t tokens with
      | Ok r -> r.Cogg.Codegen.listing
      | Error e -> Fmt.str "%a" Cogg.Codegen.pp_error e
    in
    let malformed =
      match Cogg.Codegen.generate t truncated with
      | Ok _ -> "accepted"
      | Error e -> Fmt.str "%a" Cogg.Codegen.pp_error e
    in
    (flat, malformed)
  in
  let expected = run (Cogg.Tables_io.read bytes) in
  Alcotest.(check bool)
    "truncated IF takes the error path" true
    (Util.contains (snd expected) "expected one of");
  let domains = 4 and rounds = 200 in
  (* round r: the main domain publishes a fresh bundle and wakes the
     workers together; it waits for all four to finish.  Waiting blocks
     instead of spinning, so an idle domain holds up neither a core nor
     the stop-the-world minor collections of the busy ones. *)
  let m = Mutex.create () and c = Condition.create () in
  let started = ref 0 and finished = ref 0 in
  let bundle = ref (Cogg.Tables_io.read bytes) in
  let failures = ref [] in
  let await cond =
    Mutex.lock m;
    while not (cond ()) do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let signal f =
    Mutex.lock m;
    f ();
    Condition.broadcast c;
    Mutex.unlock m
  in
  let worker () =
    for r = 1 to rounds do
      await (fun () -> !started >= r);
      let outcome =
        match run !bundle with
        | res when res = expected -> None
        | _ -> Some (Printf.sprintf "round %d: another result" r)
        | exception e ->
            Some (Printf.sprintf "round %d: raised %s" r (Printexc.to_string e))
      in
      signal (fun () ->
          Option.iter (fun f -> failures := f :: !failures) outcome;
          incr finished)
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  for r = 1 to rounds do
    let t = Cogg.Tables_io.read bytes in
    signal (fun () ->
        bundle := t;
        started := r);
    await (fun () -> !finished = domains * r)
  done;
  List.iter Domain.join ds;
  match !failures with
  | [] -> ()
  | fs -> Alcotest.failf "%d failures, e.g. %s" (List.length fs) (List.hd fs)

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
          Alcotest.test_case "pinned bytes" `Quick test_bundle_bytes_pinned;
          Alcotest.test_case "roundtrip drives codegen" `Quick test_bundle_roundtrip_drives_codegen;
          Alcotest.test_case "rejects garbage" `Quick test_bundle_rejects_garbage;
          Alcotest.test_case "current and stale magic" `Quick
            test_bundle_format_magic;
          Alcotest.test_case "method codes are stable" `Quick test_method_codes;
          Alcotest.test_case "lookahead mode word is 0" `Quick
            test_lookahead_mode_word;
          Alcotest.test_case "every method survives" `Quick
            test_every_method_survives_bundle;
          Alcotest.test_case "rejects out-of-range values" `Quick
            test_bundle_rejects_out_of_range;
          Alcotest.test_case "1,000 bit flips refused" `Quick
            test_bit_flips_refused;
          Alcotest.test_case "every bit of a word refused" `Quick
            test_word_flips_refused;
          QCheck_alcotest.to_alcotest prop_word_xor_refused;
          Alcotest.test_case "torn prefixes refused" `Quick
            test_prefixes_refused;
          Alcotest.test_case "concurrent first use" `Quick
            test_concurrent_first_use;
        ] );
      ( "subsets",
        [
          Alcotest.test_case "shrink monotonically" `Quick test_subsets_shrink_monotonically;
          Alcotest.test_case "all build" `Quick test_subsets_all_build;
          Alcotest.test_case "correct code" `Quick test_subsets_generate_correct_code;
          Alcotest.test_case "full beats core" `Quick test_full_beats_core_on_code_size;
        ] );
    ]
