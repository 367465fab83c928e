(* The shaping routine in isolation: storage layout, IF tree shapes, and
   the CSE optimizer's rewriting rules. *)

module Ast = Pascal.Ast
module Tree = Ifl.Tree

let check_int = Alcotest.(check int)

(* -- layout ----------------------------------------------------------------- *)

let test_storage_formats () =
  Alcotest.(check bool) "int is fullword" true
    (Shaper.Layout.storage_of Ast.Tint = Shaper.Layout.Sfull);
  Alcotest.(check bool) "bool is byte" true
    (Shaper.Layout.storage_of Ast.Tbool = Shaper.Layout.Sbyte);
  Alcotest.(check bool) "small subrange is halfword" true
    (Shaper.Layout.storage_of (Ast.Tsub (-100, 100)) = Shaper.Layout.Shalf);
  Alcotest.(check bool) "large subrange is fullword" true
    (Shaper.Layout.storage_of (Ast.Tsub (0, 100000)) = Shaper.Layout.Sfull);
  Alcotest.(check bool) "real is doubleword" true
    (Shaper.Layout.storage_of Ast.Treal = Shaper.Layout.Sdouble);
  check_int "set of 0..15 is 2 bytes" 2
    (Shaper.Layout.size_of (Shaper.Layout.storage_of (Ast.Tset 15)))

let test_layout_alignment () =
  let l = Shaper.Layout.create () in
  let b = Shaper.Layout.add_var l { Ast.v_name = "b"; v_ty = Ast.Tbool } in
  let r = Shaper.Layout.add_var l { Ast.v_name = "r"; v_ty = Ast.Treal } in
  let h = Shaper.Layout.add_var l { Ast.v_name = "h"; v_ty = Ast.Tsub (0, 10) } in
  check_int "byte first" Machine.Runtime.locals_base b.Shaper.Layout.disp;
  check_int "double aligned to 8" 0 (r.Shaper.Layout.disp mod 8);
  check_int "half aligned to 2" 0 (h.Shaper.Layout.disp mod 2)

let test_layout_overflow () =
  let l = Shaper.Layout.create () in
  match
    Shaper.Layout.add_var l
      { Ast.v_name = "big";
        v_ty = Ast.Tarray { lo = 0; hi = 2000; elem = Ast.Tint } }
  with
  | exception Shaper.Layout.Frame_overflow _ -> ()
  | _ -> Alcotest.fail "page overflow not detected"

(* -- shaping ---------------------------------------------------------------- *)

let shape ?checks src =
  match Pascal.Sema.front_end src with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Shaper.Irgen.shape ?checks c with
      | Ok sh -> sh
      | Error e -> Alcotest.failf "%a" Shaper.Irgen.pp_error e)

let rec tree_ops (Tree.Node (t, kids)) =
  t.Ifl.Token.sym :: List.concat_map tree_ops kids

let program_ops (sh : Shaper.Irgen.shaped) =
  List.concat_map tree_ops sh.Shaper.Irgen.trees

let test_decrement_idiom () =
  let sh = shape "program p; var x : integer; begin x := x - 1 end." in
  Alcotest.(check bool) "decr emitted" true (List.mem "decr" (program_ops sh))

let test_shift_strength_reduction () =
  let sh = shape "program p; var x : integer; begin x := x * 8 end." in
  let ops = program_ops sh in
  Alcotest.(check bool) "l_shift emitted" true (List.mem "l_shift" ops);
  Alcotest.(check bool) "no multiply" false (List.mem "imult" ops)

let test_general_add_not_la () =
  (* x + 1 on an arbitrary integer must not use the 24-bit LA idiom *)
  let sh = shape "program p; var x, y : integer; begin y := x + 1 end." in
  let ops = program_ops sh in
  Alcotest.(check bool) "no incr on general add" false (List.mem "incr" ops);
  Alcotest.(check bool) "iadd used" true (List.mem "iadd" ops)

let test_for_loop_uses_incr () =
  let sh =
    shape "program p; var i, s : integer; begin for i := 1 to 9 do s := s + i end."
  in
  Alcotest.(check bool) "constant-bounded loop counter uses incr" true
    (List.mem "incr" (program_ops sh))

let test_checks_flag () =
  let src =
    "program p; var a : array[2..9] of integer; i : integer; begin a[i] := 1 end."
  in
  let without = shape ~checks:false src in
  let with_ = shape ~checks:true src in
  Alcotest.(check bool) "no check by default" false
    (List.mem "subscript_check" (program_ops without));
  Alcotest.(check bool) "check when asked" true
    (List.mem "subscript_check" (program_ops with_))

let test_global_access_through_chain () =
  let sh =
    shape
      "program p; var g : integer; procedure q; var l : integer; begin l := \
       g; g := l end; begin q end."
  in
  (* inside the procedure, g's base register is a loaded back chain:
     fullword dsp:4 r:13 appears under another fullword *)
  let rec has_chain (Tree.Node (t, kids)) =
    (t.Ifl.Token.sym = "fullword"
    && match kids with
       | [ Tree.Node (d, []); Tree.Node (b, []) ] ->
           d.Ifl.Token.value = Ifl.Value.Int Machine.Runtime.old_base
           && b.Ifl.Token.value = Ifl.Value.Reg Machine.Runtime.stack_base
       | _ -> false)
    || List.exists has_chain kids
  in
  Alcotest.(check bool) "chain load present" true
    (List.exists has_chain sh.Shaper.Irgen.trees)

let test_proc_slots_and_labels () =
  let sh =
    shape
      "program p; var x : integer; procedure a; begin x := 1 end; procedure \
       b; begin x := 2 end; begin a; b end."
  in
  check_int "two procedure slots" 2 (List.length sh.Shaper.Irgen.proc_slots);
  let slots = List.map (fun (_, s, _) -> s) sh.Shaper.Irgen.proc_slots in
  Alcotest.(check (list int)) "slot indices" [ 0; 1 ] slots

(* -- CSE optimizer ------------------------------------------------------------ *)

let optimize sh = Shaper.Cse_opt.optimize sh

(* The string-keyed detector that value numbering replaced, kept as the
   reference [Cse_opt.optimize] must match tree for tree and frame for
   frame: every subtree is keyed by its full rendering, and census,
   choose and rewrite each recompute keys, sizes and purity at every
   node. *)
module Reference = struct
  module Cse_opt = Shaper.Cse_opt
  module Layout = Shaper.Layout
  module Irgen = Shaper.Irgen
  module Token = Ifl.Token

  let rec pure (Tree.Node (t, kids)) =
    Cse_opt.pure_sym t.Token.sym && List.for_all pure kids

  let candidate tree =
    Cse_opt.eligible_root (Tree.token tree).Token.sym
    && Tree.size tree >= Cse_opt.min_nodes
    && pure tree

  type state = { mutable next_cse : int; mutable frame : Layout.t }

  let rec key (Tree.Node (t, kids)) =
    Token.to_string t ^ "(" ^ String.concat "," (List.map key kids) ^ ")"

  let rec census ?(root_ok = true) tbl (Tree.Node (t, kids) as tree) =
    if root_ok && candidate tree then begin
      let k = key tree in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
    end;
    List.iteri
      (fun i kid ->
        census ~root_ok:(not (Cse_opt.positional t.Token.sym i)) tbl kid)
      kids

  type chosen = { id : int; total : int; mutable seen : int; temp : int }

  let rec rewrite ?(root_ok = true) choice (Tree.Node (t, kids) as tree) =
    let rewrite_kids () =
      List.mapi
        (fun i kid ->
          rewrite ~root_ok:(not (Cse_opt.positional t.Token.sym i)) choice kid)
        kids
    in
    match if root_ok then Hashtbl.find_opt choice (key tree) else None with
    | Some c when c.seen = 0 ->
        c.seen <- 1;
        Tree.node "make_common"
          [
            Tree.Node (Token.cse "cse" c.id, []);
            Tree.Node (Token.int "cnt" (c.total - 1), []);
            Tree.node "fullword"
              [
                Tree.Node (Token.int "dsp" c.temp, []);
                Tree.Node (Token.reg "r" Machine.Runtime.stack_base, []);
              ];
            Tree.Node (t, rewrite_kids ());
          ]
    | Some c ->
        c.seen <- c.seen + 1;
        Tree.node "use_common" [ Tree.Node (Token.cse "cse" c.id, []) ]
    | None -> Tree.Node (t, rewrite_kids ())

  let optimize_statement st tree =
    let tbl = Hashtbl.create 16 in
    census tbl tree;
    let choice = Hashtbl.create 4 in
    let rec choose ?(root_ok = true) (Tree.Node (t, kids) as tr) =
      let k = key tr in
      if root_ok && Hashtbl.mem choice k then ()
      else if
        root_ok && candidate tr
        && Option.value (Hashtbl.find_opt tbl k) ~default:0 >= 2
      then begin
        let id = st.next_cse in
        st.next_cse <- id + 1;
        let temp = Layout.temp st.frame (Fmt.str "cse-%d" id) in
        Hashtbl.replace choice k
          { id; total = Hashtbl.find tbl k; seen = 0; temp }
      end
      else
        List.iteri
          (fun i kid ->
            choose ~root_ok:(not (Cse_opt.positional t.Token.sym i)) kid)
          kids
    in
    choose tree;
    if Hashtbl.length choice = 0 then tree else rewrite choice tree

  let optimize (shaped : Irgen.shaped) : Irgen.shaped =
    let st = { next_cse = 1; frame = shaped.Irgen.main_frame } in
    let proc_label_frames =
      List.filter_map
        (fun (name, _, lbl) ->
          Option.map (fun f -> (lbl, f))
            (List.assoc_opt name shaped.Irgen.proc_frames))
        shaped.Irgen.proc_slots
    in
    let trees =
      List.map
        (fun tree ->
          (match tree with
          | Tree.Node (t, [ Tree.Node (l, []) ]) when t.Token.sym = "label_def"
            -> (
              match l.Token.value with
              | Ifl.Value.Label n | Ifl.Value.Int n -> (
                  match List.assoc_opt n proc_label_frames with
                  | Some f -> st.frame <- f
                  | None -> ())
              | _ -> ())
          | _ -> ());
          optimize_statement st tree)
        shaped.Irgen.trees
    in
    { shaped with Irgen.trees }
end

let count_op op sh =
  List.length (List.filter (String.equal op) (program_ops sh))

let test_cse_rewrites_repeats () =
  let sh =
    shape "program p; var a, b, x : integer; begin x := (a + b) * (a + b) end."
  in
  let opt = optimize sh in
  check_int "one make_common" 1 (count_op "make_common" opt);
  check_int "one use_common" 1 (count_op "use_common" opt);
  (* the second (a+b) is gone *)
  check_int "one iadd remains" 1 (count_op "iadd" opt)

let test_cse_not_in_assign_target () =
  (* the address operand of an assignment looks like a load but is
     positional; it must never become a CSE definition or use *)
  let sh = shape "program p; var x : integer; begin x := x + x end." in
  let opt = optimize sh in
  (* x's two loads inside the expression may CSE, but the target
     fullword must survive as the first child of assign *)
  List.iter
    (fun tree ->
      match tree with
      | Tree.Node (t, first :: _) when t.Ifl.Token.sym = "assign" ->
          Alcotest.(check bool)
            "assign target intact" true
            ((Tree.token first).Ifl.Token.sym = "fullword")
      | _ -> ())
    opt.Shaper.Irgen.trees

let test_cse_no_cross_statement () =
  (* the same expression in two statements must not share a CSE: an
     assignment could intervene *)
  let sh =
    shape
      "program p; var a, b, x, y : integer; begin x := a + b; a := 0; y := a \
       + b end."
  in
  let opt = optimize sh in
  check_int "no make_common across statements" 0 (count_op "make_common" opt)

let test_cse_impure_not_shared () =
  (* calls and divisions by possibly-zero values are still pure in this
     language, but make sure write counters (hidden incr) are untouched *)
  let sh =
    shape "program p; var a : integer; begin write(a); write(a) end."
  in
  let opt = optimize sh in
  check_int "write counters not CSEd" 0 (count_op "make_common" opt)

let test_cse_temp_allocated_in_frame () =
  let sh =
    shape "program p; var a, b, x : integer; begin x := (a + b) * (a + b) end."
  in
  let before = Shaper.Layout.frame_bytes sh.Shaper.Irgen.main_frame in
  let _ = optimize sh in
  let after = Shaper.Layout.frame_bytes sh.Shaper.Irgen.main_frame in
  Alcotest.(check bool) "temporary reserved" true (after = before + 4)

let rec subtrees (Tree.Node (_, kids) as tree) =
  tree :: List.concat_map subtrees kids

let program_subtrees sym (sh : Shaper.Irgen.shaped) =
  List.concat_map subtrees sh.Shaper.Irgen.trees
  |> List.filter (fun t -> (Tree.token t).Ifl.Token.sym = sym)

(* the value of the [k]th child's token *)
let kid_value k tree = (Tree.token (List.nth (Tree.children tree) k)).Ifl.Token.value

let test_cse_outermost_wins () =
  let sh =
    shape
      "program p; var a, b, c, x : integer; begin x := (a + b) * c + (a + b) \
       * c end."
  in
  let opt = optimize sh in
  match program_subtrees "make_common" opt with
  | [ mc ] ->
      Alcotest.(check string)
        "the product is the CSE" "imult"
        (Tree.token (List.nth (Tree.children mc) 3)).Ifl.Token.sym;
      check_int "one use" 1 (count_op "use_common" opt);
      (* the outer sum and the a+b inside the definition *)
      check_int "the other a+b is gone with its product" 2 (count_op "iadd" opt)
  | mcs -> Alcotest.failf "expected one make_common, got %d" (List.length mcs)

let test_cse_use_count () =
  let sh =
    shape "program p; var a, b, x : integer; begin x := (a + b) + (a + b) + (a + b) end."
  in
  let opt = optimize sh in
  match program_subtrees "make_common" opt with
  | [ mc ] ->
      Alcotest.(check bool) "cnt:2" true (kid_value 1 mc = Ifl.Value.Int 2);
      let id = kid_value 0 mc in
      let uses = program_subtrees "use_common" opt in
      check_int "two uses" 2 (List.length uses);
      List.iter
        (fun u -> Alcotest.(check bool) "use of that id" true (kid_value 0 u = id))
        uses
  | mcs -> Alcotest.failf "expected one make_common, got %d" (List.length mcs)

let test_cse_ids_across_statements () =
  let sh =
    shape
      "program p; var a, b, c, x, y : integer; begin x := (a + b) * (a + b); \
       y := (b + c) * (b + c) end."
  in
  let ids =
    List.map (kid_value 0) (program_subtrees "make_common" (optimize sh))
  in
  Alcotest.(check bool) "c1 then c2" true (ids = [ Ifl.Value.Cse 1; Ifl.Value.Cse 2 ])

let test_cse_temp_in_procedure_frame () =
  let sh =
    shape
      "program p; var x : integer; procedure q; var u, v, w : integer; begin \
       w := (u + v) * (u + v) end; begin q end."
  in
  let main_before = Shaper.Layout.frame_bytes sh.Shaper.Irgen.main_frame in
  let q = List.assoc "q" sh.Shaper.Irgen.proc_frames in
  let q_before = Shaper.Layout.frame_bytes q in
  let opt = optimize sh in
  check_int "one make_common" 1 (count_op "make_common" opt);
  check_int "main frame unchanged" main_before
    (Shaper.Layout.frame_bytes sh.Shaper.Irgen.main_frame);
  check_int "temporary reserved in q's frame" (q_before + 4)
    (Shaper.Layout.frame_bytes q)

(* -- value numbering against the string-keyed reference -------------------- *)

(* Generated programs from every profile at fixed seeds (the generator's
   default sizes reach the pool's longest branchy programs; a few are
   forced to that size), the paper's and standard programs, and the
   real-program bank. *)
let reference_inputs () : (string * string) list =
  let seed = 4242 and per_profile = 42 in
  let generated =
    List.init
      (per_profile * Array.length Fuzz.Profile.all)
      (fun index ->
        let profile = Fuzz.Profile.rotate index in
        let rng = Fuzz.Rng.derive ~seed ~index in
        ( Fmt.str "gen-%a-s%d-i%d" Fuzz.Profile.pp profile seed index,
          Fuzz.Gen_pascal.source rng profile ))
  in
  let longest =
    List.init 4 (fun index ->
        let rng = Fuzz.Rng.derive ~seed:(seed + 1) ~index in
        ( Fmt.str "gen-branches-size40-i%d" index,
          Fuzz.Gen_pascal.source ~size:40 rng Fuzz.Profile.Branches ))
  in
  generated @ longest @ Pipeline.Programs.all @ Util.example_programs ()

let frame_sizes (sh : Shaper.Irgen.shaped) =
  Shaper.Layout.frame_bytes sh.Shaper.Irgen.main_frame
  :: List.map (fun (_, f) -> Shaper.Layout.frame_bytes f) sh.Shaper.Irgen.proc_frames

(* Each side gets its own shape, since optimizing reserves temporaries in
   the shaped program's frames. *)
let test_cse_matches_reference () =
  List.iter
    (fun (name, src) ->
      let checked =
        match Pascal.Sema.front_end src with
        | Ok c -> c
        | Error m -> Alcotest.failf "%s: %s" name m
      in
      let shape () =
        match Shaper.Irgen.shape checked with
        | Ok sh -> sh
        | Error e -> Alcotest.failf "%s: %a" name Shaper.Irgen.pp_error e
      in
      let want = Reference.optimize (shape ()) in
      let got = optimize (shape ()) in
      let trees (sh : Shaper.Irgen.shaped) = sh.Shaper.Irgen.trees in
      if
        List.compare_lengths (trees want) (trees got) <> 0
        || not (List.for_all2 Tree.equal (trees want) (trees got))
      then
        Alcotest.failf "%s: optimized trees differ from the reference" name;
      Alcotest.(check (list int))
        (name ^ ": frame sizes") (frame_sizes want) (frame_sizes got))
    (reference_inputs ())

let () =
  Alcotest.run "shaper"
    [
      ( "layout",
        [
          Alcotest.test_case "storage formats" `Quick test_storage_formats;
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
          Alcotest.test_case "page overflow" `Quick test_layout_overflow;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "decrement idiom" `Quick test_decrement_idiom;
          Alcotest.test_case "shift strength reduction" `Quick test_shift_strength_reduction;
          Alcotest.test_case "general add avoids LA" `Quick test_general_add_not_la;
          Alcotest.test_case "loop counter incr" `Quick test_for_loop_uses_incr;
          Alcotest.test_case "checks flag" `Quick test_checks_flag;
          Alcotest.test_case "global chain" `Quick test_global_access_through_chain;
          Alcotest.test_case "procedure slots" `Quick test_proc_slots_and_labels;
        ] );
      ( "cse",
        [
          Alcotest.test_case "rewrites repeats" `Quick test_cse_rewrites_repeats;
          Alcotest.test_case "assign target excluded" `Quick test_cse_not_in_assign_target;
          Alcotest.test_case "no cross-statement sharing" `Quick test_cse_no_cross_statement;
          Alcotest.test_case "write counters untouched" `Quick test_cse_impure_not_shared;
          Alcotest.test_case "temp allocated" `Quick test_cse_temp_allocated_in_frame;
          Alcotest.test_case "outermost repeat wins" `Quick test_cse_outermost_wins;
          Alcotest.test_case "use count" `Quick test_cse_use_count;
          Alcotest.test_case "ids run across statements" `Quick
            test_cse_ids_across_statements;
          Alcotest.test_case "temp in procedure frame" `Quick
            test_cse_temp_in_procedure_frame;
          Alcotest.test_case "matches the string-keyed reference" `Quick
            test_cse_matches_reference;
        ] );
    ]
