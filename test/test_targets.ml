(* The target conformance suite: every case runs on every registered
   target (Machine.Targets.all), on tables built from that target's own
   spec file and booted through its Target.t.

   The shared cases are target-blind data: an IF body, the frame cells
   to set before a run and the cells (or abort) to expect after it, and
   an optional allocation strategy.  What differs between machines
   survives only as per-target data: the listing idioms each spec's
   templates must produce, keyed by target name, and the branch form
   across a page, keyed by the target's site model.  A target added to
   the registry runs the whole suite with no new test code.

   Run one machine's cases, and the sweep that pairs it with the default
   target, with `test_targets.exe test risc32`. *)

module SS = Set.Make (String)

let check_int = Alcotest.(check int)

(* -- tables, per target ---------------------------------------------------- *)

let build (tgt : Machine.Target.t) : Cogg.Tables.t =
  let rel = tgt.Machine.Target.spec_file in
  let path =
    match Util.find_up (Sys.getcwd ()) rel with
    | Some p -> p
    | None -> Alcotest.failf "cannot locate %s from %s" rel (Sys.getcwd ())
  in
  match Cogg.Cogg_build.build_file ~target:tgt path with
  | Ok t -> t
  | Error es ->
      Alcotest.failf "%s failed to build: %a" rel
        (Fmt.list Cogg.Cogg_build.pp_error)
        es

let bundles =
  List.map (fun (name, tgt) -> (name, lazy (build tgt))) Machine.Targets.all

let tables name = Lazy.force (List.assoc name bundles)

(* -- the shared cases ---------------------------------------------------- *)

(* a cell of the main frame, by local slot *)
type cell =
  | W of int * int  (** fullword *)
  | H of int * int  (** halfword *)
  | B of int * int  (** byte *)
  | S of int * float  (** short (single-precision) real *)
  | F of int * float  (** double (or the high half of a quad) real *)
  | Abort of string option  (** the run's abort message; expected only *)

(* what the generated code must look like *)
type shape =
  | Has of string  (** some instruction has this mnemonic *)
  | Count of string list * int
      (** exactly [n] instructions have one of these mnemonics *)
  | Insns of int  (** exactly [n] instructions *)
  | Long of bool  (** some branch took the span-dependent long form *)
  | Code_over of int  (** the code image is longer than [n] bytes *)

type case = {
  name : string;
  body : string;
      (** IF between procedure entry and exit; [@n] is local slot [n] *)
  strategy : Cogg.Regalloc.strategy option;
  shapes : shape list;  (** the target-blind part of the code's shape *)
  runs : (cell list * cell list) list;  (** (set before, expect after) *)
}

let case ?strategy ?(shapes = []) name body runs =
  { name; body; strategy; shapes; runs }

let local n = Machine.Runtime.locals_base + (4 * n)

let prog body =
  String.split_on_char ' ' body
  |> List.map (fun w ->
         if String.length w > 1 && w.[0] = '@' then
           Printf.sprintf "dsp:%d r:13"
             (local (int_of_string (String.sub w 1 (String.length w - 1))))
         else w)
  |> String.concat " "
  |> Printf.sprintf "procedure_entry %s procedure_exit"

(* x0 := ((x1*x2) + (x3 div x4)) mod x5 *)
let nested =
  ( "assign fullword @0 imod iadd imult fullword @1 fullword @2 idiv \
     fullword @3 fullword @4 fullword @5",
    [ ([ W (1, 6); W (2, 7); W (3, 100); W (4, 9); W (5, 31) ],
       [ W (0, ((6 * 7) + (100 / 9)) mod 31) ]) ] )

(* if x1 < x2 then x0 := 1 else x0 := 2: branch-if-not-less (mask 11) *)
let if_less =
  "branch_op lbl:1 cond:m11 icompare fullword @1 fullword @2 assign fullword \
   @0 pos_constant v:1 branch_op lbl:2 label_def lbl:1 assign fullword @0 \
   pos_constant v:2 label_def lbl:2"

(* a balanced register-only sum of 2^depth copies of x1 *)
let rec tree depth =
  if depth = 0 then "fullword @1"
  else Printf.sprintf "iadd %s %s" (tree (depth - 1)) (tree (depth - 1))

(* each statement is at least 12 bytes, so 400 of them span a page *)
let filler =
  String.concat " "
    (List.init 400 (fun _ -> "assign fullword @4 iadd fullword @4 fullword @5"))

let arithmetic =
  [
    (* the commutative memory template of section 4.1 *)
    case "add" "assign fullword @0 iadd fullword @0 fullword @1"
      [ ([ W (0, 7); W (1, 35) ], [ W (0, 42) ]) ];
    (* through the even/odd pair and push_odd on the 370 *)
    case "multiply" "assign fullword @0 imult fullword @1 fullword @2"
      [ ([ W (1, 17); W (2, -3) ], [ W (0, -51) ]) ];
    case "divide truncates toward zero"
      "assign fullword @0 idiv fullword @1 fullword @2"
      [ ([ W (1, -100); W (2, 7) ], [ W (0, -14) ]) ];
    case "modulo" "assign fullword @0 imod fullword @1 fullword @2"
      [ ([ W (1, -100); W (2, 7) ], [ W (0, -2) ]) ];
    case "nested expression" (fst nested) (snd nested);
    (* x0 := abs(x1 - x2); x3 := -x4; x5 := max(x6, x7) *)
    case "sub and unaries"
      "assign fullword @0 iabs isub fullword @1 fullword @2 assign fullword \
       @3 ineg fullword @4 assign fullword @5 imax fullword @6 fullword @7"
      [ ([ W (1, 10); W (2, 25); W (4, 9); W (6, 4); W (7, 11) ],
         [ W (0, 15); W (3, -9); W (5, 11) ]) ];
    case "min and odd"
      "assign fullword @0 imin fullword @1 fullword @2 assign fullword @4 iodd \
       fullword @3"
      [ ([ W (1, 4); W (2, 11); W (3, 7) ], [ W (0, 4); W (4, 1) ]) ];
    case "incr/decr"
      "assign fullword @0 decr fullword @1 assign fullword @2 incr fullword @3"
      [ ([ W (1, 50); W (3, 99) ], [ W (0, 49); W (2, 100) ]) ];
    (* x0 := (x1 shl 2) + 4095; x2 := x3 shr 3; x4 := -17 *)
    case "shifts and constants"
      "assign fullword @0 iadd l_shift fullword @1 v:2 v:4095 assign fullword \
       @2 r_shift fullword @3 v:3 assign fullword @4 neg_constant v:17"
      [ ([ W (1, 5); W (3, -64) ],
         [ W (0, (5 lsl 2) + 4095); W (2, -8); W (4, -17) ]) ];
    case "halfword values" "assign hlfword @0 iadd hlfword @1 hlfword @2"
      [ ([ H (1, -300); H (2, 512) ], [ H (0, 212) ]) ];
    (* the divisor is a halfword: it must be loaded as one *)
    case "halfword divide"
      "assign fullword @0 idiv fullword @1 hlfword @2 assign fullword @3 imod \
       fullword @1 hlfword @2"
      [ ([ W (1, -200); H (2, 7) ], [ W (0, -28); W (3, -4) ]) ];
    (* a halfword right operand of subtract, multiply and compare, the
       left one already in a register: x0 := (x1+1) - h2;
       x3 := (x1+1) * h2; b4 := (x1+1) < h2.  incr is the 370's LA idiom,
       defined only on 24-bit non-negative values (Irgen keeps it so) *)
    case "halfword operands"
      "assign fullword @0 isub incr fullword @1 hlfword @2 assign fullword @3 \
       imult incr fullword @1 hlfword @2 assign byteword @4 cond:m11 icompare \
       incr fullword @1 hlfword @2"
      [ ([ W (1, 99); H (2, -7) ], [ W (0, 107); W (3, -700); B (4, 0) ]);
        ([ W (1, 4); H (2, 7) ], [ W (0, -2); W (3, 35); B (4, 1) ]) ];
    (* an arithmetic right shift by a register amount *)
    case "variable shift" "assign fullword @0 r_shift fullword @1 fullword @2"
      [ ([ W (1, -64); W (2, 3) ], [ W (0, -8) ]) ];
  ]

let control =
  [
    case "branch taken" if_less [ ([ W (1, 3); W (2, 9) ], [ W (0, 1) ]) ];
    case "branch not taken" if_less [ ([ W (1, 9); W (2, 3) ], [ W (0, 2) ]) ];
    (* x0 := 0; L1: if x1 = 0 goto L2; x0 += x1; x1 -= 1; goto L1; L2: *)
    case "loop"
      "assign fullword @0 pos_constant v:0 label_def lbl:1 branch_op lbl:2 \
       cond:m8 icompare fullword @1 pos_constant v:0 assign fullword @0 iadd \
       fullword @0 fullword @1 assign fullword @1 decr fullword @1 branch_op \
       lbl:1 label_def lbl:2"
      [ ([ W (1, 5) ], [ W (0, 15) ]) ];
    (* a computed goto through a branch table: x0 := 10 * (x1 + 1) *)
    case "case branch table"
      "case_index lbl:9 fullword @1 label_def lbl:9 label_index lbl:1 \
       label_index lbl:2 label_index lbl:3 label_def lbl:1 assign fullword @0 \
       pos_constant v:10 branch_op lbl:8 label_def lbl:2 assign fullword @0 \
       pos_constant v:20 branch_op lbl:8 label_def lbl:3 assign fullword @0 \
       pos_constant v:30 branch_op lbl:8 label_def lbl:8"
      (List.map
         (fun sel -> ([ W (1, sel) ], [ W (0, 10 * (sel + 1)) ]))
         [ 0; 1; 2 ]);
    case "branch over page" ~shapes:[ Code_over 4096 ]
      ("branch_op lbl:1 " ^ filler
     ^ " label_def lbl:1 assign fullword @0 pos_constant v:77")
      [ ([ W (4, 0); W (5, 1) ], [ W (4, 0); W (0, 77) ]) ];
    case "short branch stays short" ~shapes:[ Long false ] if_less
      [ ([ W (1, 1); W (2, 2) ], [ W (0, 1) ]) ];
  ]

(* byte booleans: true is 1 in the slot's first byte *)
let yes = 1 lsl 24

let booleans =
  [
    (* a relational result goes through r ::= cond cc, then a byte store;
       TM-style cc (boolean_test) is stored directly *)
    case "assign from cc"
      "assign byteword @0 cond:m11 icompare fullword @1 fullword @2"
      [ ([ W (1, 3); W (2, 9) ], [ B (0, 1) ]);
        ([ W (1, 9); W (2, 3) ], [ B (0, 0) ]) ];
    case "assign from boolean test"
      "assign byteword @0 boolean_test byteword @3"
      [ ([ W (3, yes) ], [ B (0, 1) ]); ([ W (3, 0) ], [ B (0, 0) ]) ];
    case "memory and" "assign byteword @0 boolean_and byteword @1 byteword @2"
      (List.map
         (fun (a, b) ->
           ([ W (1, a * yes); W (2, b * yes) ], [ B (0, a land b) ]))
         [ (0, 0); (0, 1); (1, 0); (1, 1) ]);
    (* b0 := (x1 < x2) or b3: a register boolean through cond and cc *)
    case "or with register"
      "assign byteword @0 boolean_or cond:m11 icompare fullword @1 fullword @2 \
       byteword @3"
      (List.map
         (fun (a, b, flag, expect) ->
           ([ W (1, a); W (2, b); W (3, flag * yes) ], [ B (0, expect) ]))
         [ (1, 2, 0, 1); (2, 1, 1, 1); (2, 1, 0, 0) ]);
    case "not" "assign byteword @0 boolean_not byteword @1"
      [ ([ W (1, yes) ], [ B (0, 0) ]); ([ W (1, 0) ], [ B (0, 1) ]) ];
    (* a byte compared with a literal: b0 := (b1 = 65) *)
    case "byte equals literal"
      "assign byteword @0 cond:m7 icompare byteword @1 v:65"
      [ ([ W (1, 65 * yes) ], [ B (0, 1) ]);
        ([ W (1, 66 * yes) ], [ B (0, 0) ]) ];
  ]

let sets =
  [
    (* set bit 3 (mask 0x10) of the byte set at slot 1, then test it *)
    case "bit set and test"
      "set_bit_value addr @1 elmnt:16 assign byteword @0 test_bit_value addr \
       @1 elmnt:16"
      [ ([], [ B (0, 1); B (1, 0x10) ]) ];
    (* a variable element goes through the DIV8/MOD8 sequence *)
    case "variable element"
      "set_bit_value addr @2 fullword @1 assign byteword @0 test_bit_value \
       addr @2 fullword @1"
      (List.map (fun k -> ([ W (1, k) ], [ B (0, 1) ])) [ 0; 5; 9; 14 ]);
    case "clear bit" "clear_bit_value addr @1 elmnt:239"
      [ ([ W (1, 0xFFFFFFFF) ], [ B (1, 0xEF) ]) ];
    (* x0 := (x1 union x2) intersect difference(x3, x4) *)
    case "word set ops"
      "assign fullword @0 set_intersect set_union fullword @1 fullword @2 \
       set_difference fullword @3 fullword @4"
      [ ([ W (1, 0b1100); W (2, 0b0011); W (3, 0b1010); W (4, 0b0010) ],
         [ W (0, 0b1111 land (0b1010 land lnot 0b0010)) ]) ];
  ]

let checks =
  [
    case "range check"
      "assign fullword @0 range_check fullword @1 fullword @2 fullword @3"
      [ ([ W (1, 5); W (2, 1); W (3, 10) ], [ Abort None; W (0, 5) ]);
        ([ W (1, 50); W (2, 1); W (3, 10) ],
         [ Abort (Some "range overflow") ]) ];
    case "uninit check" "assign fullword @0 uninit_check fullword @1"
      [ ([ W (1, 42) ], [ Abort None ]);
        ([ W (1, Machine.Runtime.uninit_pattern) ],
         [ Abort (Some "uninitialized variable") ]) ];
    case "abort op" "abort_op errno:9"
      [ ([], [ Abort (Some "program abort (code 9)") ]) ];
  ]

let reals =
  [
    case "real arithmetic"
      "assign dblrealword @0 rmult radd dblrealword @2 dblrealword @4 \
       dblrealword @6"
      [ ([ F (2, 1.5); F (4, 2.25); F (6, 4.0) ], [ F (0, 15.0) ]) ];
    (* both operands in registers, negation, a memory divisor, compare:
       x0 := a*b + c*d; x10 := (a+b) * (c+d); x12 := -a; x14 := (a+b)/b;
       b16 := a < b *)
    case "real registers, divide, compare"
      "assign dblrealword @0 radd rmult dblrealword @2 dblrealword @4 rmult \
       dblrealword @6 dblrealword @8 assign dblrealword @10 rmult radd \
       dblrealword @2 dblrealword @4 radd dblrealword @6 dblrealword @8 assign \
       dblrealword @12 rneg dblrealword @2 assign dblrealword @14 rdiv radd \
       dblrealword @2 dblrealword @4 dblrealword @4 assign byteword @16 \
       cond:m11 rcompare dblrealword @2 dblrealword @4"
      [ ([ F (2, 1.5); F (4, 2.0); F (6, 0.5); F (8, 4.0) ],
         [ F (0, 5.0); F (10, 15.75); F (12, -1.5); F (14, 1.75);
           B (16, 1) ]) ];
    (* short reals: load, the four operations on a memory operand,
       compare and store: x0 := a+b; x3 := (a+a) - b; x4 := a*b;
       x5 := (a*a) / b; b6 := b < a *)
    case "short reals"
      "assign realword @0 radd realword @1 realword @2 assign realword @3 rsub \
       radd realword @1 realword @1 realword @2 assign realword @4 rmult \
       realword @1 realword @2 assign realword @5 rdiv rmult realword @1 \
       realword @1 realword @2 assign byteword @6 cond:m11 rcompare realword \
       @2 realword @1"
      [ ([ S (1, 1.5); S (2, 0.25) ],
         [ S (0, 1.75); S (3, 2.75); S (4, 0.375); S (5, 9.0); B (6, 1) ]) ];
    (* x0 := real(x2) / 2; x3 := trunc(x0) *)
    case "conversions"
      "assign dblrealword @0 halve s_x_cnvrt fullword @2 assign fullword @3 \
       x_s_cnvrt dblrealword @0"
      [ ([ W (2, -25) ], [ F (0, -12.5); W (3, -12) ]) ];
    (* quads live in two doublewords; the simulators compute with the
       high half (the documented IEEE substitution) *)
    case "quad arithmetic"
      "assign quadrealword @0 qmult qadd quadrealword @4 quadrealword @8 \
       quadrealword @12"
      [ ([ F (4, 2.5); F (8, 0.75); F (12, 4.0) ], [ F (0, 13.0) ]) ];
    case "quad subtract"
      "assign quadrealword @0 qsub quadrealword @4 quadrealword @8"
      [ ([ F (4, 2.5); F (8, 0.75) ], [ F (0, 1.75) ]) ];
    case "quad conversions"
      "assign quadrealword @0 x_q_cnvrt dblrealword @4 assign dblrealword @6 \
       q_x_cnvrt quadrealword @0"
      [ ([ F (4, 9.25) ], [ F (6, 9.25) ]) ];
    (* under first-free the first conversion's operand sits in the
       register the second conversion needs: section 4.1's transfer *)
    case "need transfer" ~strategy:Cogg.Regalloc.First_free
      "assign fullword @0 iadd x_s_cnvrt dblrealword @2 x_s_cnvrt radd \
       dblrealword @4 dblrealword @6"
      [ ([ F (2, 5.0); F (4, 2.0); F (6, 3.0) ], [ W (0, 10) ]) ];
  ]

let others =
  [
    (* x0 := (x1+x2) * (x1+x2): the second use comes from the register *)
    case "cse register reuse"
      "assign fullword @0 imult make_common cse:c1 cnt:1 fullword @9 iadd \
       fullword @1 fullword @2 use_common cse:c1"
      [ ([ W (1, 6); W (2, 7) ], [ W (0, 169) ]) ];
    (* a CSE evicted by a register-only expression reloads from its
       temporary: (40+2) + (8*1 + (40+2)) *)
    case "cse eviction reload"
      ("assign fullword @0 iadd make_common cse:c1 cnt:1 fullword @20 iadd \
        fullword @2 fullword @3 iadd " ^ tree 3 ^ " use_common cse:c1")
      [ ([ W (1, 1); W (2, 40); W (3, 2) ], [ W (0, 42 + 8 + 42) ]) ];
    case "block assign" "assign addr @0 addr @2 lng:8"
      [ ([ W (2, 0x01020304); W (3, 0x05060708) ],
         [ W (0, 0x01020304); W (1, 0x05060708) ]) ];
    case "long block assign" "long_assign addr @0 addr @2 lng:8"
      [ ([ W (2, 123456); W (3, -99) ], [ W (0, 123456); W (1, -99) ]) ];
    case "deep expression" ("assign fullword @0 " ^ tree 3)
      [ ([ W (1, 1) ], [ W (0, 8) ]) ];
    case "statement records"
      "statement stmt:1 assign fullword @0 pos_constant v:5 statement stmt:2"
      [ ([], [ W (0, 5) ]) ];
  ]
  @ List.map
      (fun s ->
        case ~strategy:s
          ("strategy " ^ Cogg.Regalloc.strategy_name s)
          (fst nested) (snd nested))
      Cogg.Regalloc.[ Lru; Round_robin; First_free ]

let shared = arithmetic @ control @ booleans @ sets @ checks @ reals @ others

(* -- per-target data ------------------------------------------------------ *)

(* the listing idioms each spec's templates produce for a shared case *)
let idioms =
  [
    ( "amdahl470",
      [
        (* entry (2) + l + a + st + exit (3) *)
        ("add", Insns 8);
        ("incr/decr", Has "bctr");
        ("cse register reuse", Count ([ "a"; "ar" ], 1));
        ("halfword divide", Has "lh");
      ] );
    ( "risc32",
      [
        (* abs is the branch-free srai/xor/sub idiom *)
        ("sub and unaries", Has "srai");
        ("incr/decr", Has "subi");
        ("cse register reuse", Count ([ "add" ], 1));
        ("halfword divide", Has "lh");
      ] );
  ]

(* a forward branch across the 4096-byte page: the 370 widens it into
   the long form, a pc-relative branch is one fixed-width instruction *)
let site_idioms = function
  | Machine.Target.Span_dependent -> [ ("branch over page", Long true) ]
  | Machine.Target.Pc_relative -> [ ("branch over page", Long false) ]

(* an idiom keyed by a case name that no longer exists would never run *)
let () =
  List.concat_map snd idioms
  @ site_idioms Span_dependent @ site_idioms Pc_relative
  |> List.iter (fun (n, _) ->
         if not (List.exists (fun c -> c.name = n) shared) then
           invalid_arg ("idiom for an unknown case: " ^ n))

(* -- running a case ------------------------------------------------------ *)

let layout = Machine.Runtime.default_layout
let frame = Machine.Runtime.main_frame layout

let generate tables (c : case) =
  match
    Cogg.Codegen.generate_string ?strategy:c.strategy tables (prog c.body)
  with
  | Ok g -> g
  | Error m -> Alcotest.failf "codegen failed: %s" m

(* the instruction mnemonics of a listing, in order (labels dropped) *)
let mnemonics (g : Cogg.Codegen.result_t) =
  String.split_on_char '\n' g.Cogg.Codegen.listing
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | m :: _ when m <> "" && m.[String.length m - 1] <> ':' -> Some m
         | _ -> None)

let check_shape (g : Cogg.Codegen.result_t) shape =
  let ms = mnemonics g and resolved = g.Cogg.Codegen.resolved in
  match shape with
  | Has m -> Alcotest.(check bool) ("emits " ^ m) true (List.mem m ms)
  | Count (ms', n) ->
      check_int (String.concat "/" ms' ^ " count") n
        (List.length (List.filter (fun m -> List.mem m ms') ms))
  | Insns n -> check_int "instruction count" n (List.length ms)
  | Long b ->
      Alcotest.(check bool)
        "a long branch was generated" b
        (resolved.Cogg.Loader_gen.n_long > 0)
  | Code_over n ->
      Alcotest.(check bool)
        (Printf.sprintf "the code is longer than %d bytes" n)
        true
        (Bytes.length resolved.Cogg.Loader_gen.code > n)

let store sim = function
  | W (n, v) -> Machine.Sim.store_w sim (frame + local n) v
  | H (n, v) -> Machine.Sim.store_h sim (frame + local n) v
  | B (n, v) -> Machine.Sim.store_u8 sim (frame + local n) v
  | S (n, x) -> Machine.Sim.store_f32 sim (frame + local n) x
  | F (n, x) -> Machine.Sim.store_f64 sim (frame + local n) x
  | Abort _ -> invalid_arg "an abort is expected, not set"

let expect sim (outcome : Machine.Runtime.outcome) = function
  | W (n, v) ->
      check_int (Printf.sprintf "word @%d" n) v
        (Machine.Sim.load_w sim (frame + local n))
  | H (n, v) ->
      check_int (Printf.sprintf "halfword @%d" n) v
        (Machine.Sim.load_h sim (frame + local n))
  | B (n, v) ->
      check_int (Printf.sprintf "byte @%d" n) v
        (Machine.Sim.load_u8 sim (frame + local n))
  | S (n, x) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "short real @%d" n)
        x
        (Machine.Sim.load_f32 sim (frame + local n))
  | F (n, x) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "real @%d" n)
        x
        (Machine.Sim.load_f64 sim (frame + local n))
  | Abort m ->
      Alcotest.(check (option string)) "abort" m outcome.Machine.Runtime.aborted

let run_case name (c : case) () =
  let tables = tables name in
  let tgt = tables.Cogg.Tables.target in
  let g = generate tables c in
  let per_target =
    Option.value ~default:[] (List.assoc_opt name idioms)
    @ site_idioms tgt.Machine.Target.site_model
  in
  List.iter (check_shape g)
    (c.shapes
    @ List.filter_map
        (fun (n, s) -> if n = c.name then Some s else None)
        per_target);
  List.iter
    (fun (set, want) ->
      match tgt.Machine.Target.boot ~layout g.Cogg.Codegen.objmod with
      | Error m -> Alcotest.failf "boot failed: %s" m
      | Ok (sim, entry) -> (
          List.iter (store sim) set;
          match tgt.Machine.Target.run ~layout sim ~entry with
          | Error m ->
              Alcotest.failf "execution failed: %s\nlisting:\n%s" m
                g.Cogg.Codegen.listing
          | Ok outcome -> List.iter (expect sim outcome) want))
    c.runs

(* -- cases over whole programs ------------------------------------------- *)

(* the emitter keeps one record per statement, newest first *)
let stmt_records name () =
  let tables = tables name in
  let emitter = Cogg.Emit.create tables in
  let text =
    prog
      "statement stmt:10 assign fullword @0 pos_constant v:1 statement \
       stmt:20 assign fullword @1 pos_constant v:2"
  in
  match Ifl.Reader.program_of_string text with
  | Error m -> Alcotest.fail m
  | Ok toks ->
      (match
         Cogg.Driver.parse tables ~reduce:(Cogg.Emit.reduce emitter) toks
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%a" Cogg.Driver.pp_error e);
      Alcotest.(check (list int))
        "both statements recorded" [ 20; 10 ]
        (List.map fst emitter.Cogg.Emit.stmt_records)

(* the canonical corpus against the reference interpreter, under each
   shaping variant *)
let variants =
  [
    ("cse", None, None);
    ("no cse", Some false, None);
    ("checks", None, Some true);
  ]

let corpus name (_, cse, checks) () =
  let tables = tables name in
  List.iter
    (fun (program, src) ->
      match Pipeline.verify ?cse ?checks tables src with
      | Ok v when v.Pipeline.agreed -> ()
      | Ok v ->
          Alcotest.failf "%s: machine and interpreter disagree: %s" program
            (String.concat "; " v.Pipeline.mismatches)
      | Error m -> Alcotest.failf "%s: %s" program m)
    Pipeline.Programs.all

let default = Machine.Targets.default.Machine.Target.name

(* a fixed-seed slice of generated programs: this target and the default
   one must write the same output *)
let cross_sweep name () =
  let base = tables default in
  let other = tables name in
  let findings =
    List.filter_map
      (fun index ->
        let rng = Fuzz.Rng.derive ~seed:11 ~index in
        let src = Fuzz.Gen_pascal.source rng (Fuzz.Profile.rotate index) in
        match Fuzz.Oracle.cross_backend base other src with
        | Fuzz.Oracle.Pass | Fuzz.Oracle.Skip _ -> None
        | st -> Some (Fmt.str "case %d: %a" index Fuzz.Oracle.pp_status st))
      (List.init 48 Fun.id)
  in
  Alcotest.(check (list string)) "no cross-backend divergence" [] findings

(* every mnemonic of the spec's templates (Template.Instr steps) is
   emitted by some shared case or corpus program, so a template that
   emits wrong code fails a value check, not only a byte pin *)
let opcode_coverage name () =
  let tables = tables name in
  let templates =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some c ->
            Array.fold_left
              (fun acc -> function
                | Cogg.Template.Instr i -> SS.add i.Cogg.Template.mnem acc
                | _ -> acc)
              acc c.Cogg.Template.c_steps)
      SS.empty tables.Cogg.Tables.compiled
  in
  let emitted =
    List.map (fun c -> mnemonics (generate tables c)) shared
    @ List.concat_map
        (fun (_, cse, checks) ->
          List.map
            (fun (_, src) ->
              match Pipeline.compile ?cse ?checks tables src with
              | Ok c -> mnemonics c.Pipeline.gen
              | Error m -> Alcotest.fail m)
            Pipeline.Programs.all)
        variants
    |> List.concat |> SS.of_list
  in
  Alcotest.(check (list string))
    "template mnemonics no case emits" []
    (SS.elements (SS.diff templates emitted))

(* The digest of every listing, object image and error text over the
   example bank (examples/programs) and the named programs, per target
   and allocation strategy.  The ablation is the only other place the
   round-robin and first-free strategies run, so these pin the bytes the
   allocator emits under each of them, not only under LRU. *)
let pinned_bytes =
  Cogg.Regalloc.
    [
      ( "amdahl470",
        [ (Lru, "103aa2618ae5c70fb6bfe37365b187e6");
          (Round_robin, "3502bc54d004eaf0b468fb50463dceb2");
          (First_free, "e389bf623167dbdea3417c60a4af581a") ] );
      ( "risc32",
        [ (Lru, "436ceb677b09da7115bccfcf0836191c");
          (Round_robin, "1186767c2ebc62e444643860691ebae5");
          (First_free, "f3c2e3ffd3b600f0935183f96c7ebc4e") ] );
    ]

let emitted_bytes name strategy want () =
  let tables = tables name in
  let b = Buffer.create 65536 in
  List.iter
    (fun (_, src) ->
      match Pipeline.compile ~strategy tables src with
      | Ok c ->
          Buffer.add_string b c.Pipeline.gen.Cogg.Codegen.listing;
          Buffer.add_char b '\000';
          Buffer.add_string b (Pipeline.Batch.code_bytes c);
          Buffer.add_char b '\001'
      | Error m ->
          Buffer.add_string b m;
          Buffer.add_char b '\002')
    (Util.example_programs () @ Pipeline.Programs.all);
  Alcotest.(check string)
    "digest of the listings, object bytes and errors" want
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let tc label f = Alcotest.test_case label `Quick f

let cases_for name =
  List.map (fun c -> tc c.name (run_case name c)) shared
  @ [ tc "stmt records collected" (stmt_records name) ]
  @ List.map
      (fun ((v, _, _) as variant) ->
        tc ("corpus slr " ^ v) (corpus name variant))
      variants
  @ [ tc "opcode coverage" (opcode_coverage name) ]
  @ List.map
      (fun (strategy, want) ->
        tc
          ("emitted bytes " ^ Cogg.Regalloc.strategy_name strategy)
          (emitted_bytes name strategy want))
      (Option.value ~default:[] (List.assoc_opt name pinned_bytes))

(* a differential case judges two machines at once, so it is named by
   both: a divergence cannot say which of them is wrong *)
let () =
  Alcotest.run "targets"
    (List.map (fun name -> (name, cases_for name)) Machine.Targets.names
    @ List.filter_map
        (fun name ->
          if name = default then None
          else
            Some
              ( default ^ " vs " ^ name,
                [ tc "cross-backend sweep" (cross_sweep name) ] ))
        Machine.Targets.names)
