(* The mini-Pascal front end: lexer, parser, static semantics and the
   reference interpreter. *)

let check_int = Alcotest.(check int)

(* -- lexer ------------------------------------------------------------------- *)

let lex src =
  match Pascal.Lexer.tokenize src with
  | Ok toks -> List.map fst toks
  | Error e -> Alcotest.failf "%a" Pascal.Lexer.pp_error e

let test_lexer_basics () =
  let toks = lex "begin x := 10 + y41; { comment } end." in
  Alcotest.(check bool)
    "shape" true
    (toks
    = [
        Pascal.Lexer.Kw "begin"; Pascal.Lexer.Ident "x"; Pascal.Lexer.Sym ":=";
        Pascal.Lexer.Int 10; Pascal.Lexer.Sym "+"; Pascal.Lexer.Ident "y41";
        Pascal.Lexer.Sym ";"; Pascal.Lexer.Kw "end"; Pascal.Lexer.Sym ".";
        Pascal.Lexer.Eof;
      ])

let test_lexer_numbers () =
  Alcotest.(check bool)
    "real" true
    (lex "3.25" = [ Pascal.Lexer.Real 3.25; Pascal.Lexer.Eof ]);
  Alcotest.(check bool)
    "range is not a real" true
    (lex "1..5"
    = [ Pascal.Lexer.Int 1; Pascal.Lexer.Sym ".."; Pascal.Lexer.Int 5;
        Pascal.Lexer.Eof ])

let test_lexer_char_and_ops () =
  Alcotest.(check bool)
    "char" true
    (lex "'a'" = [ Pascal.Lexer.Char 'a'; Pascal.Lexer.Eof ]);
  Alcotest.(check bool)
    "two-char ops" true
    (lex "<= >= <> :="
    = [ Pascal.Lexer.Sym "<="; Pascal.Lexer.Sym ">="; Pascal.Lexer.Sym "<>";
        Pascal.Lexer.Sym ":="; Pascal.Lexer.Eof ])

let test_lexer_errors () =
  List.iter
    (fun src ->
      match Pascal.Lexer.tokenize src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S lexed" src)
    [ "{ unterminated"; "'ab'"; "#" ]

(* Property: the lexer gives the tokens, lines and errors of the one it
   replaced (test/reference.ml).  Sources are generated programs with
   letters re-cased at random (keywords in mixed case), lexically tricky
   fragments spliced in at random offsets (identifiers that extend a
   keyword, [..] next to reals, char literals, comments, integers at and
   past [max_int]), sometimes a stray character, an unterminated comment
   or a cut at a random offset. *)
let tricky_fragments =
  [| "endx"; "do1"; "BeGiN"; "ProGram"; "END"; "iN"; "_x1"; "tO2"; "1..2";
     "1.5..2.5"; "3.25"; "0.5"; "7."; "8.x"; "'a'"; "''''"; "'''"; "'ab'";
     "{ a comment\n over two lines }"; "{}"; ":="; ":"; "<>"; "<="; ">=";
     "<"; ".."; "..."; "4611686018427387903"; "4611686018427387904";
     "99999999999999999999999"; "007"; "x:=y"; "a[1..3]"; "\t"; "\r\n";
     " "; "}" |]

let stray_chars = [| "#"; "@"; "!"; "\""; "?"; "&"; "$"; "\000" |]

let lexer_source (seed, index, recase, splices, ending) =
  let rng = Fuzz.Rng.derive ~seed ~index in
  let base = Fuzz.Gen_pascal.source rng (Fuzz.Profile.rotate index) in
  let flip = Fuzz.Rng.create recase in
  let b = Buffer.create (String.length base + 256) in
  let rest = ref (List.sort compare splices) in
  String.iteri
    (fun i c ->
      let rec splice () =
        match !rest with
        | (at, k) :: tl when at mod (String.length base + 1) <= i ->
            Buffer.add_string b
              tricky_fragments.(k mod Array.length tricky_fragments);
            rest := tl;
            splice ()
        | _ -> ()
      in
      splice ();
      let c =
        if recase <> 0 && Fuzz.Rng.chance flip 1 3 then
          if Char.lowercase_ascii c = c then Char.uppercase_ascii c
          else Char.lowercase_ascii c
        else c
      in
      Buffer.add_char b c)
    base;
  let text = Buffer.contents b in
  match ending with
  | `Whole -> text
  | `Stray k ->
      let at = k mod (String.length text + 1) in
      String.sub text 0 at
      ^ stray_chars.(k mod Array.length stray_chars)
      ^ String.sub text at (String.length text - at)
  | `Unterminated -> text ^ " { never closed"
  | `Cut k -> String.sub text 0 (k mod (String.length text + 1))

let gen_lexer_case =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000
  and* index = int_bound 1_000
  and* recase = frequency [ (1, return 0); (3, int_bound 1_000_000) ]
  and* splices = list_size (int_range 0 12) (pair nat (int_bound 1_000))
  and* ending =
    frequency
      [
        (4, return `Whole);
        (1, map (fun k -> `Stray k) nat);
        (1, return `Unterminated);
        (1, map (fun k -> `Cut k) nat);
      ]
  in
  return (seed, index, recase, splices, ending)

let prop_lexer_reference =
  QCheck.Test.make ~count:300
    ~name:"tokens, lines and errors equal the reference"
    (QCheck.make gen_lexer_case ~print:lexer_source)
    (fun c ->
      let src = lexer_source c in
      Pascal.Lexer.tokenize src = Reference.Lexer.tokenize src)

(* -- parser ------------------------------------------------------------------ *)

let parse src =
  match Pascal.Parser.of_string src with
  | Ok p -> p
  | Error e -> Alcotest.failf "%a" Pascal.Parser.pp_error e

let test_parser_program_shape () =
  let p =
    parse
      {|
program demo;
var x, y : integer;
    a : array[1..10] of real;
procedure inc2;
begin x := x + 2 end;
begin
  for y := 1 to 3 do inc2;
  if x > 5 then x := 0 else x := 1
end.
|}
  in
  Alcotest.(check string) "name" "demo" p.Pascal.Ast.prog_name;
  check_int "globals" 3 (List.length p.Pascal.Ast.globals);
  check_int "procs" 1 (List.length p.Pascal.Ast.procs);
  check_int "main statements" 2 (List.length p.Pascal.Ast.main)

let test_parser_precedence () =
  let p = parse "program p; var x : integer; begin x := 1 + 2 * 3 end." in
  match p.Pascal.Ast.main with
  | [ Pascal.Ast.Sassign (_, Pascal.Ast.Ebin (Pascal.Ast.Add, _, Pascal.Ast.Ebin (Pascal.Ast.Mul, _, _))) ] ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parser_relation_binds_loosest () =
  let p = parse "program p; var b : boolean; begin b := 1 + 2 < 3 * 4 end." in
  match p.Pascal.Ast.main with
  | [ Pascal.Ast.Sassign (_, Pascal.Ast.Ebin (Pascal.Ast.Lt, _, _)) ] -> ()
  | _ -> Alcotest.fail "relation should bind loosest"

let test_parser_case () =
  let p =
    parse
      "program p; var x : integer; begin case x of 1, 2: x := 0; 3: x := 9 \
       otherwise x := 5 end end."
  in
  match p.Pascal.Ast.main with
  | [ Pascal.Ast.Scase (_, [ ([ 1; 2 ], _); ([ 3 ], _) ], Some _) ] -> ()
  | _ -> Alcotest.fail "case shape wrong"

let test_parser_errors () =
  List.iter
    (fun src ->
      match Pascal.Parser.of_string src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed" src)
    [
      "program p begin end.";
      "program p; begin x := end.";
      "program p; begin if x then end";
      "program p; var x : array[5..1] of integer; begin end.";
    ]

(* -- static semantics ----------------------------------------------------------- *)

let test_sema_accepts () =
  List.iter
    (fun (_, src) ->
      match Pascal.Sema.front_end src with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    Pipeline.Programs.all

let test_sema_rejects () =
  List.iter
    (fun (name, src) ->
      match Pascal.Sema.front_end src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" name)
    [
      ("bool arith", "program p; var b : boolean; begin b := b + b end.");
      ("array scalar", "program p; var a : array[0..3] of integer; begin a := 1 end.");
      ("real mod", "program p; var r : real; begin r := r mod r end.");
      ("in on int", "program p; var x : integer; begin if 1 in x then x := 1 end.");
      ("bad builtin arity", "program p; var x : integer; begin x := abs(1, 2) end.");
      ("while int", "program p; var x : integer; begin while x do x := 0 end.");
      ("dup var", "program p; var x, x : integer; begin end.");
      ("set too big", "program p; var s : set of 0..9999; begin end.");
    ]

(* -- interpreter ------------------------------------------------------------------ *)

let interp src =
  match Pascal.Sema.front_end src with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Pascal.Interp.run c with
      | Ok r -> r
      | Error e -> Alcotest.failf "%a" Pascal.Interp.pp_error e)

let written_ints (r : Pascal.Interp.result_t) =
  List.filter_map
    (function Pascal.Interp.Vint n -> Some n | _ -> None)
    r.Pascal.Interp.written

let test_interp_arith () =
  let r =
    interp
      "program p; var x : integer; begin x := (7 * 6 - 2) div 4; write(x); \
       write(-7 div 2); write(-7 mod 2) end."
  in
  Alcotest.(check (list int)) "values" [ 10; -3; -1 ] (written_ints r)

let test_interp_structures () =
  let r =
    interp
      {|
program p;
var a : array[0..4] of integer;
    s : set of 0..15;
    i, total : integer;
begin
  for i := 0 to 4 do a[i] := i * i;
  include(s, 3); include(s, 5); exclude(s, 3);
  total := 0;
  for i := 0 to 4 do
    if i in s then total := total + a[i];
  write(total)
end.
|}
  in
  Alcotest.(check (list int)) "only 5*5 counted? no: a[5] oob -> none" [ 0 ]
    (written_ints r)

let test_interp_div_by_zero () =
  match Pascal.Sema.front_end "program p; var x : integer; begin x := 1 div x end." with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Pascal.Interp.run c with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "division by zero not caught")

let test_interp_oob () =
  match
    Pascal.Sema.front_end
      "program p; var a : array[0..3] of integer; i : integer; begin i := \
       9; a[i] := 1 end."
  with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Pascal.Interp.run c with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out of bounds not caught")

let test_interp_boolean_connectives () =
  (* regression: [and]/[or]/[in] previously fell through the binary-
     operator evaluator to an [assert false]; nested connectives over
     set membership must evaluate (and short-circuit) properly *)
  let r =
    interp
      {|
program p;
var s : set of 0..15;
    a, b : boolean;
    x, n : integer;
begin
  include(s, 3); include(s, 7);
  x := 3;
  a := (x in s) and ((x + 4) in s);
  b := (x in s) or (99 div x > 0);
  if a and (b or not (x in s)) then n := 1 else n := 2;
  write(n);
  if (x in s) and not ((x + 1) in s) then write(10) else write(20);
  x := 0;
  a := false;
  if a and (1 div x > 0) then write(30) else write(40)
end.
|}
  in
  (* the last test also proves [and] short-circuits: evaluating its
     right operand would trap on the division by zero *)
  Alcotest.(check (list int)) "values" [ 1; 10; 40 ] (written_ints r)

let test_interp_chr_range_checked () =
  (* fuzzer-minimized (pasc fuzz --seed 19, case 4): the interpreter
     used to mask chr's argument to the low byte while compiled code
     kept the full ordinal in a register, so the two sides took
     different arms of the comparison.  Out-of-range chr is a runtime
     error now, on the model of div-by-zero — the in-range case below
     must still agree with the machine end to end. *)
  (match
     Pascal.Sema.front_end
       "program p; var r1 : real; begin if chr(sqr(-563)) >= 'q' then begin \
        end else r1 := 6.63 end."
   with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Pascal.Interp.run c with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-range chr not caught"));
  let r =
    interp
      "program p; var c : char; n : integer; begin c := chr(113); if c >= \
       'q' then n := 1 else n := 2; write(n) end."
  in
  Alcotest.(check (list int)) "in-range chr still works" [ 1 ] (written_ints r)

let test_interp_32bit_wrap () =
  let r =
    interp
      "program p; var x : integer; begin x := 2000000000; x := x + x; write(x) end."
  in
  Alcotest.(check (list int)) "wraps like the machine"
    [ Int32.to_int (Int32.add 2000000000l 2000000000l) ]
    (written_ints r)

let () =
  Alcotest.run "pascal"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "chars and ops" `Quick test_lexer_char_and_ops;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_lexer_reference ]);
      ( "parser",
        [
          Alcotest.test_case "program shape" `Quick test_parser_program_shape;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "relations loosest" `Quick test_parser_relation_binds_loosest;
          Alcotest.test_case "case" `Quick test_parser_case;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "sema",
        [
          Alcotest.test_case "accepts the corpus" `Quick test_sema_accepts;
          Alcotest.test_case "rejects bad programs" `Quick test_sema_rejects;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "arrays and sets" `Quick test_interp_structures;
          Alcotest.test_case "boolean connectives and in" `Quick
            test_interp_boolean_connectives;
          Alcotest.test_case "division by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "bounds" `Quick test_interp_oob;
          Alcotest.test_case "chr range checked" `Quick
            test_interp_chr_range_checked;
          Alcotest.test_case "32-bit wrap" `Quick test_interp_32bit_wrap;
        ] );
    ]
