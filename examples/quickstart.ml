(* Quickstart: the paper's section-1 example, end to end.

   A code generator specification is written as a simple SDTS; CoGG turns
   it into driving tables; the generated code generator parses a
   linearized IF program and emits 370 code, which runs on the simulator.

     dune exec examples/quickstart.exe *)

let spec =
  {|
* The artificial machine of the paper's first section.
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word, iadd, store, ret
$Opcodes
 l, ar, st, bcr
$Constants
 using, need, modifies
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

(* A := A + B, with A at address 100 and B at 104: the paper's
   store(word d.a, iadd(word d.a, word d.b)) *)
let program = "store word d:100 iadd word d:100 word d:104 ret"

let () =
  Fmt.pr "=== 1. build the code generator from its specification ===@.";
  let tables =
    match Cogg.Cogg_build.build_string spec with
    | Ok t -> t
    | Error es ->
        Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
        exit 1
  in
  Fmt.pr "built: %d productions, %d parser states@.@."
    tables.Cogg.Tables.n_user_prods
    (Cogg.Tables.n_states tables);

  Fmt.pr "=== 2. generate code for  A := A + B  ===@.";
  let r =
    match Cogg.Codegen.generate_string tables program with
    | Ok r -> r
    | Error m ->
        Fmt.epr "%s@." m;
        exit 1
  in
  Fmt.pr "%s@.@." r.Cogg.Codegen.listing;

  Fmt.pr "=== 3. the object module (loader records) ===@.";
  Fmt.pr "%s@.@." (Machine.Objmod.to_string r.Cogg.Codegen.objmod);

  Fmt.pr "=== 4. load and execute on the simulated 370 ===@.";
  let sim = Machine.Sim.create () in
  (match Machine.Objmod.load sim.Machine.Sim.mem ~at:0x10000 r.Cogg.Codegen.objmod with
  | Error m ->
      Fmt.epr "%s@." m;
      exit 1
  | Ok entry ->
      Machine.Sim.store_w sim 100 7;
      Machine.Sim.store_w sim 104 35;
      Machine.Sim.set_reg sim 14 0;
      ignore (Machine.Sim.run sim ~entry);
      Fmt.pr "A was 7, B was 35; after execution A = %d@."
        (Machine.Sim.load_w sim 100))
