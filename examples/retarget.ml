(* Retargeting by specification (paper section 6): "retargetting the code
   generator merely requires a rewriting of the templates associated with
   productions".

   Two demonstrations over the same source program and the same front
   end/shaper:

   1. WITHIN one machine: code generators built from four Amdahl grammars
      of decreasing complexity (full addressing-mode redundancy down to a
      minimal register-register core).  The emitted code changes — fused
      memory operands disappear, more loads appear — but every variant
      computes the same answer.

   2. ACROSS machines: the code generator rebuilt from every registered
      target's specification (Amdahl 470 two-address CISC vs RISC-32
      three-address load/store).  Nothing above the spec changes; the
      listing shape follows the grammar, and both backends print the same
      answer.

     dune exec examples/retarget.exe *)

let program =
  {|
program demo;
var a, b, c, x : integer;
begin
  a := 21; b := 4; c := 100;
  x := (a * b + c) div (b + 1);
  write(x)
end.
|}

let () =
  let spec = Util_ex.amdahl_spec () in
  List.iter
    (fun lvl ->
      let sub = Cogg.Spec_subset.filter lvl spec in
      match Cogg.Cogg_build.build sub with
      | Error es ->
          Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
          exit 1
      | Ok tables -> (
          Fmt.pr "================ grammar: %-8s (%d productions, %d states) ================@."
            (Cogg.Spec_subset.level_name lvl)
            tables.Cogg.Tables.n_user_prods
            (Cogg.Tables.n_states tables);
          match Pipeline.verify ~cse:false tables program with
          | Error m ->
              Fmt.epr "%s@." m;
              exit 1
          | Ok v ->
              (match Pipeline.compile ~cse:false tables program with
              | Ok c -> Fmt.pr "%s@." c.Pipeline.gen.Cogg.Codegen.listing
              | Error m -> Fmt.epr "%s@." m);
              Fmt.pr "result: %a   correct: %b@.@."
                Fmt.(list int)
                v.Pipeline.executed.Pipeline.written_ints v.Pipeline.agreed))
    Cogg.Spec_subset.all_levels;
  (* part 2: the same program through every registered target's full
     grammar — retargeting by swapping the specification file *)
  List.iter
    (fun name ->
      let target = Machine.Targets.find_exn name in
      let tables =
        match
          Cogg.Cogg_build.build_file ~target
            (Util_ex.spec_path
               (Filename.basename target.Machine.Target.spec_file))
        with
        | Ok t -> t
        | Error es ->
            Fmt.epr "%a@." (Fmt.list Cogg.Cogg_build.pp_error) es;
            exit 1
      in
      Fmt.pr
        "================ target: %-9s (%d productions, %d states) \
         ================@."
        name tables.Cogg.Tables.n_user_prods
        (Cogg.Tables.n_states tables);
      match Pipeline.verify ~cse:false tables program with
      | Error m ->
          Fmt.epr "%s@." m;
          exit 1
      | Ok v ->
          (match Pipeline.compile ~cse:false tables program with
          | Ok c -> Fmt.pr "%s@." c.Pipeline.gen.Cogg.Codegen.listing
          | Error m -> Fmt.epr "%s@." m);
          Fmt.pr "result: %a   correct: %b@.@."
            Fmt.(list int)
            v.Pipeline.executed.Pipeline.written_ints v.Pipeline.agreed)
    Machine.Targets.names
