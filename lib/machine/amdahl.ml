(** The Amdahl 470 (System/360-370 subset) target substrate.

    The opcode tables, encoder and simulator predate the second backend
    and live in {!Insn}, {!Encode}, {!Sim} and {!Runtime}; this module
    packages them behind the {!Target.t} interface together with the
    pieces the emitter used to hard-code: operand-shape validation per
    architected format, the instruction builder, spill/move/abort
    idioms, and the span-dependent branch model. *)

let is_shift = function
  | "sla" | "sra" | "sll" | "srl" | "slda" | "srda" | "sldl" | "srdl" -> true
  | _ -> false

(* validate machine-instruction operand shapes against the format; [nsubs]
   lists the sub-operand count of each written operand *)
let validate ~(mnem : string) ~(nsubs : int list) : (unit, string) result =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let arity n =
    if List.length nsubs <> n then
      fail "%s: expected %d operands, got %d" mnem n (List.length nsubs)
    else Ok ()
  in
  let sub k = List.nth nsubs k in
  match Insn.format_of_mnemonic mnem with
  | None -> fail "%s is not a target instruction" mnem
  | Some Insn.RR ->
      Result.bind (arity 2) (fun () ->
          if sub 0 <> 0 || sub 1 <> 0 then
            fail "%s: RR operands take no sub-operands" mnem
          else Ok ())
  | Some Insn.RX ->
      Result.bind (arity 2) (fun () ->
          if sub 0 <> 0 then fail "%s: first operand must be a register" mnem
          else if sub 1 > 2 then fail "%s: too many address sub-operands" mnem
          else Ok ())
  | Some Insn.RS ->
      if is_shift mnem then
        Result.bind (arity 2) (fun () ->
            if sub 0 <> 0 then fail "%s: first operand must be a register" mnem
            else if sub 1 > 1 then fail "%s: shift takes at most d(b)" mnem
            else Ok ())
      else
        Result.bind (arity 3) (fun () ->
            if sub 0 <> 0 || sub 1 <> 0 then
              fail "%s: register operands take no sub-operands" mnem
            else if sub 2 > 1 then fail "%s: address takes at most d(b)" mnem
            else Ok ())
  | Some Insn.SI ->
      Result.bind (arity 2) (fun () ->
          if sub 0 > 1 then fail "%s: address takes at most d(b)" mnem
          else if sub 1 <> 0 then
            fail "%s: immediate takes no sub-operands" mnem
          else Ok ())
  | Some Insn.SS ->
      Result.bind (arity 2) (fun () ->
          if sub 0 <> 2 then fail "%s: first operand must be d(l,b)" mnem
          else if sub 1 > 1 then
            fail "%s: second operand takes at most d(b)" mnem
          else Ok ())

let insn_builder ~(mnem : string) ~(nsubs : int list) :
    (int array -> Insn.t, string) result =
  match Insn.format_of_mnemonic mnem with
  | None -> Fmt.kstr (fun m -> Error m) "unknown mnemonic %s at emission" mnem
  | Some fmt -> (
      let ops = Target.operands nsubs in
      let plain k = Target.plain ops ~mnem k in
      let memop k =
        match Target.memop ops k with
        | Some m -> m
        | None -> Fmt.failwith "%s: missing storage operand" mnem
      in
      let v = Target.value in
      try
        Ok
          (match fmt with
          | Insn.RR ->
              let r1 = plain 0 and r2 = plain 1 in
              fun a -> Insn.Rr { op = mnem; r1 = a.(r1); r2 = a.(r2) }
          | Insn.RX ->
              let r1 = plain 0 and d2, x2, b2 = memop 1 in
              fun a ->
                Insn.Rx
                  { op = mnem; r1 = a.(r1); d2 = a.(d2); x2 = v a x2;
                    b2 = v a b2 }
          | Insn.RS when is_shift mnem ->
              let r1 = plain 0 and d2, _, b2 = memop 1 in
              fun a ->
                Insn.Rs
                  { op = mnem; r1 = a.(r1); r3 = 0; d2 = a.(d2); b2 = v a b2 }
          | Insn.RS ->
              let r1 = plain 0 and r3 = plain 1 and d2, _, b2 = memop 2 in
              fun a ->
                Insn.Rs
                  { op = mnem; r1 = a.(r1); r3 = a.(r3); d2 = a.(d2);
                    b2 = v a b2 }
          | Insn.SI ->
              let d1, _, b1 = memop 0 and i2 = plain 1 in
              fun a ->
                Insn.Si { op = mnem; d1 = a.(d1); b1 = v a b1; i2 = a.(i2) }
          | Insn.SS ->
              (* d(l,b): the length sits where an index would *)
              let d1, l, b1 =
                match Target.memop ops 0 with
                | Some ((_, l, _) as m) when l >= 0 -> m
                | _ -> Fmt.failwith "%s: first operand must be d(l,b)" mnem
              in
              let d2, _, b2 = memop 1 in
              fun a ->
                Insn.Ss
                  { op = mnem; l = a.(l); d1 = a.(d1); b1 = a.(b1);
                    d2 = a.(d2); b2 = v a b2 })
      with Failure m -> Error m)

let spill_store ~fp ~reg ~dsp ~base =
  Insn.Rx { op = (if fp then "std" else "st"); r1 = reg; d2 = dsp; x2 = 0;
            b2 = base }

let reg_move ~fp ~dst ~src =
  Insn.Rr { op = (if fp then "ldr" else "lr"); r1 = dst; r2 = src }

let abort_insns ~errno =
  [
    Insn.Rx { op = "la"; r1 = 1; d2 = errno; x2 = 0; b2 = 0 };
    Insn.Rx
      { op = "bal"; r1 = 14; d2 = Runtime.psa_abort; x2 = 0;
        b2 = Runtime.pr_base };
  ]

let target : Target.t =
  {
    Target.name = "amdahl470";
    spec_file = "specs/amdahl470.cgg";
    is_mnemonic = Insn.is_mnemonic;
    validate;
    insn_builder;
    site_model = Target.Span_dependent;
    spill_store;
    reg_move;
    abort_insns;
    boot = Runtime.boot;
    run = Runtime.run;
  }
