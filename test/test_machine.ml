(* Unit and property tests for the machine substrates: the IBM 370's
   instruction encoding/decoding, simulator semantics and object-module
   format, and the RISC-32's encoding and the semantics it does not share
   with the 370 (r0 hardwired to zero, cc set only by compares, load
   widths, ftoi truncation). *)

open Machine

let check_int = Alcotest.(check int)

(* -- helpers -------------------------------------------------------------- *)

(* Assemble a sequence, run it from address [at] until halt (branch to 0),
   return the simulator. *)
let run_insns ?(setup = fun _ -> ()) (insns : Insn.t list) : Sim.t =
  let code = Encode.encode_all insns in
  let sim = Sim.create ~mem_size:(1 lsl 18) () in
  Bytes.blit code 0 sim.Sim.mem 0x1000 (Bytes.length code);
  setup sim;
  (* r14 = 0 so "bcr 15,14" halts *)
  Sim.set_reg sim 14 0;
  ignore (Sim.run sim ~entry:0x1000);
  sim

let halt : Insn.t = Rr { op = "bcr"; r1 = 15; r2 = 14 }

(* -- encode/decode -------------------------------------------------------- *)

let sample_insns : Insn.t list =
  [
    Rr { op = "lr"; r1 = 1; r2 = 2 };
    Rr { op = "ar"; r1 = 15; r2 = 0 };
    Rx { op = "l"; r1 = 3; d2 = 132; x2 = 0; b2 = 12 };
    Rx { op = "st"; r1 = 7; d2 = 4095; x2 = 5; b2 = 13 };
    Rx { op = "bc"; r1 = 8; d2 = 100; x2 = 0; b2 = 12 };
    Rs { op = "sla"; r1 = 1; r3 = 0; d2 = 2; b2 = 0 };
    Rs { op = "stm"; r1 = 14; r3 = 13; d2 = 8; b2 = 13 };
    Si { op = "mvi"; d1 = 100; b1 = 13; i2 = 255 };
    Si { op = "tm"; d1 = 0; b1 = 1; i2 = 0x80 };
    Ss { op = "mvc"; l = 4; d1 = 144; b1 = 13; d2 = 168; b2 = 13 };
  ]

let test_roundtrip () =
  List.iter
    (fun i ->
      let b = Encode.encode i in
      let i', sz = Encode.decode b 0 in
      check_int "size" (Bytes.length b) sz;
      Alcotest.(check string)
        "roundtrip" (Insn.to_string i) (Insn.to_string i'))
    sample_insns

let test_sizes () =
  check_int "rr" 2 (Insn.size (List.nth sample_insns 0));
  check_int "rx" 4 (Insn.size (List.nth sample_insns 2));
  check_int "ss" 6 (Insn.size (List.nth sample_insns 9))

let test_encode_all_decode_all () =
  let buf = Encode.encode_all sample_insns in
  let back = Encode.decode_all buf ~pos:0 ~len:(Bytes.length buf) in
  check_int "count" (List.length sample_insns) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "insn" (Insn.to_string a) (Insn.to_string b))
    sample_insns back

let test_bad_encodings () =
  (match Encode.encode (Rx { op = "l"; r1 = 1; d2 = 4096; x2 = 0; b2 = 0 }) with
  | exception Encode.Encode_error _ -> ()
  | _ -> Alcotest.fail "oversized displacement accepted");
  match Encode.encode (Rr { op = "l"; r1 = 1; r2 = 2 }) with
  | exception Encode.Encode_error _ -> ()
  | _ -> Alcotest.fail "format mismatch not detected"

(* Property: random well-formed instructions survive encode/decode. *)
let gen_insn =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let disp = int_bound 4095 in
  let pick fmt =
    let mnems =
      List.filter_map
        (fun (m, (_, f)) -> if f = fmt then Some m else None)
        Insn.opcode_table
    in
    oneofl mnems
  in
  oneof
    [
      (let* op = pick Insn.RR and* r1 = reg and* r2 = reg in
       return (Insn.Rr { op; r1; r2 }));
      (let* op = pick Insn.RX and* r1 = reg and* d2 = disp
       and* x2 = reg and* b2 = reg in
       return (Insn.Rx { op; r1; d2; x2; b2 }));
      (let* op = pick Insn.RS and* r1 = reg and* r3 = reg and* d2 = disp
       and* b2 = reg in
       return (Insn.Rs { op; r1; r3; d2; b2 }));
      (let* op = pick Insn.SI and* d1 = disp and* b1 = reg
       and* i2 = int_bound 255 in
       return (Insn.Si { op; d1; b1; i2 }));
      (let* op = pick Insn.SS and* l = int_range 1 256 and* d1 = disp
       and* b1 = reg and* d2 = disp and* b2 = reg in
       return (Insn.Ss { op; l; d1; b1; d2; b2 }));
    ]

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode roundtrip"
    (QCheck.make gen_insn ~print:Insn.to_string)
    (fun i ->
      let b = Encode.encode i in
      let i', sz = Encode.decode b 0 in
      sz = Bytes.length b && Insn.to_string i = Insn.to_string i')

(* Property: listing text equals the renderers it replaced
   (test/reference.ml) for every instruction constructor and every
   code-buffer item kind, over fields that are negative, zero, one digit,
   many digits and the extremes, and mnemonics from both opcode tables
   plus ones shorter, longer or empty. *)
let gen_field =
  let open QCheck.Gen in
  frequency
    [
      (3, int_range 0 15);
      (2, int_range (-15) (-1));
      (2, int_range (-99_999) 99_999);
      (1, oneofl [ 0; 9; 10; -9; -10; 4095; max_int; min_int; min_int + 1 ]);
      (1, int);
    ]

let gen_listing_item : Cogg.Code_buffer.item QCheck.Gen.t =
  let open QCheck.Gen in
  let f = gen_field in
  let op =
    oneof
      [
        oneofl (List.map fst Insn.opcode_table);
        oneofl (List.map fst Insn.r32_opcode_table);
        oneofl [ ""; "x"; "jr"; "itof"; "ftoi"; "fcmp"; "mnemonic" ];
      ]
  in
  let insn =
    oneof
      [
        (let* op and* r1 = f and* r2 = f in
         return (Insn.Rr { op; r1; r2 }));
        (let* op and* r1 = f and* d2 = f and* x2 = f and* b2 = f in
         return (Insn.Rx { op; r1; d2; x2; b2 }));
        (let* op and* r1 = f and* r3 = f and* d2 = f and* b2 = f in
         return (Insn.Rs { op; r1; r3; d2; b2 }));
        (let* op and* d1 = f and* b1 = f and* i2 = f in
         return (Insn.Si { op; d1; b1; i2 }));
        (let* op and* l = f and* d1 = f and* b1 = f and* d2 = f and* b2 = f in
         return (Insn.Ss { op; l; d1; b1; d2; b2 }));
        (let* op and* rd = f and* rs1 = f and* rs2 = f in
         return (Insn.R3 { op; rd; rs1; rs2 }));
        (let* op and* rd = f and* rs = f in
         return (Insn.R2 { op; rd; rs }));
        (let* op and* rd = f and* rs = f and* imm = f in
         return (Insn.Ri { op; rd; rs; imm }));
        (let* op and* rd = f and* imm = f in
         return (Insn.Li { op; rd; imm }));
        (let* op and* rd = f and* dsp = f and* rb = f in
         return (Insn.Mem { op; rd; dsp; rb }));
        (let* mask = f and* rel = f in
         return (Insn.Bcc { mask; rel }));
      ]
  in
  let label =
    let* n = f in
    oneofl [ Cogg.Code_buffer.User n; Cogg.Code_buffer.Internal n ]
  in
  let open Cogg.Code_buffer in
  oneof
    [
      map (fun i -> Fixed i) insn;
      (let* mask = f and* lbl = label and* idx = f and* x = f in
       return (Branch_site { mask; lbl; idx; x }));
      (let* reg = f and* lbl = label and* idx = f in
       return (Case_site { reg; lbl; idx }));
      map (fun l -> Label_def l) label;
      map (fun v -> Word_lit v) f;
      map (fun l -> Word_label l) label;
    ]

let prop_listing_reference =
  QCheck.Test.make ~count:2000 ~name:"listing text equals the reference"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 12) gen_listing_item)
       ~print:(fun items -> Reference.Listing.listing (Array.of_list items)))
    (fun items ->
      let cb = Cogg.Code_buffer.create () in
      List.iter (Cogg.Code_buffer.add cb) items;
      List.for_all
        (function
          | Cogg.Code_buffer.Fixed i ->
              Insn.to_string i = Reference.Listing.insn_to_string i
          | _ -> true)
        items
      && Cogg.Code_buffer.to_listing cb
         = Reference.Listing.listing (Array.of_list items))

(* -- simulator semantics --------------------------------------------------- *)

let test_load_add_store () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 13 0x2000;
        Sim.store_w s 0x2064 7;
        Sim.store_w s 0x2068 35)
      [
        Rx { op = "l"; r1 = 1; d2 = 0x64; x2 = 0; b2 = 13 };
        Rx { op = "a"; r1 = 1; d2 = 0x68; x2 = 0; b2 = 13 };
        Rx { op = "st"; r1 = 1; d2 = 0x6C; x2 = 0; b2 = 13 };
        halt;
      ]
  in
  check_int "sum stored" 42 (Sim.load_w sim 0x206C)

let test_halfword_and_byte () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 13 0x2000;
        Sim.store_h s 0x2010 (-5);
        Sim.store_u8 s 0x2014 200)
      [
        Rx { op = "lh"; r1 = 2; d2 = 0x10; x2 = 0; b2 = 13 };
        Rr { op = "xr"; r1 = 3; r2 = 3 };
        Rx { op = "ic"; r1 = 3; d2 = 0x14; x2 = 0; b2 = 13 };
        Rr { op = "ar"; r1 = 2; r2 = 3 };
        halt;
      ]
  in
  check_int "lh sign extends; ic inserts" 195 (Sim.reg sim 2)

let test_mult_div_pair () =
  (* product in odd register; quotient odd, remainder even *)
  let sim =
    run_insns
      ~setup:(fun s -> Sim.set_reg s 5 17; Sim.set_reg s 3 17)
      [ Rr { op = "mr"; r1 = 4; r2 = 3 }; halt ]
  in
  check_int "product low (odd)" 289 (Sim.reg sim 5);
  check_int "product high (even)" 0 (Sim.reg sim 4);
  let sim2 =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 6 (-100);
        Sim.set_reg s 3 7)
      [
        Rs { op = "srda"; r1 = 6; r3 = 0; d2 = 32; b2 = 0 };
        Rr { op = "dr"; r1 = 6; r2 = 3 };
        halt;
      ]
  in
  check_int "quotient (odd)" (-14) (Sim.reg sim2 7);
  check_int "remainder (even)" (-2) (Sim.reg sim2 6)

let test_srda_sign_extension () =
  let sim =
    run_insns
      ~setup:(fun s -> Sim.set_reg s 2 (-7))
      [ Rs { op = "srda"; r1 = 2; r3 = 0; d2 = 32; b2 = 0 }; halt ]
  in
  check_int "even = sign" (-1) (Sim.reg sim 2);
  check_int "odd = value" (-7) (Sim.reg sim 3)

let test_compare_and_branch () =
  (* if r1 < r2 then r3 := 1 else r3 := 2 *)
  let prog lt =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 1 (if lt then 3 else 9);
        Sim.set_reg s 2 5;
        Sim.set_reg s 12 0x1000)
      [
        Rr { op = "cr"; r1 = 1; r2 = 2 } (* +0, size 2 *);
        Rx { op = "bc"; r1 = 4; d2 = 0x10; x2 = 0; b2 = 12 } (* +2 *);
        Rx { op = "la"; r1 = 3; d2 = 2; x2 = 0; b2 = 0 } (* +6 *);
        halt (* +10 *);
        Rr { op = "lr"; r1 = 0; r2 = 0 } (* +12 pad *);
        Rr { op = "lr"; r1 = 0; r2 = 0 } (* +14 pad *);
        Rx { op = "la"; r1 = 3; d2 = 1; x2 = 0; b2 = 0 } (* +16 = 0x10 *);
        halt;
      ]
  in
  check_int "taken" 1 (Sim.reg (prog true) 3);
  check_int "fallthrough" 2 (Sim.reg (prog false) 3)

let test_bctr_decrement () =
  let sim =
    run_insns
      ~setup:(fun s -> Sim.set_reg s 3 10)
      [ Rr { op = "bctr"; r1 = 3; r2 = 0 }; halt ]
  in
  check_int "bctr r3,r0 decrements" 9 (Sim.reg sim 3)

let test_tm_condition () =
  let run_with byte =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 13 0x2000;
        Sim.store_u8 s 0x2004 byte)
      [ Si { op = "tm"; d1 = 4; b1 = 13; i2 = 1 }; halt ]
  in
  check_int "bit clear -> cc 0" 0 (run_with 0).Sim.cc;
  check_int "bit set -> cc 3" 3 (run_with 1).Sim.cc

let test_mvc () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 13 0x2000;
        Sim.store_w s 0x2020 0xDEAD)
      [ Ss { op = "mvc"; l = 4; d1 = 0x30; b1 = 13; d2 = 0x20; b2 = 13 }; halt ]
  in
  check_int "copied word" 0xDEAD (Sim.load_w sim 0x2030)

let test_stm_lm_wraparound () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 13 0x2000;
        for i = 0 to 15 do
          if i <> 13 && i <> 14 then Sim.set_reg s i (100 + i)
        done)
      [
        Rs { op = "stm"; r1 = 15; r3 = 12; d2 = 8; b2 = 13 };
        (* clobber, then restore *)
        Rx { op = "la"; r1 = 5; d2 = 0; x2 = 0; b2 = 0 };
        Rs { op = "lm"; r1 = 15; r3 = 12; d2 = 8; b2 = 13 };
        halt;
      ]
  in
  check_int "r5 restored" 105 (Sim.reg sim 5);
  check_int "r15 restored" 115 (Sim.reg sim 15)

let test_shifts () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 1 3;
        Sim.set_reg s 2 (-64))
      [
        Rs { op = "sla"; r1 = 1; r3 = 0; d2 = 2; b2 = 0 };
        Rs { op = "sra"; r1 = 2; r3 = 0; d2 = 3; b2 = 0 };
        halt;
      ]
  in
  check_int "sla" 12 (Sim.reg sim 1);
  check_int "sra" (-8) (Sim.reg sim 2)

let test_overflow_cc () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 1 0x7FFFFFFF;
        Sim.set_reg s 2 1)
      [ Rr { op = "ar"; r1 = 1; r2 = 2 }; halt ]
  in
  check_int "overflow cc=3" 3 sim.Sim.cc

let test_mvcl () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 2 0x3000 (* dst *);
        Sim.set_reg s 3 8 (* dst len *);
        Sim.set_reg s 4 0x2000 (* src *);
        Sim.set_reg s 5 8 (* src len *);
        Sim.store_w s 0x2000 0x01020304;
        Sim.store_w s 0x2004 0x05060708)
      [ Rr { op = "mvcl"; r1 = 2; r2 = 4 }; halt ]
  in
  check_int "first word" 0x01020304 (Sim.load_w sim 0x3000);
  check_int "second word" 0x05060708 (Sim.load_w sim 0x3004)

(* Property: ar matches 32-bit signed addition *)
let prop_add =
  QCheck.Test.make ~count:300 ~name:"ar = 32-bit signed add"
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      let sim =
        run_insns
          ~setup:(fun s ->
            Sim.set_reg s 1 (Int32.to_int a);
            Sim.set_reg s 2 (Int32.to_int b))
          [ Rr { op = "ar"; r1 = 1; r2 = 2 }; halt ]
      in
      Sim.reg sim 1 = Int32.to_int (Int32.add a b))

let prop_mr_dr =
  QCheck.Test.make ~count:300 ~name:"mr/dr = 64-bit multiply & divide"
    QCheck.(pair (int_range (-100000) 100000) (int_range 1 10000))
    (fun (a, b) ->
      let sim =
        run_insns
          ~setup:(fun s ->
            Sim.set_reg s 5 a;
            Sim.set_reg s 3 b)
          [
            Rr { op = "mr"; r1 = 4; r2 = 3 } (* r4:r5 = a*b *);
            Rr { op = "dr"; r1 = 4; r2 = 3 } (* r5 = a*b/b = a *);
            halt;
          ]
      in
      Sim.reg sim 5 = a && Sim.reg sim 4 = 0)

(* -- object modules -------------------------------------------------------- *)

let test_objmod_roundtrip () =
  let code = Encode.encode_all sample_insns in
  let m = Objmod.of_code ~name:"TEST" ~entry:0 code in
  let text = Objmod.to_string m in
  match Objmod.of_string text with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      check_int "text bytes" (Bytes.length code) (Objmod.text_bytes m');
      Alcotest.(check (option string)) "name" (Some "TEST") (Objmod.module_name m');
      let mem = Bytes.make 0x1000 '\000' in
      (match Objmod.load mem ~at:0x100 m' with
      | Error e -> Alcotest.fail e
      | Ok entry ->
          check_int "entry relocated" 0x100 entry;
          Alcotest.(check string)
            "payload intact"
            (Bytes.to_string code)
            (Bytes.sub_string mem 0x100 (Bytes.length code)))

let test_objmod_bad_records () =
  (match Objmod.of_string "TXT 0000 02 GG" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad hex accepted");
  match Objmod.of_string "FOO bar" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown record accepted"

(* -- runtime / PSA --------------------------------------------------------- *)

let test_runtime_entry_exit () =
  (* a main program that builds a frame, stores 99 in a local, and exits *)
  let lay = Runtime.default_layout in
  let insns : Insn.t list =
    [
      Rs { op = "stm"; r1 = 14; r3 = 13; d2 = Runtime.save_area; b2 = 13 };
      Rx { op = "bal"; r1 = 14; d2 = Runtime.psa_entry_code; x2 = 0; b2 = Runtime.pr_base };
      Rx { op = "la"; r1 = 1; d2 = 99; x2 = 0; b2 = 0 };
      Rx { op = "st"; r1 = 1; d2 = Runtime.locals_base; x2 = 0; b2 = 13 };
      (* exit: reload old frame, restore registers, return *)
      Rx { op = "l"; r1 = 13; d2 = Runtime.old_base; x2 = 0; b2 = 13 };
      Rs { op = "lm"; r1 = 14; r3 = 13; d2 = Runtime.save_area; b2 = 13 };
      Rr { op = "bcr"; r1 = 15; r2 = 14 };
    ]
  in
  let m = Objmod.of_code ~entry:0 (Encode.encode_all insns) in
  match Runtime.boot ~layout:lay m with
  | Error e -> Alcotest.fail e
  | Ok (sim, entry) -> (
      match Runtime.run ~layout:lay sim ~entry with
      | Error e -> Alcotest.fail e
      | Ok out ->
          Alcotest.(check (option string)) "no abort" None out.aborted;
          check_int "local written in frame" 99
            (Sim.load_w sim (out.final_frame + Runtime.locals_base)))

let test_runtime_range_check_abort () =
  let lay = Runtime.default_layout in
  (* compare 5 with upper bound 3 -> overflow check must abort *)
  let insns : Insn.t list =
    [
      Rx { op = "la"; r1 = 1; d2 = 5; x2 = 0; b2 = 0 };
      Rx { op = "la"; r1 = 2; d2 = 3; x2 = 0; b2 = 0 };
      Rr { op = "cr"; r1 = 1; r2 = 2 };
      Rx { op = "bal"; r1 = 14; d2 = Runtime.psa_overflow; x2 = 0; b2 = Runtime.pr_base };
      Rr { op = "bcr"; r1 = 15; r2 = 14 };
    ]
  in
  let m = Objmod.of_code ~entry:0 (Encode.encode_all insns) in
  match Runtime.boot ~layout:lay m with
  | Error e -> Alcotest.fail e
  | Ok (sim, entry) -> (
      match Runtime.run ~layout:lay sim ~entry with
      | Error e -> Alcotest.fail e
      | Ok out ->
          Alcotest.(check (option string))
            "aborted" (Some "range overflow") out.aborted)

let test_runtime_check_passes () =
  let lay = Runtime.default_layout in
  let insns : Insn.t list =
    [
      Rx { op = "la"; r1 = 1; d2 = 2; x2 = 0; b2 = 0 };
      Rx { op = "la"; r1 = 2; d2 = 3; x2 = 0; b2 = 0 };
      Rr { op = "cr"; r1 = 1; r2 = 2 };
      Rx { op = "bal"; r1 = 14; d2 = Runtime.psa_overflow; x2 = 0; b2 = Runtime.pr_base };
      (* the bal clobbered r14; reset it so the return halts *)
      Rx { op = "la"; r1 = 14; d2 = 0; x2 = 0; b2 = 0 };
      Rr { op = "bcr"; r1 = 15; r2 = 14 };
    ]
  in
  let m = Objmod.of_code ~entry:0 (Encode.encode_all insns) in
  match Runtime.boot ~layout:lay m with
  | Error e -> Alcotest.fail e
  | Ok (sim, entry) -> (
      match Runtime.run ~layout:lay sim ~entry with
      | Error e -> Alcotest.fail e
      | Ok out -> Alcotest.(check (option string)) "no abort" None out.aborted)

let test_psa_constants () =
  let sim = Sim.create () in
  Runtime.install sim Runtime.default_layout;
  let psa = Runtime.default_layout.psa_addr in
  check_int "one_loc" 1 (Sim.load_w sim (psa + Runtime.psa_one_loc));
  check_int "minus_one_loc" (-1) (Sim.load_w sim (psa + Runtime.psa_minus_one_loc));
  check_int "seven" 7 (Sim.load_w sim (psa + Runtime.psa_seven));
  check_int "bitmask 0" 0x80 (Sim.load_w sim (psa + Runtime.psa_bitmasks));
  check_int "bitmask 7" 1 (Sim.load_w sim (psa + Runtime.psa_bitmasks + 28))

(* -- per-opcode semantics --------------------------------------------------- *)

(* One table entry per behaviour: assemble [body] (the halt idiom is
   appended), run, check the expectations.  [mnems] declares which spec
   opcodes the entry exercises; the completeness check below insists the
   union covers the whole $Opcodes section of specs/amdahl470.cgg, so an
   opcode added to the spec without semantics coverage fails here. *)
type expect =
  | R of int * int  (* GPR value *)
  | F of int * float  (* FP register value *)
  | M of int * int  (* word at absolute address *)
  | MH of int * int  (* halfword *)
  | MB of int * int  (* byte *)
  | MF32 of int * float
  | MF64 of int * float
  | CC of int  (* final condition code *)

type opcase = {
  mnems : string list;
  case : string;
  setup : Sim.t -> unit;
  body : Insn.t list;
  expect : expect list;
}

let rr op r1 r2 : Insn.t = Rr { op; r1; r2 }
let rx op r1 ?(x = 0) ?(b = 13) d2 : Insn.t = Rx { op; r1; d2; x2 = x; b2 = b }
let rs op r1 r3 d2 : Insn.t = Rs { op; r1; r3; d2; b2 = 0 }
let si op d1 i2 : Insn.t = Si { op; d1; b1 = 13; i2 }
let ss op l d1 d2 : Insn.t = Ss { op; l; d1; b1 = 13; d2; b2 = 13 }

(* data area at r13 = 0x2000 *)
let opcases : opcase list =
  [
    (* integer loads and stores *)
    {
      mnems = [ "l"; "st" ];
      case = "l/st";
      setup = (fun s -> Sim.store_w s 0x2064 77);
      body = [ rx "l" 1 0x64; rx "st" 1 0x70 ];
      expect = [ R (1, 77); M (0x2070, 77) ];
    };
    {
      mnems = [ "lh" ];
      case = "lh sign extends";
      setup = (fun s -> Sim.store_h s 0x2010 (-5));
      body = [ rx "lh" 2 0x10 ];
      expect = [ R (2, -5) ];
    };
    {
      mnems = [ "la" ];
      case = "la computes base+index+disp";
      setup = (fun s -> Sim.set_reg s 5 3);
      body = [ rx "la" 1 ~x:5 4 ];
      expect = [ R (1, 0x2007) ];
    };
    {
      mnems = [ "sth" ];
      case = "sth truncates to halfword";
      setup = (fun s -> Sim.set_reg s 1 (-2));
      body = [ rx "sth" 1 0x20 ];
      expect = [ MH (0x2020, -2) ];
    };
    {
      mnems = [ "stc" ];
      case = "stc stores low byte";
      setup = (fun s -> Sim.set_reg s 1 0x1FF);
      body = [ rx "stc" 1 0x24 ];
      expect = [ MB (0x2024, 0xFF) ];
    };
    {
      mnems = [ "ic" ];
      case = "ic inserts into low byte";
      setup =
        (fun s ->
          Sim.set_reg s 3 0x700;
          Sim.store_u8 s 0x2014 200);
      body = [ rx "ic" 3 0x14 ];
      expect = [ R (3, 0x7C8) ];
    };
    (* integer arithmetic, storage operand *)
    {
      mnems = [ "a" ];
      case = "a adds, cc sign";
      setup =
        (fun s ->
          Sim.set_reg s 1 7;
          Sim.store_w s 0x2030 35);
      body = [ rx "a" 1 0x30 ];
      expect = [ R (1, 42); CC 2 ];
    };
    {
      mnems = [ "ah" ];
      case = "ah adds halfword";
      setup =
        (fun s ->
          Sim.set_reg s 1 10;
          Sim.store_h s 0x2034 (-5));
      body = [ rx "ah" 1 0x34 ];
      expect = [ R (1, 5) ];
    };
    {
      mnems = [ "s" ];
      case = "s subtracts, cc sign";
      setup =
        (fun s ->
          Sim.set_reg s 1 10;
          Sim.store_w s 0x2030 35);
      body = [ rx "s" 1 0x30 ];
      expect = [ R (1, -25); CC 1 ];
    };
    {
      mnems = [ "sh" ];
      case = "sh subtracts halfword";
      setup =
        (fun s ->
          Sim.set_reg s 1 10;
          Sim.store_h s 0x2034 (-5));
      body = [ rx "sh" 1 0x34 ];
      expect = [ R (1, 15) ];
    };
    {
      mnems = [ "m" ];
      case = "m: product lands in the pair";
      setup =
        (fun s ->
          Sim.set_reg s 5 6;
          Sim.store_w s 0x2030 7);
      body = [ rx "m" 4 0x30 ];
      expect = [ R (5, 42); R (4, 0) ];
    };
    {
      mnems = [ "mh" ];
      case = "mh multiplies by halfword";
      setup =
        (fun s ->
          Sim.set_reg s 1 7;
          Sim.store_h s 0x2034 (-3));
      body = [ rx "mh" 1 0x34 ];
      expect = [ R (1, -21) ];
    };
    {
      mnems = [ "d" ];
      case = "d: quotient odd, remainder even";
      setup =
        (fun s ->
          Sim.set_reg s 4 0;
          Sim.set_reg s 5 100;
          Sim.store_w s 0x2030 7);
      body = [ rx "d" 4 0x30 ];
      expect = [ R (5, 14); R (4, 2) ];
    };
    (* integer compares: all three condition codes *)
    {
      mnems = [ "c" ];
      case = "c: less";
      setup =
        (fun s ->
          Sim.set_reg s 1 5;
          Sim.store_w s 0x2030 7);
      body = [ rx "c" 1 0x30 ];
      expect = [ CC 1 ];
    };
    {
      mnems = [ "c" ];
      case = "c: equal";
      setup =
        (fun s ->
          Sim.set_reg s 1 7;
          Sim.store_w s 0x2030 7);
      body = [ rx "c" 1 0x30 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "c" ];
      case = "c: greater";
      setup =
        (fun s ->
          Sim.set_reg s 1 9;
          Sim.store_w s 0x2030 7);
      body = [ rx "c" 1 0x30 ];
      expect = [ CC 2 ];
    };
    {
      mnems = [ "ch" ];
      case = "ch compares halfword";
      setup =
        (fun s ->
          Sim.set_reg s 1 5;
          Sim.store_h s 0x2034 5);
      body = [ rx "ch" 1 0x34 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "cl" ];
      case = "cl compares unsigned";
      setup =
        (fun s ->
          Sim.set_reg s 1 (-1);
          Sim.store_w s 0x2030 1);
      body = [ rx "cl" 1 0x30 ];
      expect = [ CC 2 ];
    };
    (* integer logic, storage operand *)
    {
      mnems = [ "n" ];
      case = "n ands";
      setup =
        (fun s ->
          Sim.set_reg s 1 0xFF0;
          Sim.store_w s 0x2030 0x0FF);
      body = [ rx "n" 1 0x30 ];
      expect = [ R (1, 0x0F0); CC 1 ];
    };
    {
      mnems = [ "o" ];
      case = "o ors";
      setup =
        (fun s ->
          Sim.set_reg s 1 0xF00;
          Sim.store_w s 0x2030 0x00F);
      body = [ rx "o" 1 0x30 ];
      expect = [ R (1, 0xF0F); CC 1 ];
    };
    {
      mnems = [ "x" ];
      case = "x xors to zero";
      setup =
        (fun s ->
          Sim.set_reg s 1 0xFFF;
          Sim.store_w s 0x2030 0xFFF);
      body = [ rx "x" 1 0x30 ];
      expect = [ R (1, 0); CC 0 ];
    };
    (* register-register moves and sign ops *)
    {
      mnems = [ "lr" ];
      case = "lr copies";
      setup = (fun s -> Sim.set_reg s 2 9);
      body = [ rr "lr" 1 2 ];
      expect = [ R (1, 9) ];
    };
    {
      mnems = [ "ltr" ];
      case = "ltr loads and tests";
      setup = (fun s -> Sim.set_reg s 2 (-3));
      body = [ rr "ltr" 1 2 ];
      expect = [ R (1, -3); CC 1 ];
    };
    {
      mnems = [ "lcr" ];
      case = "lcr complements";
      setup = (fun s -> Sim.set_reg s 2 5);
      body = [ rr "lcr" 1 2 ];
      expect = [ R (1, -5); CC 1 ];
    };
    {
      mnems = [ "lpr" ];
      case = "lpr makes positive";
      setup = (fun s -> Sim.set_reg s 2 (-8));
      body = [ rr "lpr" 1 2 ];
      expect = [ R (1, 8); CC 2 ];
    };
    {
      mnems = [ "lnr" ];
      case = "lnr makes negative";
      setup = (fun s -> Sim.set_reg s 2 8);
      body = [ rr "lnr" 1 2 ];
      expect = [ R (1, -8); CC 1 ];
    };
    (* register-register arithmetic *)
    {
      mnems = [ "ar" ];
      case = "ar adds";
      setup =
        (fun s ->
          Sim.set_reg s 1 7;
          Sim.set_reg s 2 35);
      body = [ rr "ar" 1 2 ];
      expect = [ R (1, 42); CC 2 ];
    };
    {
      mnems = [ "ar" ];
      case = "ar overflow sets cc 3";
      setup =
        (fun s ->
          Sim.set_reg s 1 0x7FFFFFFF;
          Sim.set_reg s 2 1);
      body = [ rr "ar" 1 2 ];
      expect = [ R (1, -0x80000000); CC 3 ];
    };
    {
      mnems = [ "sr" ];
      case = "sr to zero sets cc 0";
      setup =
        (fun s ->
          Sim.set_reg s 1 7;
          Sim.set_reg s 2 7);
      body = [ rr "sr" 1 2 ];
      expect = [ R (1, 0); CC 0 ];
    };
    {
      mnems = [ "mr" ];
      case = "mr: product in the pair";
      setup =
        (fun s ->
          Sim.set_reg s 5 17;
          Sim.set_reg s 3 17);
      body = [ rr "mr" 4 3 ];
      expect = [ R (5, 289); R (4, 0) ];
    };
    {
      mnems = [ "dr" ];
      case = "dr: signed quotient and remainder";
      setup =
        (fun s ->
          Sim.set_reg s 4 (-1);
          Sim.set_reg s 5 (-100);
          Sim.set_reg s 3 7);
      body = [ rr "dr" 4 3 ];
      expect = [ R (5, -14); R (4, -2) ];
    };
    {
      mnems = [ "cr" ];
      case = "cr: less";
      setup =
        (fun s ->
          Sim.set_reg s 1 3;
          Sim.set_reg s 2 5);
      body = [ rr "cr" 1 2 ];
      expect = [ CC 1 ];
    };
    {
      mnems = [ "cr" ];
      case = "cr: equal";
      setup =
        (fun s ->
          Sim.set_reg s 1 5;
          Sim.set_reg s 2 5);
      body = [ rr "cr" 1 2 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "cr" ];
      case = "cr: greater";
      setup =
        (fun s ->
          Sim.set_reg s 1 9;
          Sim.set_reg s 2 5);
      body = [ rr "cr" 1 2 ];
      expect = [ CC 2 ];
    };
    {
      mnems = [ "nr" ];
      case = "nr ands";
      setup =
        (fun s ->
          Sim.set_reg s 1 12;
          Sim.set_reg s 2 10);
      body = [ rr "nr" 1 2 ];
      expect = [ R (1, 8); CC 1 ];
    };
    {
      mnems = [ "or" ];
      case = "or ors";
      setup =
        (fun s ->
          Sim.set_reg s 1 12;
          Sim.set_reg s 2 3);
      body = [ rr "or" 1 2 ];
      expect = [ R (1, 15); CC 1 ];
    };
    {
      mnems = [ "xr" ];
      case = "xr clears on equal operands";
      setup =
        (fun s ->
          Sim.set_reg s 1 5;
          Sim.set_reg s 2 5);
      body = [ rr "xr" 1 2 ];
      expect = [ R (1, 0); CC 0 ];
    };
    (* branches: both taken and not-taken legs *)
    {
      mnems = [ "bcr" ];
      case = "bcr taken on equal";
      setup = (fun s -> Sim.set_reg s 2 0x100A);
      body =
        [
          rr "cr" 0 0 (* 0x1000: cc 0 *);
          rr "bcr" 8 2 (* 0x1002: eq mask, to r2 *);
          rx "la" 3 ~b:0 9 (* 0x1004: skipped *);
          halt (* 0x1008 *);
          rx "la" 3 ~b:0 1 (* 0x100A: branch target *);
        ];
      expect = [ R (3, 1) ];
    };
    {
      mnems = [ "bcr" ];
      case = "bcr not taken on mask miss";
      setup = (fun s -> Sim.set_reg s 2 0x100A);
      body = [ rr "cr" 0 0; rr "bcr" 2 2; rx "la" 3 ~b:0 9 ];
      expect = [ R (3, 9) ];
    };
    {
      mnems = [ "balr" ];
      case = "balr links without branching on r2=0";
      setup = (fun _ -> ());
      body = [ rr "balr" 6 0 ];
      expect = [ R (6, 0x1002) ];
    };
    {
      mnems = [ "bctr" ];
      case = "bctr decrements without branching on r2=0";
      setup = (fun s -> Sim.set_reg s 3 10);
      body = [ rr "bctr" 3 0 ];
      expect = [ R (3, 9) ];
    };
    {
      mnems = [ "bc" ];
      case = "bc unconditional";
      setup = (fun s -> Sim.set_reg s 12 0x1000);
      body =
        [
          rx "bc" 15 ~b:12 8 (* 0x1000 *);
          rx "la" 3 ~b:0 9 (* 0x1004: skipped *);
          rx "la" 3 ~b:0 1 (* 0x1008: target *);
        ];
      expect = [ R (3, 1) ];
    };
    {
      mnems = [ "bc" ];
      case = "bc mask 0 never taken";
      setup = (fun s -> Sim.set_reg s 12 0x1000);
      body = [ rx "bc" 0 ~b:12 8; rx "la" 3 ~b:0 9 ];
      expect = [ R (3, 9) ];
    };
    {
      mnems = [ "bal" ];
      case = "bal links and branches";
      setup = (fun s -> Sim.set_reg s 12 0x1000);
      body =
        [
          rx "bal" 6 ~b:12 8 (* 0x1000 *);
          rx "la" 3 ~b:0 9 (* 0x1004: skipped *);
          rx "la" 3 ~b:0 1 (* 0x1008: target *);
        ];
      expect = [ R (6, 0x1004); R (3, 1) ];
    };
    {
      mnems = [ "bct" ];
      case = "bct branches while nonzero";
      setup =
        (fun s ->
          Sim.set_reg s 3 2;
          Sim.set_reg s 12 0x1000);
      body =
        [
          rx "bct" 3 ~b:12 0x0A (* 0x1000 *);
          rx "la" 4 ~b:0 9 (* 0x1004 *);
          halt (* 0x1008 *);
          rx "la" 4 ~b:0 1 (* 0x100A: target *);
        ];
      expect = [ R (3, 1); R (4, 1) ];
    };
    {
      mnems = [ "bct" ];
      case = "bct falls through at zero";
      setup =
        (fun s ->
          Sim.set_reg s 3 1;
          Sim.set_reg s 12 0x1000);
      body = [ rx "bct" 3 ~b:12 0x0A; rx "la" 4 ~b:0 9; halt; rx "la" 4 ~b:0 1 ];
      expect = [ R (3, 0); R (4, 9) ];
    };
    (* multiple load/store and long moves *)
    {
      mnems = [ "stm"; "lm" ];
      case = "stm/lm round-trip";
      setup =
        (fun s ->
          Sim.set_reg s 1 11;
          Sim.set_reg s 2 22;
          Sim.set_reg s 3 33);
      body =
        [
          Rs { op = "stm"; r1 = 1; r3 = 3; d2 = 8; b2 = 13 };
          rx "la" 1 ~b:0 0;
          rx "la" 2 ~b:0 0;
          Rs { op = "lm"; r1 = 1; r3 = 3; d2 = 8; b2 = 13 };
        ];
      expect = [ R (1, 11); R (2, 22); R (3, 33) ];
    };
    {
      mnems = [ "mvcl" ];
      case = "mvcl copies and pads";
      setup =
        (fun s ->
          Sim.set_reg s 2 0x3000;
          Sim.set_reg s 3 8;
          Sim.set_reg s 4 0x2080;
          Sim.set_reg s 5 8;
          Sim.store_w s 0x2080 0x01020304;
          Sim.store_w s 0x2084 0x05060708);
      body = [ rr "mvcl" 2 4 ];
      expect = [ M (0x3000, 0x01020304); M (0x3004, 0x05060708); CC 0 ];
    };
    (* shifts *)
    {
      mnems = [ "sla" ];
      case = "sla shifts arithmetically";
      setup = (fun s -> Sim.set_reg s 1 3);
      body = [ rs "sla" 1 0 2 ];
      expect = [ R (1, 12); CC 2 ];
    };
    {
      mnems = [ "sla" ];
      case = "sla overflow sets cc 3";
      setup = (fun s -> Sim.set_reg s 1 0x40000000);
      body = [ rs "sla" 1 0 1 ];
      expect = [ CC 3 ];
    };
    {
      mnems = [ "sra" ];
      case = "sra keeps the sign";
      setup = (fun s -> Sim.set_reg s 2 (-64));
      body = [ rs "sra" 2 0 3 ];
      expect = [ R (2, -8); CC 1 ];
    };
    {
      mnems = [ "sll" ];
      case = "sll shifts logically";
      setup = (fun s -> Sim.set_reg s 1 3);
      body = [ rs "sll" 1 0 4 ];
      expect = [ R (1, 48) ];
    };
    {
      mnems = [ "srl" ];
      case = "srl shifts in zeros";
      setup = (fun s -> Sim.set_reg s 1 (-2));
      body = [ rs "srl" 1 0 1 ];
      expect = [ R (1, 0x7FFFFFFF) ];
    };
    {
      mnems = [ "slda" ];
      case = "slda crosses the pair";
      setup =
        (fun s ->
          Sim.set_reg s 2 0;
          Sim.set_reg s 3 1);
      body = [ rs "slda" 2 0 32 ];
      expect = [ R (2, 1); R (3, 0); CC 2 ];
    };
    {
      mnems = [ "srda" ];
      case = "srda sign-extends across the pair";
      setup = (fun s -> Sim.set_reg s 2 (-7));
      body = [ rs "srda" 2 0 32 ];
      expect = [ R (2, -1); R (3, -7); CC 1 ];
    };
    {
      mnems = [ "sldl" ];
      case = "sldl shifts the pair logically";
      setup =
        (fun s ->
          Sim.set_reg s 2 0;
          Sim.set_reg s 3 0x40000000);
      body = [ rs "sldl" 2 0 4 ];
      expect = [ R (2, 4); R (3, 0) ];
    };
    {
      mnems = [ "srdl" ];
      case = "srdl shifts in zeros across the pair";
      setup =
        (fun s ->
          Sim.set_reg s 2 (-1);
          Sim.set_reg s 3 0);
      body = [ rs "srdl" 2 0 4 ];
      expect = [ R (2, 0x0FFFFFFF); R (3, -0x10000000) ];
    };
    (* storage-immediate *)
    {
      mnems = [ "mvi" ];
      case = "mvi stores the immediate";
      setup = (fun _ -> ());
      body = [ si "mvi" 0x50 255 ];
      expect = [ MB (0x2050, 255) ];
    };
    {
      mnems = [ "cli" ];
      case = "cli: equal";
      setup = (fun s -> Sim.store_u8 s 0x2051 200);
      body = [ si "cli" 0x51 200 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "cli" ];
      case = "cli: storage lower";
      setup = (fun s -> Sim.store_u8 s 0x2051 5);
      body = [ si "cli" 0x51 9 ];
      expect = [ CC 1 ];
    };
    {
      mnems = [ "ni" ];
      case = "ni ands in place";
      setup = (fun s -> Sim.store_u8 s 0x2052 12);
      body = [ si "ni" 0x52 10 ];
      expect = [ MB (0x2052, 8); CC 1 ];
    };
    {
      mnems = [ "oi" ];
      case = "oi ors in place";
      setup = (fun s -> Sim.store_u8 s 0x2053 1);
      body = [ si "oi" 0x53 2 ];
      expect = [ MB (0x2053, 3); CC 1 ];
    };
    {
      mnems = [ "xi" ];
      case = "xi clears on equal mask";
      setup = (fun s -> Sim.store_u8 s 0x2054 5);
      body = [ si "xi" 0x54 5 ];
      expect = [ MB (0x2054, 0); CC 0 ];
    };
    {
      mnems = [ "tm" ];
      case = "tm: all bits clear";
      setup = (fun s -> Sim.store_u8 s 0x2055 0);
      body = [ si "tm" 0x55 1 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "tm" ];
      case = "tm: all selected bits set";
      setup = (fun s -> Sim.store_u8 s 0x2055 1);
      body = [ si "tm" 0x55 1 ];
      expect = [ CC 3 ];
    };
    {
      mnems = [ "tm" ];
      case = "tm: mixed bits";
      setup = (fun s -> Sim.store_u8 s 0x2055 5);
      body = [ si "tm" 0x55 7 ];
      expect = [ CC 1 ];
    };
    (* storage-storage *)
    {
      mnems = [ "mvc" ];
      case = "mvc copies";
      setup = (fun s -> Sim.store_w s 0x2020 0xDEAD);
      body = [ ss "mvc" 4 0x30 0x20 ];
      expect = [ M (0x2030, 0xDEAD) ];
    };
    {
      mnems = [ "clc" ];
      case = "clc: equal";
      setup =
        (fun s ->
          Sim.store_w s 0x2040 0x01020304;
          Sim.store_w s 0x2044 0x01020304);
      body = [ ss "clc" 4 0x40 0x44 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "clc" ];
      case = "clc: first operand lower";
      setup =
        (fun s ->
          Sim.store_w s 0x2040 0x01020304;
          Sim.store_w s 0x2044 0x01030304);
      body = [ ss "clc" 4 0x40 0x44 ];
      expect = [ CC 1 ];
    };
    {
      mnems = [ "nc" ];
      case = "nc ands storage";
      setup =
        (fun s ->
          Sim.store_w s 0x2040 0x0F0F0F0F;
          Sim.store_w s 0x2044 0x00FF00FF);
      body = [ ss "nc" 4 0x40 0x44 ];
      expect = [ M (0x2040, 0x000F000F); CC 1 ];
    };
    {
      mnems = [ "oc" ];
      case = "oc ors storage";
      setup =
        (fun s ->
          Sim.store_w s 0x2040 0x0F0F0F0F;
          Sim.store_w s 0x2044 0x00FF00FF);
      body = [ ss "oc" 4 0x40 0x44 ];
      expect = [ M (0x2040, 0x0FFF0FFF); CC 1 ];
    };
    {
      mnems = [ "xc" ];
      case = "xc on itself clears";
      setup = (fun s -> Sim.store_w s 0x2048 0x1234);
      body = [ ss "xc" 4 0x48 0x48 ];
      expect = [ M (0x2048, 0); CC 0 ];
    };
    (* floating point, storage operand *)
    {
      mnems = [ "le"; "ste" ];
      case = "le/ste round-trip";
      setup = (fun s -> Sim.store_f32 s 0x2060 1.5);
      body = [ rx "le" 0 0x60; rx "ste" 0 0x74 ];
      expect = [ F (0, 1.5); MF32 (0x2074, 1.5) ];
    };
    {
      mnems = [ "ld"; "std" ];
      case = "ld/std round-trip";
      setup = (fun s -> Sim.store_f64 s 0x2068 2.25);
      body = [ rx "ld" 2 0x68; rx "std" 2 0x78 ];
      expect = [ F (2, 2.25); MF64 (0x2078, 2.25) ];
    };
    {
      mnems = [ "ae" ];
      case = "ae adds short";
      setup =
        (fun s ->
          Sim.store_f32 s 0x2060 1.5;
          Sim.store_f32 s 0x2064 2.5);
      body = [ rx "le" 0 0x60; rx "ae" 0 0x64 ];
      expect = [ F (0, 4.0); CC 2 ];
    };
    {
      mnems = [ "ad" ];
      case = "ad adds long";
      setup =
        (fun s ->
          Sim.store_f64 s 0x2068 1.5;
          Sim.store_f64 s 0x2070 2.5);
      body = [ rx "ld" 0 0x68; rx "ad" 0 0x70 ];
      expect = [ F (0, 4.0); CC 2 ];
    };
    {
      mnems = [ "se" ];
      case = "se subtracts short";
      setup =
        (fun s ->
          Sim.store_f32 s 0x2060 1.5;
          Sim.store_f32 s 0x2064 2.5);
      body = [ rx "le" 0 0x60; rx "se" 0 0x64 ];
      expect = [ F (0, -1.0); CC 1 ];
    };
    {
      mnems = [ "sd" ];
      case = "sd subtracts long";
      setup =
        (fun s ->
          Sim.store_f64 s 0x2068 1.5;
          Sim.store_f64 s 0x2070 2.5);
      body = [ rx "ld" 0 0x68; rx "sd" 0 0x70 ];
      expect = [ F (0, -1.0); CC 1 ];
    };
    {
      mnems = [ "me" ];
      case = "me multiplies short";
      setup =
        (fun s ->
          Sim.store_f32 s 0x2060 1.5;
          Sim.store_f32 s 0x2064 2.0);
      body = [ rx "le" 0 0x60; rx "me" 0 0x64 ];
      expect = [ F (0, 3.0) ];
    };
    {
      mnems = [ "md" ];
      case = "md multiplies long";
      setup =
        (fun s ->
          Sim.store_f64 s 0x2068 1.5;
          Sim.store_f64 s 0x2070 2.0);
      body = [ rx "ld" 0 0x68; rx "md" 0 0x70 ];
      expect = [ F (0, 3.0) ];
    };
    {
      mnems = [ "de" ];
      case = "de divides short";
      setup =
        (fun s ->
          Sim.store_f32 s 0x2060 3.0;
          Sim.store_f32 s 0x2064 1.5);
      body = [ rx "le" 0 0x60; rx "de" 0 0x64 ];
      expect = [ F (0, 2.0) ];
    };
    {
      mnems = [ "dd" ];
      case = "dd divides long";
      setup =
        (fun s ->
          Sim.store_f64 s 0x2068 3.0;
          Sim.store_f64 s 0x2070 1.5);
      body = [ rx "ld" 0 0x68; rx "dd" 0 0x70 ];
      expect = [ F (0, 2.0) ];
    };
    {
      mnems = [ "ce" ];
      case = "ce: equal";
      setup = (fun s -> Sim.store_f32 s 0x2060 1.5);
      body = [ rx "le" 0 0x60; rx "ce" 0 0x60 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "ce" ];
      case = "ce: register lower";
      setup =
        (fun s ->
          Sim.store_f32 s 0x2060 1.0;
          Sim.store_f32 s 0x2064 2.0);
      body = [ rx "le" 0 0x60; rx "ce" 0 0x64 ];
      expect = [ CC 1 ];
    };
    {
      mnems = [ "cd" ];
      case = "cd: register greater";
      setup =
        (fun s ->
          Sim.store_f64 s 0x2068 2.0;
          Sim.store_f64 s 0x2070 1.0);
      body = [ rx "ld" 0 0x68; rx "cd" 0 0x70 ];
      expect = [ CC 2 ];
    };
    (* floating point, register-register *)
    {
      mnems = [ "ler"; "ldr" ];
      case = "ler/ldr copy";
      setup =
        (fun s ->
          Sim.set_freg s 2 1.5;
          Sim.set_freg s 6 2.25);
      body = [ rr "ler" 0 2; rr "ldr" 4 6 ];
      expect = [ F (0, 1.5); F (4, 2.25) ];
    };
    {
      mnems = [ "lcer"; "lcdr" ];
      case = "lcer/lcdr negate";
      setup =
        (fun s ->
          Sim.set_freg s 2 1.5;
          Sim.set_freg s 6 (-2.0));
      body = [ rr "lcer" 0 2; rr "lcdr" 4 6 ];
      expect = [ F (0, -1.5); F (4, 2.0); CC 2 ];
    };
    {
      mnems = [ "lper"; "lpdr" ];
      case = "lper/lpdr take magnitude";
      setup =
        (fun s ->
          Sim.set_freg s 2 (-2.0);
          Sim.set_freg s 6 (-3.0));
      body = [ rr "lper" 0 2; rr "lpdr" 4 6 ];
      expect = [ F (0, 2.0); F (4, 3.0); CC 2 ];
    };
    {
      mnems = [ "lner"; "lndr" ];
      case = "lner/lndr force negative";
      setup =
        (fun s ->
          Sim.set_freg s 2 2.0;
          Sim.set_freg s 6 3.0);
      body = [ rr "lner" 0 2; rr "lndr" 4 6 ];
      expect = [ F (0, -2.0); F (4, -3.0); CC 1 ];
    };
    {
      mnems = [ "lter" ];
      case = "lter tests zero";
      setup = (fun s -> Sim.set_freg s 2 0.0);
      body = [ rr "lter" 0 2 ];
      expect = [ F (0, 0.0); CC 0 ];
    };
    {
      mnems = [ "ltdr" ];
      case = "ltdr tests negative";
      setup = (fun s -> Sim.set_freg s 2 (-3.0));
      body = [ rr "ltdr" 0 2 ];
      expect = [ F (0, -3.0); CC 1 ];
    };
    {
      mnems = [ "aer"; "adr" ];
      case = "aer/adr add";
      setup =
        (fun s ->
          Sim.set_freg s 0 1.5;
          Sim.set_freg s 2 2.5;
          Sim.set_freg s 4 0.25;
          Sim.set_freg s 6 0.5);
      body = [ rr "aer" 0 2; rr "adr" 4 6 ];
      expect = [ F (0, 4.0); F (4, 0.75); CC 2 ];
    };
    {
      mnems = [ "ser"; "sdr" ];
      case = "ser/sdr subtract";
      setup =
        (fun s ->
          Sim.set_freg s 0 1.5;
          Sim.set_freg s 2 2.5;
          Sim.set_freg s 4 0.25;
          Sim.set_freg s 6 0.5);
      body = [ rr "ser" 0 2; rr "sdr" 4 6 ];
      expect = [ F (0, -1.0); F (4, -0.25); CC 1 ];
    };
    {
      mnems = [ "mer"; "mdr" ];
      case = "mer/mdr multiply";
      setup =
        (fun s ->
          Sim.set_freg s 0 1.5;
          Sim.set_freg s 2 2.0;
          Sim.set_freg s 4 0.25;
          Sim.set_freg s 6 4.0);
      body = [ rr "mer" 0 2; rr "mdr" 4 6 ];
      expect = [ F (0, 3.0); F (4, 1.0) ];
    };
    {
      mnems = [ "der"; "ddr" ];
      case = "der/ddr divide";
      setup =
        (fun s ->
          Sim.set_freg s 0 3.0;
          Sim.set_freg s 2 1.5;
          Sim.set_freg s 4 1.0;
          Sim.set_freg s 6 4.0);
      body = [ rr "der" 0 2; rr "ddr" 4 6 ];
      expect = [ F (0, 2.0); F (4, 0.25) ];
    };
    {
      mnems = [ "her"; "hdr" ];
      case = "her/hdr halve";
      setup =
        (fun s ->
          Sim.set_freg s 2 5.0;
          Sim.set_freg s 6 0.5);
      body = [ rr "her" 0 2; rr "hdr" 4 6 ];
      expect = [ F (0, 2.5); F (4, 0.25) ];
    };
    {
      mnems = [ "cer" ];
      case = "cer: equal";
      setup =
        (fun s ->
          Sim.set_freg s 0 1.5;
          Sim.set_freg s 2 1.5);
      body = [ rr "cer" 0 2 ];
      expect = [ CC 0 ];
    };
    {
      mnems = [ "cdr" ];
      case = "cdr: lower";
      setup =
        (fun s ->
          Sim.set_freg s 0 1.0;
          Sim.set_freg s 2 2.0);
      body = [ rr "cdr" 0 2 ];
      expect = [ CC 1 ];
    };
    {
      mnems = [ "axr"; "sxr" ];
      case = "axr/sxr extended add and subtract";
      setup =
        (fun s ->
          Sim.set_freg s 0 1.25;
          Sim.set_freg s 4 0.75);
      body = [ rr "axr" 0 4; rr "sxr" 0 4 ];
      expect = [ F (0, 1.25); CC 2 ];
    };
    {
      mnems = [ "mxr" ];
      case = "mxr extended multiply";
      setup =
        (fun s ->
          Sim.set_freg s 0 1.5;
          Sim.set_freg s 4 2.0);
      body = [ rr "mxr" 0 4 ];
      expect = [ F (0, 3.0) ];
    };
  ]

let run_opcase (c : opcase) () =
  let sim =
    run_insns
      ~setup:(fun s ->
        Sim.set_reg s 13 0x2000;
        c.setup s)
      (c.body @ [ halt ])
  in
  List.iter
    (function
      | R (r, v) -> check_int (Fmt.str "%s: r%d" c.case r) v (Sim.reg sim r)
      | F (r, v) ->
          Alcotest.(check (float 1e-9))
            (Fmt.str "%s: f%d" c.case r)
            v (Sim.freg sim r)
      | M (a, v) ->
          check_int (Fmt.str "%s: word %06X" c.case a) v (Sim.load_w sim a)
      | MH (a, v) ->
          check_int (Fmt.str "%s: half %06X" c.case a) v (Sim.load_h sim a)
      | MB (a, v) ->
          check_int (Fmt.str "%s: byte %06X" c.case a) v (Sim.load_u8 sim a)
      | MF32 (a, v) ->
          Alcotest.(check (float 1e-9))
            (Fmt.str "%s: f32 %06X" c.case a)
            v (Sim.load_f32 sim a)
      | MF64 (a, v) ->
          Alcotest.(check (float 1e-9))
            (Fmt.str "%s: f64 %06X" c.case a)
            v (Sim.load_f64 sim a)
      | CC v -> check_int (Fmt.str "%s: cc" c.case) v sim.Sim.cc)
    c.expect

(* Every mnemonic the spec's $Opcodes section declares — i.e. everything
   the code emitter is allowed to produce — must be known to the encoder
   and covered by at least one semantics case above. *)
let spec_opcodes () =
  let ic = open_in (Util.spec_path "amdahl470.cgg") in
  let rec go in_sec acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let t = String.trim line in
        if String.length t > 0 && t.[0] = '$' then
          if t = "$Opcodes" then go true acc
          else if in_sec then begin
            close_in ic;
            List.rev acc
          end
          else go false acc
        else if in_sec then
          let words =
            String.split_on_char ',' t
            |> List.concat_map (String.split_on_char ' ')
            |> List.filter_map (fun w ->
                   let w = String.trim w in
                   if w = "" then None else Some w)
          in
          go true (List.rev_append words acc)
        else go false acc
  in
  go false []

let test_opcodes_complete () =
  let spec = spec_opcodes () in
  Alcotest.(check bool)
    (Fmt.str "spec declares a full opcode set (%d)" (List.length spec))
    true
    (List.length spec >= 90);
  let covered = List.concat_map (fun c -> c.mnems) opcases in
  List.iter
    (fun m ->
      if not (Insn.is_mnemonic m) then
        Alcotest.failf "spec opcode %s is unknown to the encoder" m;
      if not (List.mem m covered) then
        Alcotest.failf "spec opcode %s has no semantics case" m)
    spec

(* -- page-boundary branches ------------------------------------------------- *)

(* A forward branch over [n_pad] 4-byte instructions: with the all-short
   layout the target sits at 4*n_pad + 10, so 1021 pads keep it inside
   the 4095-displacement page and 1022 push it out, forcing the long
   form (load the target offset from the literal pool, then branch
   indexed). *)
let branch_pad_buffer n_pad : Cogg.Code_buffer.t =
  let open Cogg.Code_buffer in
  let buf = create () in
  add buf (Branch_site { mask = 15; lbl = User 1; idx = 1; x = 0 });
  for _ = 1 to n_pad do
    add buf (Fixed (Rx { op = "la"; r1 = 0; d2 = 0; x2 = 0; b2 = 0 }))
  done;
  add buf (Fixed (Rx { op = "la"; r1 = 3; d2 = 9; x2 = 0; b2 = 0 }));
  add buf (Fixed halt);
  add buf (Label_def (User 1));
  add buf (Fixed (Rx { op = "la"; r1 = 3; d2 = 1; x2 = 0; b2 = 0 }));
  add buf (Fixed halt);
  buf

let resolve_and_run (buf : Cogg.Code_buffer.t) : Cogg.Loader_gen.resolved * int =
  let r = Cogg.Loader_gen.resolve ~code_base:12 buf in
  let sim = Sim.create ~mem_size:(1 lsl 18) () in
  Bytes.blit r.Cogg.Loader_gen.code 0 sim.Sim.mem 0x1000
    (Bytes.length r.Cogg.Loader_gen.code);
  Sim.set_reg sim 12 0x1000;
  Sim.set_reg sim 14 0;
  ignore (Sim.run sim ~entry:(0x1000 + r.Cogg.Loader_gen.entry));
  (r, Sim.reg sim 3)

let test_branch_under_page () =
  let r, r3 = resolve_and_run (branch_pad_buffer 1021) in
  check_int "one site" 1 r.Cogg.Loader_gen.n_sites;
  check_int "stays short" 0 r.Cogg.Loader_gen.n_long;
  check_int "no literal pool" 0 r.Cogg.Loader_gen.pool_words;
  check_int "short branch lands" 1 r3

let test_branch_over_page () =
  let r, r3 = resolve_and_run (branch_pad_buffer 1022) in
  check_int "one site" 1 r.Cogg.Loader_gen.n_sites;
  check_int "widened to long form" 1 r.Cogg.Loader_gen.n_long;
  check_int "one literal pool word" 1 r.Cogg.Loader_gen.pool_words;
  check_int "entry skips the pool" 4 r.Cogg.Loader_gen.entry;
  check_int "long branch lands" 1 r3

(* -- the RISC-32 substrate ---------------------------------------------- *)

(* one of each format; every instruction must survive encode/decode *)
let r32_samples : Insn.t list =
  [
    R3 { op = "add"; rd = 1; rs1 = 2; rs2 = 3 };
    R3 { op = "fmul"; rd = 4; rs1 = 5; rs2 = 6 };
    R2 { op = "mov"; rd = 7; rs = 8 };
    R2 { op = "cmp"; rd = 1; rs = 2 };
    Ri { op = "addi"; rd = 3; rs = 4; imm = 1234 };
    Ri { op = "srai"; rd = 5; rs = 5; imm = 31 };
    Li { op = "li"; rd = 6; imm = 4095 };
    Li { op = "cmpi"; rd = 2; imm = 0 };
    Mem { op = "lw"; rd = 9; dsp = 104; rb = 13 };
    Mem { op = "jl"; rd = 14; dsp = 292; rb = 10 };
    Bcc { mask = 8; rel = -16 };
  ]

let test_r32_roundtrip () =
  List.iter
    (fun i ->
      let b = Encode.encode i in
      check_int "every RISC-32 instruction is 4 bytes" 4 (Bytes.length b);
      let back, sz = Encode.decode_r32 b 0 in
      check_int "decoded size" 4 sz;
      Alcotest.(check string)
        "roundtrip" (Insn.to_string i) (Insn.to_string back))
    r32_samples

let test_r32_stream () =
  (* a whole stream decodes back instruction by instruction *)
  let buf = Encode.encode_all r32_samples in
  let pos = ref 0 in
  List.iter
    (fun i ->
      let back, sz = Encode.decode_r32 buf !pos in
      pos := !pos + sz;
      Alcotest.(check string)
        "stream round-trip" (Insn.to_string i) (Insn.to_string back))
    r32_samples;
  check_int "stream length" (4 * List.length r32_samples) !pos

let test_r32_bounds () =
  (* a displacement outside the signed 16-bit immediate must be refused
     by the encoder, never silently truncated *)
  match Encode.encode (Mem { op = "lw"; rd = 1; dsp = 40000; rb = 13 }) with
  | exception Encode.Encode_error _ -> ()
  | _ -> Alcotest.fail "out-of-range displacement encoded"

(* hand-load instructions at 0x100 and step them [n] at a time *)
let r32_sim (insns : Insn.t list) : Sim.t =
  let code = Encode.encode_all insns in
  let sim = Sim.create ~mem_size:(1 lsl 16) ~halt_addr:0 () in
  Bytes.blit code 0 sim.Sim.mem 0x100 (Bytes.length code);
  sim.Sim.pc <- 0x100;
  sim

let r32_steps sim n =
  for _ = 1 to n do
    Risc32.step sim
  done

let test_r32_r0_zero () =
  let sim =
    r32_sim
      [
        Li { op = "li"; rd = 0; imm = 55 };
        R3 { op = "add"; rd = 1; rs1 = 0; rs2 = 0 };
      ]
  in
  Sim.set_reg sim 1 99;
  r32_steps sim 2;
  check_int "write to r0 discarded, reads yield 0" 0 (Sim.reg sim 1)

let test_r32_cc_only_from_compares () =
  (* the boolean-store templates interleave li/skip with a live cc: li,
     mov and the ALU ops must leave the condition code alone *)
  let sim =
    r32_sim
      [
        Li { op = "cmpi"; rd = 1; imm = 10 };
        Li { op = "li"; rd = 2; imm = 7 };
        R3 { op = "add"; rd = 3; rs1 = 2; rs2 = 2 };
        R2 { op = "mov"; rd = 4; rs = 2 };
      ]
  in
  Sim.set_reg sim 1 3;
  r32_steps sim 1;
  let cc_after_compare = sim.Sim.cc in
  r32_steps sim 3;
  check_int "li/add/mov preserve cc" cc_after_compare sim.Sim.cc;
  check_int "the compare set cc (3 < 10)" 1 cc_after_compare

let test_r32_load_widths () =
  (* lb zero-extends, lh sign-extends: the byte 0x80 is 128, the
     halfword 0x8000 is -32768 *)
  let sim =
    r32_sim
      [
        Mem { op = "lb"; rd = 1; dsp = 0x200; rb = 0 };
        Mem { op = "lh"; rd = 2; dsp = 0x200; rb = 0 };
      ]
  in
  Sim.store_h sim 0x200 0x8000;
  r32_steps sim 2;
  check_int "lb zero-extends" 0x80 (Sim.reg sim 1);
  check_int "lh sign-extends" (-32768) (Sim.reg sim 2)

let test_r32_ftoi_truncates () =
  let sim = r32_sim [ R2 { op = "ftoi"; rd = 1; rs = 2 } ] in
  sim.Sim.fregs.(2) <- -2.75;
  r32_steps sim 1;
  check_int "truncation toward zero" (-2) (Sim.reg sim 1)

(* -- suite ----------------------------------------------------------------- *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_add; prop_mr_dr; prop_listing_reference ]

let () =
  Alcotest.run "machine"
    [
      ( "encode",
        [
          Alcotest.test_case "roundtrip samples" `Quick test_roundtrip;
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "encode_all/decode_all" `Quick test_encode_all_decode_all;
          Alcotest.test_case "bad encodings rejected" `Quick test_bad_encodings;
        ] );
      ( "sim",
        [
          Alcotest.test_case "load/add/store" `Quick test_load_add_store;
          Alcotest.test_case "halfword and byte" `Quick test_halfword_and_byte;
          Alcotest.test_case "multiply/divide pairs" `Quick test_mult_div_pair;
          Alcotest.test_case "srda sign extension" `Quick test_srda_sign_extension;
          Alcotest.test_case "compare and branch" `Quick test_compare_and_branch;
          Alcotest.test_case "bctr decrement idiom" `Quick test_bctr_decrement;
          Alcotest.test_case "tm condition codes" `Quick test_tm_condition;
          Alcotest.test_case "mvc" `Quick test_mvc;
          Alcotest.test_case "stm/lm wraparound" `Quick test_stm_lm_wraparound;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "add overflow cc" `Quick test_overflow_cc;
          Alcotest.test_case "mvcl" `Quick test_mvcl;
        ] );
      ( "objmod",
        [
          Alcotest.test_case "roundtrip" `Quick test_objmod_roundtrip;
          Alcotest.test_case "bad records" `Quick test_objmod_bad_records;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "entry/exit frames" `Quick test_runtime_entry_exit;
          Alcotest.test_case "range check aborts" `Quick test_runtime_range_check_abort;
          Alcotest.test_case "range check passes" `Quick test_runtime_check_passes;
          Alcotest.test_case "psa constants" `Quick test_psa_constants;
        ] );
      ( "opcodes",
        List.map
          (fun c -> Alcotest.test_case c.case `Quick (run_opcase c))
          opcases
        @ [
            Alcotest.test_case "spec $Opcodes fully covered" `Quick
              test_opcodes_complete;
          ] );
      ( "loader",
        [
          Alcotest.test_case "branch under the page stays short" `Quick
            test_branch_under_page;
          Alcotest.test_case "branch over the page goes long" `Quick
            test_branch_over_page;
        ] );
      ( "risc32 encode",
        [
          Alcotest.test_case "roundtrip" `Quick test_r32_roundtrip;
          Alcotest.test_case "stream" `Quick test_r32_stream;
          Alcotest.test_case "bounds" `Quick test_r32_bounds;
        ] );
      ( "risc32 sim",
        [
          Alcotest.test_case "r0 hardwired zero" `Quick test_r32_r0_zero;
          Alcotest.test_case "cc only from compares" `Quick
            test_r32_cc_only_from_compares;
          Alcotest.test_case "load widths" `Quick test_r32_load_widths;
          Alcotest.test_case "ftoi truncates" `Quick test_r32_ftoi_truncates;
        ] );
      ("properties", qsuite);
    ]
