(** Symbolic machine instructions for both target substrates.

    The IBM System/360-370 (Amdahl 470) subset uses the five architected
    formats [Rr]/[Rx]/[Rs]/[Si]/[Ss]; the RISC-32 load/store machine uses
    the fixed-width [R3]/[R2]/[Ri]/[Li]/[Mem]/[Bcc] formats.  Both share
    one symbolic type so the emitter, loader and listings are
    target-independent.  Binary encoding lives in {!Encode}; execution
    semantics in {!Sim} (Amdahl) and {!Risc32} (RISC-32). *)

(** The five machine instruction formats of the 360/370 subset we model.
    [RR] instructions are 2 bytes, [RX]/[RS]/[SI] are 4, [SS] is 6. *)
type format = RR | RX | RS | SI | SS

(** RISC-32 formats, all 4 bytes:
    - [F_r3]: three-register ALU op [op rd,rs1,rs2]
    - [F_r2]: two-register op [op rd,rs] (also compares and [jr])
    - [F_ri]: register + 16-bit signed immediate [op rd,rs,imm]
    - [F_li]: one register + 16-bit signed immediate [li rd,imm]
    - [F_mem]: load/store/link [op rd,dsp(rb)] with signed 16-bit dsp
    - [F_bcc]: conditional branch [bc mask,rel] with pc-relative rel16 *)
type r32_format = F_r3 | F_r2 | F_ri | F_li | F_mem | F_bcc

(** A symbolic machine instruction with all operand fields resolved to
    numbers.  [Rx] covers both indexed storage operands [d2(x2,b2)] and
    branch instructions (where [r1] is the condition mask).  The RISC-32
    constructors follow: register fields name GPRs or FP registers
    depending on the mnemonic; [Bcc.rel] is a byte offset relative to the
    branch instruction's own address. *)
type t =
  | Rr of { op : string; r1 : int; r2 : int }
  | Rx of { op : string; r1 : int; d2 : int; x2 : int; b2 : int }
  | Rs of { op : string; r1 : int; r3 : int; d2 : int; b2 : int }
  | Si of { op : string; d1 : int; b1 : int; i2 : int }
  | Ss of { op : string; l : int; d1 : int; b1 : int; d2 : int; b2 : int }
  | R3 of { op : string; rd : int; rs1 : int; rs2 : int }
  | R2 of { op : string; rd : int; rs : int }
  | Ri of { op : string; rd : int; rs : int; imm : int }
  | Li of { op : string; rd : int; imm : int }
  | Mem of { op : string; rd : int; dsp : int; rb : int }
  | Bcc of { mask : int; rel : int }

let mnemonic = function
  | Rr { op; _ } | Rx { op; _ } | Rs { op; _ } | Si { op; _ } | Ss { op; _ }
  | R3 { op; _ } | R2 { op; _ } | Ri { op; _ } | Li { op; _ } | Mem { op; _ }
    -> op
  | Bcc _ -> "bc"

(** Mnemonic -> (opcode byte, format).  Opcode values are the architected
    System/370 encodings. *)
let opcode_table : (string * (int * format)) list =
  [
    (* RR: load/arithmetic register-register *)
    ("lr", (0x18, RR));
    ("ltr", (0x12, RR));
    ("lcr", (0x13, RR));
    ("lpr", (0x10, RR));
    ("lnr", (0x11, RR));
    ("ar", (0x1A, RR));
    ("sr", (0x1B, RR));
    ("mr", (0x1C, RR));
    ("dr", (0x1D, RR));
    ("alr", (0x1E, RR));
    ("slr", (0x1F, RR));
    ("cr", (0x19, RR));
    ("clr", (0x15, RR));
    ("nr", (0x14, RR));
    ("or", (0x16, RR));
    ("xr", (0x17, RR));
    ("bcr", (0x07, RR));
    ("balr", (0x05, RR));
    ("bctr", (0x06, RR));
    ("spm", (0x04, RR));
    ("mvcl", (0x0E, RR));
    ("clcl", (0x0F, RR));
    (* RR floating point (short and long) *)
    ("ler", (0x38, RR));
    ("ldr", (0x28, RR));
    ("lcer", (0x33, RR));
    ("lcdr", (0x23, RR));
    ("lper", (0x30, RR));
    ("lpdr", (0x20, RR));
    ("lner", (0x31, RR));
    ("lndr", (0x21, RR));
    ("ltdr", (0x22, RR));
    ("lter", (0x32, RR));
    ("aer", (0x3A, RR));
    ("adr", (0x2A, RR));
    ("ser", (0x3B, RR));
    ("sdr", (0x2B, RR));
    ("mer", (0x3C, RR));
    ("mdr", (0x2C, RR));
    ("der", (0x3D, RR));
    ("ddr", (0x2D, RR));
    ("cer", (0x39, RR));
    ("cdr", (0x29, RR));
    ("her", (0x34, RR));
    ("hdr", (0x24, RR));
    ("axr", (0x36, RR));
    ("sxr", (0x37, RR));
    ("mxr", (0x26, RR));
    ("lrer", (0x35, RR));
    ("lrdr", (0x25, RR));
    (* RX: storage-and-register *)
    ("l", (0x58, RX));
    ("lh", (0x48, RX));
    ("la", (0x41, RX));
    ("st", (0x50, RX));
    ("sth", (0x40, RX));
    ("stc", (0x42, RX));
    ("ic", (0x43, RX));
    ("a", (0x5A, RX));
    ("ah", (0x4A, RX));
    ("s", (0x5B, RX));
    ("sh", (0x4B, RX));
    ("m", (0x5C, RX));
    ("mh", (0x4C, RX));
    ("d", (0x5D, RX));
    ("c", (0x59, RX));
    ("ch", (0x49, RX));
    ("cl", (0x55, RX));
    ("al", (0x5E, RX));
    ("sl", (0x5F, RX));
    ("n", (0x54, RX));
    ("o", (0x56, RX));
    ("x", (0x57, RX));
    ("bc", (0x47, RX));
    ("bal", (0x45, RX));
    ("bct", (0x46, RX));
    ("ex", (0x44, RX));
    ("cvb", (0x4F, RX));
    ("cvd", (0x4E, RX));
    (* RX floating point *)
    ("le", (0x78, RX));
    ("ld", (0x68, RX));
    ("ste", (0x70, RX));
    ("std", (0x60, RX));
    ("ae", (0x7A, RX));
    ("ad", (0x6A, RX));
    ("se", (0x7B, RX));
    ("sd", (0x6B, RX));
    ("me", (0x7C, RX));
    ("md", (0x6C, RX));
    ("de", (0x7D, RX));
    ("dd", (0x6D, RX));
    ("ce", (0x79, RX));
    ("cd", (0x69, RX));
    (* RS: register-storage, shifts, multiple load/store *)
    ("lm", (0x98, RS));
    ("stm", (0x90, RS));
    ("sla", (0x8B, RS));
    ("sra", (0x8A, RS));
    ("sll", (0x89, RS));
    ("srl", (0x88, RS));
    ("slda", (0x8F, RS));
    ("srda", (0x8E, RS));
    ("sldl", (0x8D, RS));
    ("srdl", (0x8C, RS));
    ("bxh", (0x86, RS));
    ("bxle", (0x87, RS));
    (* SI: storage-immediate *)
    ("mvi", (0x92, SI));
    ("cli", (0x95, SI));
    ("ni", (0x94, SI));
    ("oi", (0x96, SI));
    ("xi", (0x97, SI));
    ("tm", (0x91, SI));
    (* SS: storage-storage *)
    ("mvc", (0xD2, SS));
    ("clc", (0xD5, SS));
    ("nc", (0xD4, SS));
    ("oc", (0xD6, SS));
    ("xc", (0xD7, SS));
    ("tr", (0xDC, SS));
  ]

let opcode_of_mnemonic : (string, int * format) Hashtbl.t =
  let h = Hashtbl.create 128 in
  List.iter (fun (m, v) -> Hashtbl.replace h m v) opcode_table;
  h

let mnemonic_of_opcode : (int, string * format) Hashtbl.t =
  let h = Hashtbl.create 128 in
  List.iter (fun (m, (op, f)) -> Hashtbl.replace h op (m, f)) opcode_table;
  h

let is_mnemonic m = Hashtbl.mem opcode_of_mnemonic m

let format_of_mnemonic m =
  match Hashtbl.find_opt opcode_of_mnemonic m with
  | Some (_, f) -> Some f
  | None -> None

(** RISC-32 mnemonic -> (opcode byte, format).  The numbering is our own
    (the machine is fictional); values may overlap the 370 table because
    the two instruction sets are never decoded from the same memory. *)
let r32_opcode_table : (string * (int * r32_format)) list =
  [
    (* three-register ALU *)
    ("add", (0x01, F_r3));
    ("sub", (0x02, F_r3));
    ("mul", (0x03, F_r3));
    ("div", (0x04, F_r3));
    ("rem", (0x05, F_r3));
    ("and", (0x06, F_r3));
    ("or", (0x07, F_r3));
    ("xor", (0x08, F_r3));
    ("andn", (0x09, F_r3));
    ("sll", (0x0A, F_r3));
    ("srl", (0x0B, F_r3));
    ("sra", (0x0C, F_r3));
    (* three-register floating point (F registers) *)
    ("fadd", (0x0D, F_r3));
    ("fsub", (0x0E, F_r3));
    ("fmul", (0x0F, F_r3));
    ("fdiv", (0x10, F_r3));
    (* two-register *)
    ("mov", (0x11, F_r2));
    ("neg", (0x12, F_r2));
    ("itof", (0x13, F_r2)); (* rd: F register, rs: GPR *)
    ("ftoi", (0x14, F_r2)); (* rd: GPR, rs: F register *)
    ("fmov", (0x15, F_r2));
    ("fneg", (0x16, F_r2));
    ("fabs", (0x17, F_r2));
    ("fhlv", (0x18, F_r2)); (* halve: rd <- rs / 2.0 *)
    ("cmp", (0x19, F_r2)); (* signed compare, sets cc *)
    ("cmpu", (0x1A, F_r2)); (* unsigned compare, sets cc *)
    ("fcmp", (0x1B, F_r2)); (* float compare, sets cc *)
    ("jr", (0x1C, F_r2)); (* jump register: pc <- rs (rd unused) *)
    (* register-immediate *)
    ("addi", (0x20, F_ri));
    ("subi", (0x21, F_ri));
    ("andi", (0x22, F_ri));
    ("ori", (0x23, F_ri));
    ("xori", (0x24, F_ri));
    ("slli", (0x25, F_ri));
    ("srli", (0x26, F_ri));
    ("srai", (0x27, F_ri));
    (* load-immediate / compare-immediate *)
    ("li", (0x28, F_li));
    ("cmpi", (0x29, F_li));
    (* loads and stores, dsp(rb) addressing only *)
    ("lw", (0x30, F_mem));
    ("lh", (0x31, F_mem)); (* sign-extending halfword load *)
    ("lb", (0x32, F_mem)); (* zero-extending byte load *)
    ("sw", (0x33, F_mem));
    ("sh", (0x34, F_mem));
    ("sb", (0x35, F_mem));
    ("fld", (0x36, F_mem)); (* load double *)
    ("fsd", (0x37, F_mem)); (* store double *)
    ("fls", (0x38, F_mem)); (* load single (widen to double) *)
    ("fss", (0x39, F_mem)); (* store single (round to f32 bits) *)
    ("jl", (0x3A, F_mem)); (* jump-and-link: rd <- next, pc <- rb+dsp *)
    (* conditional branch, pc-relative *)
    ("bc", (0x40, F_bcc));
  ]

let r32_opcode_of_mnemonic : (string, int * r32_format) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun (m, v) -> Hashtbl.replace h m v) r32_opcode_table;
  h

let r32_mnemonic_of_opcode : (int, string * r32_format) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun (m, (op, f)) -> Hashtbl.replace h op (m, f)) r32_opcode_table;
  h

let r32_is_mnemonic m = Hashtbl.mem r32_opcode_of_mnemonic m

let r32_format_of_mnemonic m =
  match Hashtbl.find_opt r32_opcode_of_mnemonic m with
  | Some (_, f) -> Some f
  | None -> None

let size_of_format = function RR -> 2 | RX | RS | SI -> 4 | SS -> 6

(** Encoded size in bytes of a symbolic instruction. *)
let size = function
  | Rr _ -> 2
  | Rx _ | Rs _ | Si _ -> 4
  | Ss _ -> 6
  | R3 _ | R2 _ | Ri _ | Li _ | Mem _ | Bcc _ -> 4

(** Assembly-listing text, in the style of the paper's Appendix 1
    ([l r1,132(r12)], [sla r1,2], [mvc 144(4,13),168(13)], ...).

    Listings are produced once per compile and sit on the hot path (they
    feed the determinism fingerprint), so they are written into an
    [out] of exactly the right size: [width] is the length [render]
    writes, integers are written digit by digit, and nothing is
    allocated per instruction.  [to_string] and [pp] wrap it for
    embedding in other text. *)

type out = { buf : Bytes.t; mutable pos : int }

let out n = { buf = Bytes.create n; pos = 0 }

(** The text of a filled [out], without a copy.  A width that disagrees
    with what was written is a bug in a [width] function: writing past
    the end raises, and so does stopping short. *)
let contents o =
  if o.pos <> Bytes.length o.buf then invalid_arg "Insn.contents: out not filled";
  Bytes.unsafe_to_string o.buf

let add_char o c =
  Bytes.set o.buf o.pos c;
  o.pos <- o.pos + 1

let add_string o s =
  Bytes.blit_string s 0 o.buf o.pos (String.length s);
  o.pos <- o.pos + String.length s

(* Digits are taken from the value made non-positive, so [min_int]
   needs no case of its own. *)
let rec count_digits q n = if q <= -10 then count_digits (q / 10) (n + 1) else n

(** Characters in the decimal rendering of [n], sign included. *)
let digits n =
  (* registers, masks and displacements are small and non-negative *)
  if n >= 0 && n < 10 then 1
  else if n >= 0 && n < 100 then 2
  else if n >= 0 && n < 1000 then 3
  else if n >= 0 && n < 10000 then 4
  else count_digits (if n > 0 then -n else n) (if n < 0 then 2 else 1)

let rec put_digits buf k q =
  Bytes.set buf k (Char.unsafe_chr (Char.code '0' - (q mod 10)));
  if q <= -10 then put_digits buf (k - 1) (q / 10)

let add_int o n =
  if n >= 0 && n < 10 then add_char o (Char.unsafe_chr (Char.code '0' + n))
  else begin
    let w = digits n in
    if n < 0 then Bytes.set o.buf o.pos '-';
    put_digits o.buf (o.pos + w - 1) (if n > 0 then -n else n);
    o.pos <- o.pos + w
  end

(* the listing pads mnemonics to 5 columns, then one space *)
let mnem_width op = max (String.length op) 5 + 1

let add_mnem o op =
  add_string o op;
  for _ = String.length op to 4 do
    add_char o ' '
  done;
  add_char o ' '

let add_reg o r =
  add_char o 'r';
  add_int o r

let add_freg o r =
  add_char o 'f';
  add_int o r

(* "(rN)" *)
let add_base o r =
  add_char o '(';
  add_reg o r;
  add_char o ')'

let is_shift = function
  | "sla" | "sra" | "sll" | "srl" | "slda" | "srda" | "sldl" | "srdl" -> true
  | _ -> false

(* RISC-32 register fields that name FP registers *)
let r3_fp op = String.length op > 0 && op.[0] = 'f'
let mem_fp = function "fld" | "fsd" | "fls" | "fss" -> true | _ -> false

(** Length of [render]'s text for [t].  [r] and [f] register names have
    the same width. *)
let width t =
  let reg r = 1 + digits r in
  let base r = 3 + digits r in
  match t with
  | Rr { op; r1; r2 } -> mnem_width op + reg r1 + 1 + reg r2
  | Rx { op; r1; d2; x2; b2 } ->
      mnem_width op + reg r1 + 1 + digits d2
      + (if x2 = 0 && b2 = 0 then 0
         else if x2 = 0 then base b2
         else 3 + reg x2 + reg b2)
  | Rs { op; r1; r3; d2; b2 } ->
      mnem_width op + reg r1 + 1
      + (if is_shift op then 0 else reg r3 + 1)
      + digits d2
      + if b2 <> 0 then base b2 else 0
  | Si { op; d1; b1; i2 } ->
      mnem_width op + digits d1 + (if b1 <> 0 then base b1 else 0) + 1
      + digits i2
  | Ss { op; l; d1; b1; d2; b2 } ->
      mnem_width op + digits d1 + 1 + digits l + 1 + reg b1 + 2 + digits d2
      + base b2
  | R3 { op; rd; rs1; rs2 } -> mnem_width op + reg rd + 1 + reg rs1 + 1 + reg rs2
  | R2 { op = "jr"; rs; _ } -> mnem_width "jr" + reg rs
  | R2 { op; rd; rs } -> mnem_width op + reg rd + 1 + reg rs
  | Ri { op; rd; rs; imm } -> mnem_width op + reg rd + 1 + reg rs + 1 + digits imm
  | Li { op; rd; imm } -> mnem_width op + reg rd + 1 + digits imm
  | Mem { op; rd; dsp; rb } -> mnem_width op + reg rd + 1 + digits dsp + base rb
  | Bcc { mask; rel } -> mnem_width "bc" + digits mask + 1 + digits rel

(** Write [t]'s listing text at [o.pos]: [width t] characters. *)
let render (o : out) (t : t) : unit =
  match t with
  | Rr { op; r1; r2 } ->
      add_mnem o op;
      add_reg o r1;
      add_char o ',';
      add_reg o r2
  | Rx { op; r1; d2; x2; b2 } ->
      add_mnem o op;
      add_reg o r1;
      add_char o ',';
      add_int o d2;
      if x2 = 0 && b2 = 0 then ()
      else if x2 = 0 then add_base o b2
      else begin
        add_char o '(';
        add_reg o x2;
        add_char o ',';
        add_reg o b2;
        add_char o ')'
      end
  | Rs { op; r1; r3; d2; b2 } ->
      add_mnem o op;
      add_reg o r1;
      add_char o ',';
      if not (is_shift op) then begin
        add_reg o r3;
        add_char o ','
      end;
      add_int o d2;
      if b2 <> 0 then add_base o b2
  | Si { op; d1; b1; i2 } ->
      add_mnem o op;
      add_int o d1;
      if b1 <> 0 then add_base o b1;
      add_char o ',';
      add_int o i2
  | Ss { op; l; d1; b1; d2; b2 } ->
      add_mnem o op;
      add_int o d1;
      add_char o '(';
      add_int o l;
      add_char o ',';
      add_reg o b1;
      add_string o "),";
      add_int o d2;
      add_base o b2
  | R3 { op; rd; rs1; rs2 } ->
      let fp = r3_fp op in
      add_mnem o op;
      if fp then add_freg o rd else add_reg o rd;
      add_char o ',';
      if fp then add_freg o rs1 else add_reg o rs1;
      add_char o ',';
      if fp then add_freg o rs2 else add_reg o rs2
  | R2 { op; rd; rs } -> (
      add_mnem o op;
      match op with
      | "jr" -> add_reg o rs
      | "itof" ->
          add_freg o rd;
          add_char o ',';
          add_reg o rs
      | "ftoi" ->
          add_reg o rd;
          add_char o ',';
          add_freg o rs
      | "fmov" | "fneg" | "fabs" | "fhlv" | "fcmp" ->
          add_freg o rd;
          add_char o ',';
          add_freg o rs
      | _ ->
          add_reg o rd;
          add_char o ',';
          add_reg o rs)
  | Ri { op; rd; rs; imm } ->
      add_mnem o op;
      add_reg o rd;
      add_char o ',';
      add_reg o rs;
      add_char o ',';
      add_int o imm
  | Li { op; rd; imm } ->
      add_mnem o op;
      add_reg o rd;
      add_char o ',';
      add_int o imm
  | Mem { op; rd; dsp; rb } ->
      add_mnem o op;
      if mem_fp op then add_freg o rd else add_reg o rd;
      add_char o ',';
      add_int o dsp;
      add_base o rb
  | Bcc { mask; rel } ->
      add_mnem o "bc";
      add_int o mask;
      add_char o ',';
      add_int o rel

let to_string t =
  let o = out (width t) in
  render o t;
  contents o

let pp ppf t = Fmt.string ppf (to_string t)
