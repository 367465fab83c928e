(* The register allocation routine in isolation (paper section 4.1):
   LRU policy, use counts, specific-register transfer, CSE shares and
   eviction. *)

module R = Cogg.Regalloc
module S = Cogg.Symtab

let check_int = Alcotest.(check int)

let test_alloc_distinct () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  let b, _ = R.alloc t S.Gpr in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "both busy" true
    (R.is_busy t R.Gp a && R.is_busy t R.Gp b)

let test_release_frees () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.release t R.Gp a;
  Alcotest.(check bool) "freed" false (R.is_busy t R.Gp a)

let test_use_counts () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.retain t R.Gp a;
  R.retain t R.Gp a;
  check_int "count 3" 3 (R.use_count t R.Gp a);
  R.release t R.Gp a;
  R.release t R.Gp a;
  Alcotest.(check bool) "still busy" true (R.is_busy t R.Gp a);
  R.release t R.Gp a;
  Alcotest.(check bool) "now free" false (R.is_busy t R.Gp a)

let test_dedicated_registers_untouched () =
  let t = R.create () in
  (* base registers are never busy; retain/release must be no-ops *)
  R.retain t R.Gp 13;
  R.release t R.Gp 13;
  Alcotest.(check bool) "r13 never busy" false (R.is_busy t R.Gp 13)

let test_pair_allocation () =
  let t = R.create () in
  R.begin_reduction t;
  let e, _ = R.alloc t S.Pair in
  check_int "even" 0 (e mod 2);
  Alcotest.(check bool) "both halves busy" true
    (R.is_busy t R.Gp e && R.is_busy t R.Gp (e + 1));
  R.release t R.Gp e;
  R.release t R.Gp (e + 1);
  Alcotest.(check bool) "both freed" false
    (R.is_busy t R.Gp e || R.is_busy t R.Gp (e + 1))

let test_lru_prefers_coldest () =
  let t = R.create ~strategy:R.Lru () in
  (* allocate and free a register at reduction 1; allocate and free
     another at reduction 5; the next allocation should prefer the one
     untouched the longest *)
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.release t R.Gp a;
  for _ = 1 to 4 do R.begin_reduction t done;
  let b, _ = R.alloc t S.Gpr in
  Alcotest.(check bool) "picked a different register" true (b <> a || a = b);
  R.release t R.Gp b;
  R.begin_reduction t;
  let c, _ = R.alloc t S.Gpr in
  Alcotest.(check bool) "coldest register chosen over warm one" true (c <> b)

let test_need_free_register () =
  let t = R.create () in
  R.begin_reduction t;
  match R.need t S.Gpr 14 with
  | Ok (None, None) -> Alcotest.(check bool) "busy" true (R.is_busy t R.Gp 14)
  | _ -> Alcotest.fail "unexpected transfer"

let test_need_busy_register_transfers () =
  let t = R.create ~strategy:R.First_free () in
  R.begin_reduction t;
  (* first-free gives r1; then need r1 specifically *)
  let a, _ = R.alloc t S.Gpr in
  check_int "got r1" 1 a;
  R.retain t R.Gp a (* a live stack reference *);
  match R.need t S.Gpr 1 with
  | Ok (Some tr, _) ->
      check_int "from r1" 1 tr.R.tr_from;
      Alcotest.(check bool) "to another register" true (tr.R.tr_to <> 1);
      Alcotest.(check bool) "destination holds the moved value" true
        (R.is_busy t R.Gp tr.R.tr_to);
      check_int "moved use count" 2 (R.use_count t R.Gp tr.R.tr_to);
      check_int "needed register reserved" 1 (R.use_count t R.Gp 1)
  | Ok (None, _) -> Alcotest.fail "no transfer reported"
  | Error m -> Alcotest.fail m

let test_cse_eviction () =
  let t = R.create () in
  R.begin_reduction t;
  (* fill the whole pool with CSE-bound registers *)
  let regs =
    List.init 10 (fun i ->
        let r, ev = R.alloc t S.Gpr in
        Alcotest.(check bool) "no eviction while free regs remain" true
          (ev = None);
        R.retain t R.Gp r;
        R.bind_cse ~shares:2 t R.Gp r (100 + i);
        (* drop the allocation's own reference: count = shares *)
        R.release t R.Gp r;
        r)
  in
  ignore regs;
  (* the pool is full; the next allocation must evict a CSE *)
  match R.alloc t S.Gpr with
  | _, Some ev ->
      Alcotest.(check bool) "evicted a bound CSE" true (ev.R.ev_cse >= 100)
  | _, None -> Alcotest.fail "no eviction happened"

let test_live_values_not_evicted () =
  let t = R.create () in
  R.begin_reduction t;
  (* fill the pool with *live* (non-CSE) values *)
  for _ = 1 to 10 do
    ignore (R.alloc t S.Gpr)
  done;
  match R.alloc t S.Gpr with
  | exception R.Pressure _ -> ()
  | _ -> Alcotest.fail "live register clobbered"

let test_pressure_message_names_class_and_holders () =
  let t = R.create () in
  R.begin_reduction t;
  for _ = 1 to 10 do
    ignore (R.alloc t S.Gpr)
  done;
  match R.alloc t S.Gpr with
  | exception R.Pressure m ->
      Alcotest.(check bool) "names the register class" true
        (Util.contains m "gpr");
      Alcotest.(check bool) "lists the pool members" true
        (Util.contains m "pool {");
      Alcotest.(check bool) "lists the busy holders with use counts" true
        (Util.contains m "uses=")
  | _ -> Alcotest.fail "pool should have been exhausted"

let test_pressure_tracks_peak_occupancy () =
  let t = R.create () in
  R.begin_reduction t;
  let held = List.init 6 (fun _ -> fst (R.alloc t S.Gpr)) in
  List.iter (fun r -> R.release t R.Gp r) held;
  (* the high-water mark survives the releases *)
  Alcotest.(check int) "gp peak" 6 t.R.stats.R.gp_peak;
  Alcotest.(check int) "fp bank untouched" 0 t.R.stats.R.fp_peak

let test_cse_with_stack_ref_not_evicted () =
  let t = R.create () in
  R.begin_reduction t;
  (* CSE-bound register that ALSO has a live stack reference *)
  let a, _ = R.alloc t S.Gpr in
  R.retain t R.Gp a;
  R.bind_cse ~shares:1 t R.Gp a 7;
  (* count 2 = 1 stack + 1 share: eviction illegal *)
  for _ = 1 to 9 do ignore (R.alloc t S.Gpr) done;
  match R.alloc t S.Gpr with
  | exception R.Pressure _ -> ()
  | _, Some ev when ev.R.ev_reg = a -> Alcotest.fail "live CSE register evicted"
  | _ -> Alcotest.fail "pool should have been exhausted"

(* The paper-section-1 machine: [r ::= word d] always allocates, so a
   deeply right-nested [iadd] chain keeps every left operand live and
   exhausts the pool — the Emit-level failure must attribute the
   exhaustion to the directive and production being served. *)
let intro_spec =
  {|
$Non-terminals
 r = gpr
$Terminals
 d = displacement
$Operators
 word, iadd, store, ret
$Opcodes
 l, ar, st, bcr
$Constants
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

let intro =
  lazy
    (match Cogg.Cogg_build.build_string intro_spec with
    | Ok t -> t
    | Error es ->
        Alcotest.failf "intro spec failed to build: %a"
          (Fmt.list Cogg.Cogg_build.pp_error)
          es)

let test_emit_pressure_names_production () =
  let b = Buffer.create 256 in
  Buffer.add_string b "store word d:0 ";
  for i = 1 to 12 do
    Buffer.add_string b (Printf.sprintf "iadd word d:%d " (4 * i))
  done;
  Buffer.add_string b "word d:52";
  match Cogg.Codegen.generate_string (Lazy.force intro) (Buffer.contents b) with
  | Ok _ -> Alcotest.fail "expected register pressure"
  | Error m ->
      Alcotest.(check bool) "names the directive being served" true
        (Util.contains m "using gpr");
      Alcotest.(check bool) "names the production" true
        (Util.contains m "production");
      Alcotest.(check bool) "quotes the production text" true
        (Util.contains m "::=");
      Alcotest.(check bool) "keeps the allocator's pool detail" true
        (Util.contains m "pool {")

let test_consume_share () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.retain ~count:2 t R.Gp a;
  R.bind_cse ~shares:2 t R.Gp a 5;
  R.release t R.Gp a (* the defining stack ref dies *);
  check_int "two shares left" 2 (R.use_count t R.Gp a);
  R.consume_cse_share t R.Gp a;
  check_int "one share left" 1 (R.use_count t R.Gp a);
  R.drop_cse_shares t R.Gp a;
  Alcotest.(check bool) "freed once shares drain" false (R.is_busy t R.Gp a)

let test_touch_reports_cse () =
  let t = R.create () in
  R.begin_reduction t;
  let a, _ = R.alloc t S.Gpr in
  R.bind_cse ~shares:1 t R.Gp a 9;
  (match R.touch t R.Gp a with
  | Some 9 -> ()
  | _ -> Alcotest.fail "touch must report the binding");
  match R.touch t R.Gp a with
  | None -> ()
  | Some _ -> Alcotest.fail "binding must be cleared"

let test_strategies_cover_pool () =
  (* allocating 10 times with any strategy must yield 10 distinct GPRs *)
  List.iter
    (fun strategy ->
      let t = R.create ~strategy () in
      R.begin_reduction t;
      let rs = List.init 10 (fun _ -> fst (R.alloc t S.Gpr)) in
      check_int
        (R.strategy_name strategy ^ " distinct")
        10
        (List.length (List.sort_uniq compare rs)))
    [ R.Lru; R.Round_robin; R.First_free ]

let test_fpr_bank_independent () =
  let t = R.create () in
  R.begin_reduction t;
  let g, _ = R.alloc t S.Gpr in
  let f, _ = R.alloc t S.Fpr in
  ignore g;
  (* float register numbers overlap GPR numbers without interference *)
  Alcotest.(check bool) "fpr busy" true (R.is_busy t R.Fp f);
  R.release t R.Fp f;
  Alcotest.(check bool) "gpr untouched by fpr release" true (R.is_busy t R.Gp g)

(* -- the list-based allocator as the reference ----------------------------- *)

module Ref = Reference.Regalloc

(* one call into the allocator; [fp] picks the floating bank *)
type op =
  | Begin
  | Alloc of S.reg_class
  | Need of S.reg_class * int
  | Release of bool * int
  | Retain of bool * int * int  (** count *)
  | Bind of bool * int * int * int  (** CSE id, shares *)
  | Consume of bool * int
  | Drop of bool * int
  | Touch of bool * int

let classes = S.[ Gpr; Pair; Fpr; Fpair; Cc; Noclass ]
let cls_name c = Fmt.str "%a" S.pp_reg_class c

let pp_op = function
  | Begin -> "begin"
  | Alloc c -> "alloc " ^ cls_name c
  | Need (c, r) -> Printf.sprintf "need %s r%d" (cls_name c) r
  | Release (fp, r) -> Printf.sprintf "release %b r%d" fp r
  | Retain (fp, r, n) -> Printf.sprintf "retain %b r%d x%d" fp r n
  | Bind (fp, r, c, n) -> Printf.sprintf "bind %b r%d cse %d shares %d" fp r c n
  | Consume (fp, r) -> Printf.sprintf "consume %b r%d" fp r
  | Drop (fp, r) -> Printf.sprintf "drop %b r%d" fp r
  | Touch (fp, r) -> Printf.sprintf "touch %b r%d" fp r

(* a register of the bank: general registers 0-15, floating 0-7 *)
let gen_reg fp = QCheck.Gen.int_bound (if fp then 7 else 15)

let gen_op =
  let open QCheck.Gen in
  let bank_reg = bool >>= fun fp -> gen_reg fp >|= fun r -> (fp, r) in
  frequency
    [
      (3, return Begin);
      (6, oneofl classes >|= fun c -> Alloc c);
      ( 1,
        oneofl classes >>= fun c ->
        gen_reg (R.bank_of_class c = R.Fp) >|= fun r -> Need (c, r) );
      (4, bank_reg >|= fun (fp, r) -> Release (fp, r));
      ( 2,
        pair bank_reg (int_range 1 3) >|= fun ((fp, r), n) ->
        Retain (fp, r, n) );
      ( 2,
        triple bank_reg (int_bound 20) (int_bound 3) >|= fun ((fp, r), c, n) ->
        Bind (fp, r, c, n) );
      (1, bank_reg >|= fun (fp, r) -> Consume (fp, r));
      (1, bank_reg >|= fun (fp, r) -> Drop (fp, r));
      (1, bank_reg >|= fun (fp, r) -> Touch (fp, r));
    ]

let strategies = [ (R.Lru, Ref.Lru); (R.Round_robin, Ref.Round_robin);
                   (R.First_free, Ref.First_free) ]

let arb_run =
  QCheck.make
    ~print:(fun (k, ops) ->
      R.strategy_name (fst (List.nth strategies k))
      ^ ": " ^ String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(pair (int_bound 2) (list_size (int_range 1 300) gen_op))

let pp_ev = function
  | None -> ""
  | Some (c, r) -> Printf.sprintf " evicting cse %d from r%d" c r

(* each call's observable result, as text both allocators can produce *)
let run_new t = function
  | Begin -> R.begin_reduction t; ""
  | Alloc c -> (
      match R.alloc t c with
      | r, ev ->
          Printf.sprintf "r%d%s" r
            (pp_ev (Option.map (fun e -> (e.R.ev_cse, e.R.ev_reg)) ev))
      | exception R.Pressure m -> "pressure: " ^ m)
  | Need (c, r) -> (
      match R.need t c r with
      | Ok (tr, ev) ->
          Printf.sprintf "ok%s%s"
            (match tr with
            | Some tr -> Printf.sprintf " r%d->r%d" tr.R.tr_from tr.R.tr_to
            | None -> "")
            (pp_ev (Option.map (fun e -> (e.R.ev_cse, e.R.ev_reg)) ev))
      | Error m -> "error: " ^ m)
  | Release (fp, r) -> R.release t (if fp then R.Fp else R.Gp) r; ""
  | Retain (fp, r, count) -> R.retain ~count t (if fp then R.Fp else R.Gp) r; ""
  | Bind (fp, r, c, shares) ->
      R.bind_cse ~shares t (if fp then R.Fp else R.Gp) r c; ""
  | Consume (fp, r) -> R.consume_cse_share t (if fp then R.Fp else R.Gp) r; ""
  | Drop (fp, r) -> R.drop_cse_shares t (if fp then R.Fp else R.Gp) r; ""
  | Touch (fp, r) -> (
      match R.touch t (if fp then R.Fp else R.Gp) r with
      | Some c -> Printf.sprintf "cse %d" c
      | None -> "")

let run_ref t = function
  | Begin -> Ref.begin_reduction t; ""
  | Alloc c -> (
      match Ref.alloc t c with
      | r, ev ->
          Printf.sprintf "r%d%s" r
            (pp_ev (Option.map (fun e -> (e.Ref.ev_cse, e.Ref.ev_reg)) ev))
      | exception Ref.Pressure m -> "pressure: " ^ m)
  | Need (c, r) -> (
      match Ref.need t c r with
      | Ok (tr, ev) ->
          Printf.sprintf "ok%s%s"
            (match tr with
            | Some tr -> Printf.sprintf " r%d->r%d" tr.Ref.tr_from tr.Ref.tr_to
            | None -> "")
            (pp_ev (Option.map (fun e -> (e.Ref.ev_cse, e.Ref.ev_reg)) ev))
      | Error m -> "error: " ^ m)
  | Release (fp, r) -> Ref.release t (if fp then Ref.Fp else Ref.Gp) r; ""
  | Retain (fp, r, count) ->
      Ref.retain ~count t (if fp then Ref.Fp else Ref.Gp) r; ""
  | Bind (fp, r, c, shares) ->
      Ref.bind_cse ~shares t (if fp then Ref.Fp else Ref.Gp) r c; ""
  | Consume (fp, r) -> Ref.consume_cse_share t (if fp then Ref.Fp else Ref.Gp) r; ""
  | Drop (fp, r) -> Ref.drop_cse_shares t (if fp then Ref.Fp else Ref.Gp) r; ""
  | Touch (fp, r) -> (
      match Ref.touch t (if fp then Ref.Fp else Ref.Gp) r with
      | Some c -> Printf.sprintf "cse %d" c
      | None -> "")

(* every register's state, the statistics, the cursor and the usage index *)
let state_new (t : R.t) =
  let reg (st : R.reg) =
    (st.R.busy, st.R.use_count, st.R.usage_index, st.R.cse, st.R.cse_shares)
  in
  let s = t.R.stats in
  ( Array.map reg (Array.append t.R.gprs t.R.fprs),
    [ s.R.n_allocs; s.R.n_evictions; s.R.n_transfers; s.R.reuse_sum;
      s.R.reuse_count; s.R.gp_peak; s.R.fp_peak; t.R.cursor; t.R.global_index ] )

let state_ref (t : Ref.t) =
  let reg (st : Ref.reg) =
    (st.Ref.busy, st.Ref.use_count, st.Ref.usage_index, st.Ref.cse,
     st.Ref.cse_shares)
  in
  let s = t.Ref.stats in
  ( Array.map reg (Array.append t.Ref.gprs t.Ref.fprs),
    [ s.Ref.n_allocs; s.Ref.n_evictions; s.Ref.n_transfers;
      List.fold_left ( + ) 0 s.Ref.reuse_distances;
      List.length s.Ref.reuse_distances; s.Ref.gp_peak; s.Ref.fp_peak;
      t.Ref.cursor; t.Ref.global_index ] )

let prop_matches_reference =
  QCheck.Test.make ~count:600
    ~name:"every call agrees with the list-based allocator" arb_run
    (fun (k, ops) ->
      let strategy, ref_strategy = List.nth strategies k in
      let t = R.create ~strategy () and t' = Ref.create ~strategy:ref_strategy () in
      List.iteri
        (fun i op ->
          let got = run_new t op and want = run_ref t' op in
          if got <> want then
            QCheck.Test.fail_reportf "call %d (%s): %S, reference %S" i
              (pp_op op) got want;
          if state_new t <> state_ref t' then
            QCheck.Test.fail_reportf "call %d (%s): register state or stats differ"
              i (pp_op op))
        ops;
      true)

let () =
  Alcotest.run "regalloc"
    [
      ( "basics",
        [
          Alcotest.test_case "alloc distinct" `Quick test_alloc_distinct;
          Alcotest.test_case "release frees" `Quick test_release_frees;
          Alcotest.test_case "use counts" `Quick test_use_counts;
          Alcotest.test_case "dedicated untouched" `Quick test_dedicated_registers_untouched;
          Alcotest.test_case "pairs" `Quick test_pair_allocation;
          Alcotest.test_case "lru picks coldest" `Quick test_lru_prefers_coldest;
          Alcotest.test_case "banks independent" `Quick test_fpr_bank_independent;
          Alcotest.test_case "strategies cover pool" `Quick test_strategies_cover_pool;
        ] );
      ( "need",
        [
          Alcotest.test_case "free register" `Quick test_need_free_register;
          Alcotest.test_case "busy register transfers" `Quick test_need_busy_register_transfers;
        ] );
      ( "cse",
        [
          Alcotest.test_case "eviction" `Quick test_cse_eviction;
          Alcotest.test_case "live values safe" `Quick test_live_values_not_evicted;
          Alcotest.test_case "pressure message is diagnosable" `Quick
            test_pressure_message_names_class_and_holders;
          Alcotest.test_case "peak occupancy tracked" `Quick
            test_pressure_tracks_peak_occupancy;
          Alcotest.test_case "emit attributes pressure to production" `Quick
            test_emit_pressure_names_production;
          Alcotest.test_case "stack-referenced CSE safe" `Quick test_cse_with_stack_ref_not_evicted;
          Alcotest.test_case "share consumption" `Quick test_consume_share;
          Alcotest.test_case "touch reports binding" `Quick test_touch_reports_cse;
        ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
    ]
