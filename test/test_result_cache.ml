(* The in-memory result cache: lookup/insert semantics, exact capacity
   with oldest-first eviction, and the instance counters. *)

module Rc = Serve.Result_cache

let test_find_store () =
  let c = Rc.create ~capacity:8 in
  Alcotest.(check (option string)) "empty cache misses" None (Rc.find c "k1");
  Rc.store c "k1" "v1";
  Alcotest.(check (option string)) "stored value found" (Some "v1")
    (Rc.find c "k1");
  Rc.store c "k1" "v2";
  Alcotest.(check (option string)) "replacement wins" (Some "v2")
    (Rc.find c "k1");
  Alcotest.(check int) "one entry" 1 (Rc.length c);
  let s = Rc.stats c in
  Alcotest.(check int) "hits counted" 2 s.Rc.hits;
  Alcotest.(check int) "misses counted" 1 s.Rc.misses

let test_fifo_eviction () =
  let c = Rc.create ~capacity:3 in
  Rc.store c "a" "1";
  Rc.store c "b" "2";
  Rc.store c "c" "3";
  Alcotest.(check int) "at capacity" 3 (Rc.length c);
  Rc.store c "d" "4";
  Alcotest.(check int) "still at capacity" 3 (Rc.length c);
  Alcotest.(check (option string)) "oldest evicted" None (Rc.find c "a");
  Alcotest.(check (option string)) "second oldest kept" (Some "2")
    (Rc.find c "b");
  Alcotest.(check (option string)) "newest kept" (Some "4") (Rc.find c "d");
  Alcotest.(check int) "eviction counted" 1 (Rc.stats c).Rc.evictions

let test_replace_keeps_age () =
  let c = Rc.create ~capacity:2 in
  Rc.store c "a" "1";
  Rc.store c "b" "2";
  (* refreshing [a] must not make it younger than [b] *)
  Rc.store c "a" "1'";
  Rc.store c "c" "3";
  Alcotest.(check (option string)) "a still the eviction victim" None
    (Rc.find c "a");
  Alcotest.(check (option string)) "b survives" (Some "2") (Rc.find c "b")

(* the service's default capacity holds as many distinct result keys
   (hex digests, as the service makes them) as it says: all 256 stay,
   and the 257th evicts exactly the first one stored *)
let test_exact_capacity () =
  let key i = Digest.to_hex (Digest.string (Printf.sprintf "source %d" i)) in
  let c = Rc.create ~capacity:256 in
  for i = 0 to 255 do
    Rc.store c (key i) i
  done;
  let kept =
    List.filter (fun i -> Rc.find c (key i) = Some i) (List.init 256 Fun.id)
  in
  Alcotest.(check int) "all 256 keys found" 256 (List.length kept);
  Alcotest.(check int) "nothing evicted" 0 (Rc.stats c).Rc.evictions;
  Rc.store c (key 256) 256;
  let gone =
    List.filter (fun i -> Rc.find c (key i) = None) (List.init 257 Fun.id)
  in
  Alcotest.(check (list int)) "the 257th evicts the first" [ 0 ] gone

let () =
  Alcotest.run "result_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "find and store" `Quick test_find_store;
          Alcotest.test_case "FIFO eviction" `Quick test_fifo_eviction;
          Alcotest.test_case "replace keeps age" `Quick test_replace_keeps_age;
          Alcotest.test_case "exact capacity" `Quick test_exact_capacity;
        ] );
    ]
