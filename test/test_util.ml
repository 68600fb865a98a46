(* Unit and property tests for the utility substrate. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- Vec_int ---------- *)

let test_vec_basic () =
  let v = Util.Vec_int.create () in
  check bool "fresh vector is empty" true (Util.Vec_int.is_empty v);
  Util.Vec_int.push v 10;
  Util.Vec_int.push v 20;
  Util.Vec_int.push v 30;
  check int "length after pushes" 3 (Util.Vec_int.length v);
  check int "get 0" 10 (Util.Vec_int.get v 0);
  check int "get 2" 30 (Util.Vec_int.get v 2);
  Util.Vec_int.set v 1 99;
  check int "set/get" 99 (Util.Vec_int.get v 1);
  check int "top" 30 (Util.Vec_int.top v);
  check int "pop" 30 (Util.Vec_int.pop v);
  check int "length after pop" 2 (Util.Vec_int.length v)

let test_vec_bounds () =
  let v = Util.Vec_int.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec_int: index 3 out of bounds [0,3)")
    (fun () -> ignore (Util.Vec_int.get v 3));
  Alcotest.check_raises "negative index" (Invalid_argument "Vec_int: index -1 out of bounds [0,3)")
    (fun () -> ignore (Util.Vec_int.get v (-1)));
  let e = Util.Vec_int.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec_int.pop: empty") (fun () ->
      ignore (Util.Vec_int.pop e))

let test_vec_resize () =
  let v = Util.Vec_int.create () in
  Util.Vec_int.resize v 5 7;
  check int "resized length" 5 (Util.Vec_int.length v);
  check int "fill value" 7 (Util.Vec_int.get v 4);
  Util.Vec_int.resize v 2 0;
  check int "truncated" 2 (Util.Vec_int.length v);
  Util.Vec_int.clear v;
  check bool "cleared" true (Util.Vec_int.is_empty v)

let test_vec_remove_unordered () =
  let v = Util.Vec_int.of_list [ 1; 2; 3; 4 ] in
  Util.Vec_int.remove_unordered v 1;
  check int "length" 3 (Util.Vec_int.length v);
  let l = List.sort compare (Util.Vec_int.to_list v) in
  check (Alcotest.list int) "kept the rest" [ 1; 3; 4 ] l

let test_vec_grow_large () =
  let v = Util.Vec_int.create ~capacity:1 () in
  for i = 0 to 9999 do
    Util.Vec_int.push v i
  done;
  check int "10000 pushes" 10000 (Util.Vec_int.length v);
  check int "spot value" 1234 (Util.Vec_int.get v 1234);
  check int "fold sum" (9999 * 10000 / 2) (Util.Vec_int.fold ( + ) 0 v)

let test_vec_iterators () =
  let v = Util.Vec_int.of_list [ 5; 6; 7 ] in
  let acc = ref [] in
  Util.Vec_int.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check (Alcotest.list (Alcotest.pair int int)) "iteri" [ (0, 5); (1, 6); (2, 7) ] (List.rev !acc);
  check bool "exists" true (Util.Vec_int.exists (fun x -> x = 6) v);
  check bool "not exists" false (Util.Vec_int.exists (fun x -> x = 8) v);
  Util.Vec_int.sort v;
  check (Alcotest.list int) "sort" [ 5; 6; 7 ] (Util.Vec_int.to_list v)

let test_vec_blit_push () =
  let a = Util.Vec_int.of_list [ 1; 2 ] in
  let b = Util.Vec_int.of_list [ 3; 4; 5 ] in
  Util.Vec_int.blit_push a b;
  check (Alcotest.list int) "concatenated" [ 1; 2; 3; 4; 5 ] (Util.Vec_int.to_list a)

let vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list small_int)
    (fun l -> Util.Vec_int.to_list (Util.Vec_int.of_list l) = l)

let vec_array_roundtrip =
  QCheck.Test.make ~name:"vec of_array/to_array roundtrip" ~count:200
    QCheck.(array small_int)
    (fun a -> Util.Vec_int.to_array (Util.Vec_int.of_array a) = a)

let vec_push_pop =
  QCheck.Test.make ~name:"pushes then pops return reversed" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let v = Util.Vec_int.create () in
      List.iter (Util.Vec_int.push v) l;
      let popped = List.init (List.length l) (fun _ -> Util.Vec_int.pop v) in
      popped = List.rev l)

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    check bool "same stream" true (Util.Prng.next64 a = Util.Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Util.Prng.next64 a <> Util.Prng.next64 b then differs := true
  done;
  check bool "different seeds differ" true !differs

let test_prng_int_bounds () =
  let p = Util.Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Util.Prng.int p 17 in
    check bool "0 <= x < 17" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound zero rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Util.Prng.int p 0))

let test_prng_float_range () =
  let p = Util.Prng.create 9 in
  for _ = 1 to 1000 do
    let f = Util.Prng.float p in
    check bool "0 <= f < 1" true (f >= 0.0 && f < 1.0)
  done

let test_prng_split_independent () =
  let p = Util.Prng.create 5 in
  let q = Util.Prng.split p in
  (* both streams usable and distinct *)
  let a = Util.Prng.next64 p and b = Util.Prng.next64 q in
  check bool "split stream differs" true (a <> b)

let test_prng_bool_balanced () =
  let p = Util.Prng.create 3 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Util.Prng.bool p then incr trues
  done;
  check bool "roughly balanced" true (!trues > 400 && !trues < 600)

(* ---------- Luby ---------- *)

let test_luby_prefix () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  let got = List.init 15 (fun i -> Util.Luby.term (i + 1)) in
  check (Alcotest.list int) "first 15 terms" expected got

let test_luby_powers () =
  (* term (2^k - 1) = 2^(k-1) *)
  check int "term 31" 16 (Util.Luby.term 31);
  check int "term 63" 32 (Util.Luby.term 63);
  Alcotest.check_raises "index 0 rejected" (Invalid_argument "Luby.term: index must be >= 1")
    (fun () -> ignore (Util.Luby.term 0))

(* ---------- Stopwatch ---------- *)

let test_stopwatch () =
  let r, dt = Util.Stopwatch.time (fun () -> 21 * 2) in
  check int "result passed through" 42 r;
  check bool "non-negative time" true (dt >= 0.0)

let () =
  Alcotest.run "util"
    [
      ( "vec_int",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "bounds checking" `Quick test_vec_bounds;
          Alcotest.test_case "resize/clear" `Quick test_vec_resize;
          Alcotest.test_case "remove_unordered" `Quick test_vec_remove_unordered;
          Alcotest.test_case "large growth" `Quick test_vec_grow_large;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          Alcotest.test_case "blit_push" `Quick test_vec_blit_push;
          QCheck_alcotest.to_alcotest vec_roundtrip;
          QCheck_alcotest.to_alcotest vec_array_roundtrip;
          QCheck_alcotest.to_alcotest vec_push_pop;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "bool balance" `Quick test_prng_bool_balanced;
        ] );
      ( "luby",
        [
          Alcotest.test_case "sequence prefix" `Quick test_luby_prefix;
          Alcotest.test_case "power positions" `Quick test_luby_powers;
        ] );
      ("stopwatch", [ Alcotest.test_case "time wrapper" `Quick test_stopwatch ]);
    ]
