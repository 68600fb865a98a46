(* Bit-parallel simulation engine and counterexample pattern bank:
   signature semantics against brute-force evaluation, bank persistence
   across sweeps, recycled counterexamples splitting candidate classes,
   and the don't-care pre-filter's soundness. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let eval_mask aig l mask = Aig.eval aig l (fun v -> (mask lsr v) land 1 = 1)

let semantically_equal aig nvars a b =
  let rec go mask =
    mask >= 1 lsl nvars || (eval_mask aig a mask = eval_mask aig b mask && go (mask + 1))
  in
  go 0

(* ---------- signature semantics ---------- *)

let test_refine_lane0_oracle () =
  (* the refinement word carries the model in lane 0, so bit 0 of the
     last signature word must equal concrete evaluation under the model *)
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  let f = Aig.or_ aig (Aig.and_ aig x y) (Aig.and_ aig (Aig.not_ y) z) in
  let prng = Util.Prng.create 4 in
  let sim = Sweep.Sim.create aig ~roots:[ f ] ~rounds:2 ~prng in
  let pattern v = v = 1 || v = 2 in
  ignore (Sweep.Sim.refine sim pattern);
  let w = Sweep.Sim.words sim - 1 in
  List.iter
    (fun n ->
      let l = Aig.lit_of_node n in
      let bit0 = Int64.logand (Sweep.Sim.lit_word sim l w) 1L = 1L in
      check bool
        (Printf.sprintf "node %d lane 0 matches eval" n)
        (Aig.eval aig l pattern) bit0)
    (Sweep.Sim.nodes sim)

let test_accessors () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let f = Aig.and_ aig x y in
  let prng = Util.Prng.create 5 in
  let sim = Sweep.Sim.create aig ~roots:[ f ] ~rounds:3 ~prng in
  check int "words = rounds without a bank" 3 (Sweep.Sim.words sim);
  check int "no bank words" 0 (Sweep.Sim.bank_words sim);
  check bool "support vars exposed" true (Sweep.Sim.vars sim = [ 0; 1 ]);
  (* literals outside the cone: empty signature, lit_word raises *)
  let stranger = Aig.var aig 9 in
  check int "unknown literal: empty signature" 0
    (Array.length (Sweep.Sim.lit_signature sim stranger));
  check bool "lit_word rejects unknown literals" true
    (match Sweep.Sim.lit_word sim stranger 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check bool "lit_word rejects out-of-range words" true
    (match Sweep.Sim.lit_word sim f 3 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_classes_ordering () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  let xor1 = Aig.xor_ aig x y in
  let xor2 = Aig.or_ aig (Aig.and_ aig x (Aig.not_ y)) (Aig.and_ aig (Aig.not_ x) y) in
  let f = Aig.and_ aig xor1 z and g = Aig.and_ aig xor2 z in
  let prng = Util.Prng.create 1 in
  let sim = Sweep.Sim.create aig ~roots:[ f; g ] ~rounds:4 ~prng in
  List.iter
    (fun members ->
      check bool "classes have >= 2 members" true (List.length members >= 2);
      let ids = List.map Aig.node_of_lit members in
      check bool "members ascend by node id" true (List.sort Int.compare ids = ids);
      match members with
      | repr :: rest ->
        List.iter (fun m -> check bool "members are same_class" true (Sweep.Sim.same_class sim repr m)) rest
      | [] -> ())
    (Sweep.Sim.classes sim)

(* the classes are exactly the partition the simulated patterns induce:
   recompute every node's signature word by word with the reference
   evaluator, fed the engine's own variable words, and bucket the nodes
   modulo complementation *)
let test_classes_exact_partition () =
  List.iter
    (fun (name, (cone : Circuits.Comb.cone)) ->
      let aig = cone.Circuits.Comb.aig in
      let roots = [ cone.Circuits.Comb.root ] in
      let sim = Sweep.Sim.create aig ~roots ~rounds:8 ~prng:(Util.Prng.create 11) in
      let and_nodes = Aig.cone aig roots in
      let tables =
        List.init (Sweep.Sim.words sim) (fun w ->
            Aig.simulate_cone aig and_nodes (fun v -> Sweep.Sim.lit_word sim (Aig.var aig v) w))
      in
      let word_of n w table =
        match Hashtbl.find_opt table n with
        | Some x -> x
        | None -> (
          match Aig.var_of_lit aig (Aig.lit_of_node n) with
          | Some v -> Sweep.Sim.lit_word sim (Aig.var aig v) w
          | None -> 0L)
      in
      let buckets = Hashtbl.create 64 in
      List.iter
        (fun n ->
          let sigs = List.mapi (fun w table -> word_of n w table) tables in
          let phase = Int64.logand (List.hd sigs) 1L = 1L in
          let key = if phase then List.map Int64.lognot sigs else sigs in
          let l = if phase then Aig.not_ (Aig.lit_of_node n) else Aig.lit_of_node n in
          Hashtbl.replace buckets key (l :: Option.value (Hashtbl.find_opt buckets key) ~default:[]))
        (Sweep.Sim.nodes sim);
      let canonical classes =
        List.sort compare (List.map (List.sort_uniq Int.compare) classes)
      in
      let expected =
        Hashtbl.fold (fun _ members acc -> if List.length members >= 2 then members :: acc else acc)
          buckets []
      in
      check bool (name ^ ": classes = induced partition") true
        (canonical expected = canonical (Sweep.Sim.classes sim)))
    [
      ("adder32", Circuits.Comb.adder_carry 32);
      ("mult12", Circuits.Comb.multiplier_bit 12);
      ("hwb16", Circuits.Comb.hwb 16);
      ("rand2k", Circuits.Comb.random_cone ~vars:24 ~gates:2000 ~seed:7);
    ]

(* property: exact simulation can never separate equal functions — two
   literals equal modulo complementation always share a class (structural
   diversity exercises the compiled cone evaluator on both builds) *)

let nvars = 4
let build = Gen_util.build_aig
let qc_pair = Gen_util.qc_pair nvars

let signatures_never_separate_equals =
  QCheck.Test.make ~name:"equal functions always share a class" ~count:80 qc_pair
    (fun (e1, e2) ->
      let aig = Aig.create () in
      let f = build aig e1 and g = build aig e2 in
      let prng = Util.Prng.create 13 in
      let sim = Sweep.Sim.create aig ~roots:[ f; g ] ~rounds:4 ~prng in
      (not (semantically_equal aig nvars f g)) || Sweep.Sim.same_class sim f g)

let distinct_signatures_mean_distinct_functions =
  QCheck.Test.make ~name:"split classes are semantically justified" ~count:80 qc_pair
    (fun (e1, e2) ->
      let aig = Aig.create () in
      let f = build aig e1 and g = build aig e2 in
      let prng = Util.Prng.create 17 in
      let sim = Sweep.Sim.create aig ~roots:[ f; g ] ~rounds:4 ~prng in
      Sweep.Sim.same_class sim f g || not (semantically_equal aig nvars f g))

(* ---------- pattern bank ---------- *)

let test_bank_roundtrip () =
  let bank = Sweep.Pattern_bank.create ~capacity:128 () in
  check int "empty bank has no words" 0 (Sweep.Pattern_bank.n_words bank);
  Sweep.Pattern_bank.add bank [ (0, true); (2, false) ];
  Sweep.Pattern_bank.add bank [ (1, true) ];
  check int "two patterns" 2 (Sweep.Pattern_bank.size bank);
  check int "one word carries them" 1 (Sweep.Pattern_bank.n_words bank);
  (* pattern 0 in lane 0, pattern 1 in lane 1 *)
  check bool "var 0 true in pattern 0 only" true (Sweep.Pattern_bank.word bank 0 0 = 1L);
  check bool "var 1 true in pattern 1 only" true (Sweep.Pattern_bank.word bank 1 0 = 2L);
  check bool "var 2 explicitly false" true (Sweep.Pattern_bank.word bank 2 0 = 0L);
  check bool "absent var reads false" true (Sweep.Pattern_bank.word bank 7 0 = 0L);
  check bool "out-of-range word reads zero" true (Sweep.Pattern_bank.word bank 0 5 = 0L)

let test_bank_ring_overwrite () =
  let bank = Sweep.Pattern_bank.create ~capacity:64 () in
  for _ = 1 to 64 do
    Sweep.Pattern_bank.add bank [ (0, true) ]
  done;
  check int "bank full" 64 (Sweep.Pattern_bank.size bank);
  check bool "var 0 true everywhere" true (Sweep.Pattern_bank.word bank 0 0 = -1L);
  (* the 65th pattern recycles slot 0 and clears the stale bit *)
  Sweep.Pattern_bank.add bank [ (1, true) ];
  check int "size is capped" 64 (Sweep.Pattern_bank.size bank);
  check int "total adds keep counting" 65 (Sweep.Pattern_bank.added bank);
  check bool "slot 0 cleared for var 0" true
    (Int64.logand (Sweep.Pattern_bank.word bank 0 0) 1L = 0L);
  check bool "slot 0 now carries var 1" true
    (Int64.logand (Sweep.Pattern_bank.word bank 1 0) 1L = 1L)

(* a wide conjunction is indistinguishable from the constant by random
   words (success probability 2^-20 per lane), so recycling is the only
   way a pattern can split the pair without a solver *)
let wide_conjunction aig n = Aig.and_list aig (List.init n (Aig.var aig))

let test_recycled_pattern_splits_class () =
  let aig = Aig.create () in
  let conj = wide_conjunction aig 20 in
  let prng = Util.Prng.create 5 in
  let sim = Sweep.Sim.create aig ~roots:[ conj ] ~rounds:1 ~prng in
  check bool "random words miss the single onset point" true
    (Sweep.Sim.same_class sim conj Aig.false_);
  let bank = Sweep.Pattern_bank.create () in
  Sweep.Pattern_bank.add bank (List.init 20 (fun v -> (v, true)));
  let prng = Util.Prng.create 5 in
  let sim = Sweep.Sim.create ~bank aig ~roots:[ conj ] ~rounds:1 ~prng in
  check int "one bank word seeded" 1 (Sweep.Sim.bank_words sim);
  check bool "recycled pattern splits the class" false
    (Sweep.Sim.same_class sim conj Aig.false_)

let test_bank_persists_across_sweeps () =
  (* sweep 1 must refute near-constant candidates by SAT, distilling the
     models into the bank; sweep 2 over the same structure then pre-splits
     those classes from the recycled lanes and refutes strictly less *)
  let run bank =
    let aig = Aig.create () in
    let conj = wide_conjunction aig 20 in
    let checker = Cnf.Checker.create aig in
    let prng = Util.Prng.create 5 in
    let config = { Sweep.Sweeper.default with bdd_node_limit = 0; sim_rounds = 1 } in
    let _, report = Sweep.Sweeper.run ~config ?bank aig checker ~prng ~roots:[ conj ] in
    report
  in
  let bank = Sweep.Pattern_bank.create () in
  let r1 = run (Some bank) in
  check bool "first sweep refutes by SAT" true (r1.Sweep.Sweeper.sat_refuted > 0);
  check bool "models distilled into the bank" true (Sweep.Pattern_bank.size bank > 0);
  check int "report sees the bank" (Sweep.Pattern_bank.size bank) r1.Sweep.Sweeper.bank_patterns;
  let r2 = run (Some bank) in
  check bool "second sweep refutes strictly less" true
    (r2.Sweep.Sweeper.sat_refuted < r1.Sweep.Sweeper.sat_refuted);
  let r_fresh = run None in
  check int "without the bank the work repeats" r1.Sweep.Sweeper.sat_refuted
    r_fresh.Sweep.Sweeper.sat_refuted

(* ---------- solver model access ---------- *)

let test_model_var_opt () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 in
  let _y = Aig.var aig 1 in
  let checker = Cnf.Checker.create aig in
  check bool "query satisfiable" true (Cnf.Checker.satisfiable checker [ x ] = Cnf.Checker.Yes);
  check bool "assigned var is known" true (Cnf.Checker.model_var_opt checker 0 = Some true);
  check bool "unencoded var is unknown" true (Cnf.Checker.model_var_opt checker 1 = None);
  check bool "out-of-range var is unknown" true (Cnf.Checker.model_var_opt checker 42 = None);
  check bool "model_var defaults unknowns to false" false (Cnf.Checker.model_var checker 1);
  check bool "assigned_model keeps only real assignments" true
    (Cnf.Checker.assigned_model checker [ 0; 1; 42 ] = [ (0, true) ])

(* ---------- don't-care pre-filter soundness ---------- *)

(* The pre-filter must only discard candidate pairs some stored pattern
   distinguishes inside the care set — pairs [equal_under] would refute
   anyway. With identical seeds the banked run can therefore never find
   fewer replacements than the fresh run, and both must stay correct. *)
let qc_dc =
  QCheck.make
    ~print:(fun _ -> "<exprs+patterns>")
    QCheck.Gen.(
      triple (Gen_util.expr_gen nvars) (Gen_util.expr_gen nvars)
        (list_size (int_bound 4) (array_size (return nvars) bool)))

let prefilter_never_blocks_provable_replacements =
  QCheck.Test.make ~name:"dc pre-filter is sound and never loses replacements" ~count:40 qc_dc
    (fun (e0, e1, patterns) ->
      let run with_bank =
        let aig = Aig.create () in
        let f0 = build aig e0 and f1 = build aig e1 in
        let checker = Cnf.Checker.create aig in
        let prng = Util.Prng.create 23 in
        let bank =
          if not with_bank then None
          else begin
            let b = Sweep.Pattern_bank.create () in
            List.iter
              (fun p -> Sweep.Pattern_bank.add b (List.init nvars (fun v -> (v, p.(v)))))
              patterns;
            Some b
          end
        in
        let g, report = Synth.Dontcare.disjunction ?bank aig checker ~prng f0 f1 in
        let plain = Aig.or_ aig f0 f1 in
        ( semantically_equal aig nvars g plain,
          report.Synth.Dontcare.const_replacements + report.Synth.Dontcare.merge_replacements )
      in
      let ok_fresh, repl_fresh = run false in
      let ok_banked, repl_banked = run true in
      ok_fresh && ok_banked && repl_banked >= repl_fresh)

let () =
  Alcotest.run "sim_bank"
    [
      ( "signatures",
        [
          Alcotest.test_case "refinement lane 0 matches eval" `Quick test_refine_lane0_oracle;
          Alcotest.test_case "accessors and unknown literals" `Quick test_accessors;
          Alcotest.test_case "class shape and ordering" `Quick test_classes_ordering;
          Alcotest.test_case "classes are the exact induced partition" `Quick
            test_classes_exact_partition;
          QCheck_alcotest.to_alcotest signatures_never_separate_equals;
          QCheck_alcotest.to_alcotest distinct_signatures_mean_distinct_functions;
        ] );
      ( "pattern bank",
        [
          Alcotest.test_case "add/word roundtrip" `Quick test_bank_roundtrip;
          Alcotest.test_case "ring overwrite at capacity" `Quick test_bank_ring_overwrite;
          Alcotest.test_case "recycled pattern splits a class" `Quick
            test_recycled_pattern_splits_class;
          Alcotest.test_case "persistence across sweeps" `Quick test_bank_persists_across_sweeps;
        ] );
      ( "solver models",
        [ Alcotest.test_case "model_var_opt distinguishes unknowns" `Quick test_model_var_opt ] );
      ( "dontcare pre-filter",
        [ QCheck_alcotest.to_alcotest prefilter_never_blocks_provable_replacements ] );
    ]
