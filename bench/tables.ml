(* The paper's evaluation tables as bench rows (see DESIGN.md §4 and
   EXPERIMENTS.md), run by the bench harness (harness.ml):

     T1  quantification size vs. optimization level
     T2  merge-phase ablation (+ shared vs fresh clause database)
     T3  forward vs backward SAT merging
     T4  traversal-engine comparison
     T5  partial quantification as SAT preprocessing
     T6  don't-care optimization ablation
     F1  traversal size profile (AIG frontier vs BDD nodes)
     F2  size-vs-quantified-variables profile
     T7  forward CBQ vs forward BDD
     T8  stand-alone CEC scaling
     A1  traversal-option ablation
     A2  sequential sweeping as preprocessing
     B1  block vs sequential quantification
     MICRO  Bechamel micro-benchmarks, one per table

   Usage (every flag: harness.ml):
     dune exec bench/bench.exe                  -- all tables + MICRO
     dune exec bench/bench.exe -- --quick T1 F2 -- selected tables, smaller
     dune exec bench/bench.exe -- --stats-dir=reports --row-timeout=5 T4
                                -- one JSON run report per experiment, a
                                   fresh 5s governor per engine run
*)

open Harness

(* With --row-timeout=SEC every engine invocation of the comparison
   tables runs under its own fresh wall-clock governor, so a single
   blown-up row degrades to UNDECIDED instead of stalling the whole
   harness. Each call gets a new governor: exhaustion is sticky and must
   not leak across rows. *)
let row_limits o =
  match o.row_timeout with
  | None -> Util.Limits.unlimited
  | Some sec -> Util.Limits.create ~timeout:sec ()

let header id title =
  line "@.=== %s: %s ===@." id title

(* ---------------------------------------------------------------- *)
(* shared machinery                                                  *)
(* ---------------------------------------------------------------- *)

type quant_level = { level_name : string; config : Cbq.Quantify.config }

let quant_levels =
  [
    { level_name = "shannon"; config = Cbq.Quantify.naive_config };
    {
      level_name = "+sim/bdd";
      config =
        {
          Cbq.Quantify.naive_config with
          sweep = { Sweep.Sweeper.default with sat = None };
          growth_limit = infinity;
        };
    };
    {
      level_name = "+sat";
      config =
        { Cbq.Quantify.naive_config with sweep = Sweep.Sweeper.default; growth_limit = infinity };
    };
    {
      level_name = "+dc";
      config =
        {
          Cbq.Quantify.default with
          dontcare = { Synth.Dontcare.default with odc_max_tries = 0 };
          use_rewrite = false;
          growth_limit = infinity;
        };
    };
    { level_name = "+rw/full"; config = { Cbq.Quantify.default with growth_limit = infinity } };
  ]

let quantify_with config (cone : Circuits.Comb.cone) k =
  let aig = cone.Circuits.Comb.aig in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 11 in
  let vars = List.filteri (fun i _ -> i < k) cone.Circuits.Comb.vars in
  let r, dt =
    Util.Stopwatch.time (fun () ->
        Cbq.Quantify.all ~config aig checker ~prng cone.Circuits.Comb.root ~vars)
  in
  (Aig.size aig r.Cbq.Quantify.lit, dt, r)

(* bounded BDD size of a literal: the canonical-representation yardstick *)
let bdd_size_of aig lit ~limit =
  let man = Bdd.create () in
  let memo : (int, Bdd.node) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace memo 0 Bdd.zero;
  let build () =
    List.iter
      (fun n ->
        let f0, f1 = Aig.fanins aig n in
        let value l =
          let m = Aig.node_of_lit l in
          let b =
            match Hashtbl.find_opt memo m with
            | Some b -> b
            | None ->
              let b = Bdd.var_node man (Option.get (Aig.var_of_lit aig (Aig.lit_of_node m))) in
              Hashtbl.replace memo m b;
              b
          in
          if Aig.is_complemented l then Bdd.not_ man b else b
        in
        Hashtbl.replace memo n (Bdd.and_ man (value f0) (value f1)))
      (Aig.cone aig [ lit ]);
    let n = Aig.node_of_lit lit in
    let b =
      match Hashtbl.find_opt memo n with
      | Some b -> b
      | None -> (
        match Aig.var_of_lit aig (Aig.lit_of_node n) with
        | Some v -> Bdd.var_node man v
        | None -> Bdd.zero)
    in
    Bdd.size man (if Aig.is_complemented lit then Bdd.not_ man b else b)
  in
  match Bdd.with_limit man ~max_nodes:limit build with
  | Ok s -> Printf.sprintf "%d" s
  | Error `Node_limit -> Printf.sprintf ">%d" limit

let t1_cones o =
  if o.quick then
    [ Circuits.Comb.multiplier_bit 4; Circuits.Comb.hwb 6; Circuits.Comb.adder_carry 5 ]
  else
    [
      Circuits.Comb.multiplier_bit 5;
      Circuits.Comb.multiplier_bit 6;
      Circuits.Comb.hwb 8;
      Circuits.Comb.adder_carry 8;
      Circuits.Comb.majority 7;
      Circuits.Comb.random_cone ~vars:8 ~gates:64 ~seed:7;
    ]

(* ---------------------------------------------------------------- *)
(* T1: quantification size vs optimization level                     *)
(* ---------------------------------------------------------------- *)

let t1 o =
  header "T1" "result size after quantifying k variables, per optimization level";
  line "%-10s %5s %6s | %s | %8s@." "cone" "|F|" "k"
    (String.concat " " (List.map (fun l -> Printf.sprintf "%8s" l.level_name) quant_levels))
    "bdd(res)";
  List.iter
    (fun (cone : Circuits.Comb.cone) ->
      with_report o ("t1-" ^ cone.Circuits.Comb.name) @@ fun () ->
      let aig = cone.Circuits.Comb.aig in
      let base_size = Aig.size aig cone.Circuits.Comb.root in
      let nv = List.length cone.Circuits.Comb.vars in
      let ks = List.filter (fun k -> k <= nv / 2) [ 1; 2; 4 ] in
      List.iter
        (fun k ->
          let sizes =
            List.map (fun l -> let s, _, _ = quantify_with l.config cone k in s) quant_levels
          in
          let full_size, _, full = quantify_with (List.nth quant_levels 4).config cone k in
          ignore full_size;
          let bddcol = bdd_size_of aig full.Cbq.Quantify.lit ~limit:20_000 in
          line "%-10s %5d %6d | %s | %8s@." cone.Circuits.Comb.name base_size k
            (String.concat " " (List.map (Printf.sprintf "%8d") sizes))
            bddcol)
        ks)
    (t1_cones o)

(* ---------------------------------------------------------------- *)
(* T2: merge-phase ablation                                          *)
(* ---------------------------------------------------------------- *)

let cofactor_pair (cone : Circuits.Comb.cone) =
  let aig = cone.Circuits.Comb.aig in
  let v = List.hd cone.Circuits.Comb.vars in
  let f0 = Aig.cofactor aig cone.Circuits.Comb.root ~v ~phase:false in
  let f1 = Aig.cofactor aig cone.Circuits.Comb.root ~v ~phase:true in
  (aig, f0, f1)

let t2_stage name config aig f0 f1 =
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 17 in
  let (_, report), dt =
    Util.Stopwatch.time (fun () ->
        Sweep.Sweeper.run ~config aig checker ~prng ~roots:[ f0; f1 ])
  in
  (name, report, dt)

let t2 o =
  header "T2" "merge-phase ablation on quantification cofactor pairs";
  line "%-10s %-10s %7s %7s %7s %7s %8s@." "cone" "stage" "classes" "bdd-mrg" "sat-mrg"
    "total" "time(s)";
  List.iter
    (fun (cone : Circuits.Comb.cone) ->
      with_report o ("t2-" ^ cone.Circuits.Comb.name) @@ fun () ->
      let aig, f0, f1 = cofactor_pair cone in
      let stages =
        [
          t2_stage "hash" { Sweep.Sweeper.default with bdd_node_limit = 0; sat = None } aig f0 f1;
          t2_stage "+bdd" { Sweep.Sweeper.default with sat = None } aig f0 f1;
          t2_stage "+sat" { Sweep.Sweeper.default with bdd_node_limit = 0 } aig f0 f1;
          t2_stage "all" Sweep.Sweeper.default aig f0 f1;
        ]
      in
      List.iter
        (fun (name, (r : Sweep.Sweeper.report), dt) ->
          line "%-10s %-10s %7d %7d %7d %7d %8.4f@." cone.Circuits.Comb.name name
            r.Sweep.Sweeper.candidate_classes r.Sweep.Sweeper.bdd_merges
            r.Sweep.Sweeper.sat_merges r.Sweep.Sweeper.total_merges dt)
        stages)
    (t1_cones o);
  (* shared clause database vs a fresh solver per equivalence check *)
  line "@.shared clause DB vs fresh solver per check (the paper's factorized SAT-merge):@.";
  line "%-10s %-8s %9s %9s %9s@." "cone" "mode" "sat-calls" "conflicts" "time(s)";
  List.iter
    (fun (cone : Circuits.Comb.cone) ->
      with_report o ("t2-db-" ^ cone.Circuits.Comb.name) @@ fun () ->
      let aig, f0, f1 = cofactor_pair cone in
      (* shared: the normal sweeper *)
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 19 in
      let config = { Sweep.Sweeper.default with bdd_node_limit = 0 } in
      let (_, report), shared_dt =
        Util.Stopwatch.time (fun () ->
            Sweep.Sweeper.run ~config aig checker ~prng ~roots:[ f0; f1 ])
      in
      let shared_conflicts = (Cnf.Checker.solver_stats checker).Sat.Solver.conflicts in
      line "%-10s %-8s %9d %9d %9.4f@." cone.Circuits.Comb.name "shared"
        report.Sweep.Sweeper.sat_calls shared_conflicts shared_dt;
      (* fresh: verify the same candidate pairs, one new solver each *)
      let prng2 = Util.Prng.create 19 in
      let sim = Sweep.Sim.create aig ~roots:[ f0; f1 ] ~rounds:8 ~prng:prng2 in
      let fresh_calls = ref 0 in
      let fresh_conflicts = ref 0 in
      let (), fresh_dt =
        Util.Stopwatch.time (fun () ->
            List.iter
              (fun members ->
                match members with
                | [] | [ _ ] -> ()
                | repr :: rest ->
                  List.iter
                    (fun m ->
                      let c = Cnf.Checker.create aig in
                      incr fresh_calls;
                      ignore (Cnf.Checker.equal c repr m);
                      fresh_conflicts :=
                        !fresh_conflicts + (Cnf.Checker.solver_stats c).Sat.Solver.conflicts)
                    rest)
              (Sweep.Sim.classes sim))
      in
      line "%-10s %-8s %9d %9d %9.4f@." cone.Circuits.Comb.name "fresh" !fresh_calls
        !fresh_conflicts fresh_dt)
    (t1_cones o)

(* ---------------------------------------------------------------- *)
(* T3: forward vs backward SAT merging                               *)
(* ---------------------------------------------------------------- *)

let t3_workloads o =
  let n = if o.quick then 6 else 10 in
  (* similar cofactors: quantifying the select of a mux between two
     structurally different builds of the SAME function leaves two
     equivalent cofactors — the high-merge-probability case where the
     paper prefers backward processing (top-level successes subsume the
     whole cone) *)
  let similar () =
    let aig = Aig.create () in
    let xs = List.init n (Aig.var aig) in
    (* left-folded vs balanced-tree xor-majority mix of the same function *)
    let impl1 =
      List.fold_left (fun acc x -> Aig.or_ aig (Aig.and_ aig acc x) (Aig.and_ aig (Aig.not_ acc) (Aig.not_ x))) (List.hd xs) (List.tl xs)
    in
    let rec balanced = function
      | [] -> Aig.true_
      | [ x ] -> x
      | l ->
        let rec split k xs = if k = 0 then ([], xs) else match xs with [] -> ([], []) | x :: r -> let a, b = split (k - 1) r in (x :: a, b) in
        let a, b = split (List.length l / 2) l in
        Aig.iff_ aig (balanced a) (balanced b)
    in
    (* iff-chain equals the fold of iff in any association order *)
    let impl2 = balanced xs in
    ("similar", aig, impl1, impl2)
  in
  (* dissimilar cofactors: structurally parallel but functionally
     different cones — the low-merge case. Candidate classes survive the
     (deliberately thin) simulation and must be refuted by SAT, which is
     where forward processing with learning pays off. *)
  let dissimilar () =
    let aig = Aig.create () in
    let xs = List.init n (Aig.var aig) in
    let chain seed_lit leaves =
      List.fold_left
        (fun acc x ->
          Aig.or_ aig (Aig.and_ aig acc x) (Aig.and_ aig (Aig.not_ acc) (Aig.not_ x)))
        seed_lit leaves
    in
    let f = chain (List.hd xs) (List.tl xs) in
    (* same shape, almost the same function: the second chain's seed
       differs from x0 on a single input vector, so every node pairs up as
       a candidate that only SAT can refute — and one refuting model
       splits all the candidate pairs at once *)
    let seed_g = Aig.xor_ aig (List.hd xs) (Aig.and_list aig xs) in
    let g = chain seed_g (List.tl xs) in
    ("dissimilar", aig, f, g)
  in
  [ similar (); dissimilar () ]

let t3 o =
  header "T3" "forward vs backward processing of the SAT merge queue";
  line "%-12s %-9s %8s %8s %8s %9s %8s@." "workload" "order" "calls" "merges" "skipped"
    "refuted" "time(s)";
  List.iter
    (fun (name, aig, f0, f1) ->
      with_report o ("t3-" ^ name) @@ fun () ->
      List.iter
        (fun direction ->
          let checker = Cnf.Checker.create aig in
          let prng = Util.Prng.create 29 in
          (* a single simulation word keeps spurious candidates alive, so
             the SAT queue actually has work to order *)
          let config =
            { Sweep.Sweeper.default with sat = Some direction; bdd_node_limit = 0; sim_rounds = 1 }
          in
          let (_, r), dt =
            Util.Stopwatch.time (fun () ->
                Sweep.Sweeper.run ~config aig checker ~prng ~roots:[ f0; f1 ])
          in
          line "%-12s %-9s %8d %8d %8d %9d %8.4f@." name
            (match direction with Sweep.Sweeper.Forward -> "forward" | Sweep.Sweeper.Backward -> "backward")
            r.Sweep.Sweeper.sat_calls r.Sweep.Sweeper.sat_merges
            r.Sweep.Sweeper.sat_skipped_covered r.Sweep.Sweeper.sat_refuted dt)
        [ Sweep.Sweeper.Forward; Sweep.Sweeper.Backward ])
    (t3_workloads o)

(* ---------------------------------------------------------------- *)
(* T4: traversal-engine comparison                                   *)
(* ---------------------------------------------------------------- *)

let t4_models o =
  if o.quick then
    [ ("counter", Some 4); ("fifo-buggy", Some 2); ("arbiter", Some 4); ("gray", Some 3) ]
  else
    [
      ("counter", Some 5);
      ("counter-even", Some 8);
      ("twin-shift", Some 8);
      ("shift-pattern", Some 8);
      ("lfsr", Some 6);
      ("fifo", Some 3);
      ("fifo-buggy", Some 3);
      ("accumulator", Some 5);
      ("gray", Some 4);
      ("arbiter", Some 6);
      ("peterson", None);
    ]

type t4_row = { engine : string; verdict : string; iters : int; peak : int; secs : float }

let t4_run_engines o name param =
  let build () = fst (Circuits.Registry.build name param) in
  let rows = ref [] in
  let add engine verdict iters peak secs =
    rows := { engine; verdict; iters; peak; secs } :: !rows
  in
  let vs v = Format.asprintf "%a" Baselines.Verdict.pp v in
  (let m = build () in
   let r, dt = Util.Stopwatch.time (fun () -> Cbq.Reachability.run ~config:{ Cbq.Reachability.default with make_trace = false } ~limits:(row_limits o) m) in
   let v =
     match r.Cbq.Reachability.verdict with
     | Cbq.Reachability.Proved -> "PROVED"
     | Cbq.Reachability.Falsified { depth; _ } -> Printf.sprintf "FALSIFIED(%d)" depth
     | Cbq.Reachability.Out_of_budget { reason; _ } -> "UNDECIDED(" ^ reason ^ ")"
   in
   add "cbq" v (List.length r.Cbq.Reachability.iterations) r.Cbq.Reachability.peak_frontier dt);
  (let m = build () in
   let r, dt = Util.Stopwatch.time (fun () -> Baselines.Bdd_mc.backward ~node_limit:300_000 ~limits:(row_limits o) m) in
   add "bdd-bwd" (vs r.Baselines.Bdd_mc.verdict) (List.length r.Baselines.Bdd_mc.iterations)
     r.Baselines.Bdd_mc.peak_nodes dt);
  (let m = build () in
   let r, dt = Util.Stopwatch.time (fun () -> Baselines.Bdd_mc.forward ~node_limit:300_000 ~limits:(row_limits o) m) in
   add "bdd-fwd" (vs r.Baselines.Bdd_mc.verdict) (List.length r.Baselines.Bdd_mc.iterations)
     r.Baselines.Bdd_mc.peak_nodes dt);
  (let m = build () in
   let r, dt = Util.Stopwatch.time (fun () -> Baselines.Bmc.run ~max_depth:64 ~limits:(row_limits o) m) in
   add "bmc" (vs r.Baselines.Bmc.verdict) r.Baselines.Bmc.depth_reached
     r.Baselines.Bmc.solver.Sat.Solver.decisions dt);
  (let m = build () in
   let r, dt = Util.Stopwatch.time (fun () -> Baselines.Induction.run ~max_k:40 ~limits:(row_limits o) m) in
   add "induction" (vs r.Baselines.Induction.verdict) r.Baselines.Induction.k_used
     r.Baselines.Induction.solver.Sat.Solver.decisions dt);
  (let m = build () in
   let r, dt =
     Util.Stopwatch.time (fun () ->
         Baselines.Cofactor_preimage.run ~max_enumerations:50_000 ~limits:(row_limits o) m)
   in
   add "cofactor" (vs r.Baselines.Cofactor_preimage.verdict)
     (List.length r.Baselines.Cofactor_preimage.iterations)
     r.Baselines.Cofactor_preimage.total_enumerations dt);
  (let m = build () in
   let r, dt = Util.Stopwatch.time (fun () -> Baselines.Hybrid.run ~limits:(row_limits o) m) in
   add "hybrid" (vs r.Baselines.Hybrid.verdict) (List.length r.Baselines.Hybrid.iterations)
     r.Baselines.Hybrid.total_enumerations dt);
  List.rev !rows

let t4 o =
  header "T4" "traversal comparison (peak = AIG frontier / BDD nodes / SAT decisions / enums)";
  line "%-16s %-10s %-16s %6s %9s %9s@." "model" "engine" "verdict" "iters" "peak" "time(s)";
  List.iter
    (fun (name, param) ->
      let model, _ = Circuits.Registry.build name param in
      let model_name = Netlist.Model.name model in
      with_report o ("t4-" ^ model_name) @@ fun () ->
      List.iter
        (fun r ->
          line "%-16s %-10s %-16s %6d %9d %9.4f@." model_name r.engine r.verdict r.iters r.peak
            r.secs)
        (t4_run_engines o name param))
    (t4_models o)

(* ---------------------------------------------------------------- *)
(* T5: partial quantification as preprocessing                       *)
(* ---------------------------------------------------------------- *)

let t5 o =
  header "T5" "partial quantification: inputs eliminated vs growth budget, and downstream SAT work";
  line "%-12s %10s %10s %8s %9s@." "model" "budget" "eliminated" "kept" "|pre|";
  let models =
    if o.quick then [ ("arbiter", Some 4) ] else [ ("arbiter", Some 6); ("arbiter", Some 10); ("gray", Some 4) ]
  in
  let budgets = [ (0.5, "0.5x"); (1.0, "1.0x"); (2.0, "2.0x"); (infinity, "inf") ] in
  List.iter
    (fun (name, param) ->
      let model, _ = Circuits.Registry.build name param in
      with_report o ("t5-budget-" ^ Netlist.Model.name model) @@ fun () ->
      let aig = Netlist.Model.aig model in
      let bad = Aig.not_ model.Netlist.Model.property in
      List.iter
        (fun (limit, label) ->
          let checker = Cnf.Checker.create aig in
          let prng = Util.Prng.create 31 in
          let config = { Cbq.Quantify.default with growth_limit = limit; growth_slack = 8 } in
          let pre =
            Cbq.Preimage.compute ~config model checker ~prng ~frontier:bad ~extra_vars:[]
          in
          line "%-12s %10s %10d %8d %9d@." (Netlist.Model.name model) label
            (List.length pre.Cbq.Preimage.eliminated)
            (List.length pre.Cbq.Preimage.kept)
            (Aig.size aig pre.Cbq.Preimage.lit))
        budgets)
    models;
  (* a wide combinational cone shows the abort behaviour directly: cheap
     variables are eliminated, expensive ones kept for the SAT engine *)
  line "@.combinational budget sweep (random cone, quantifying half the inputs):@.";
  line "%-12s %10s %10s %8s %9s@." "cone" "budget" "eliminated" "kept" "size";
  let cone =
    if o.quick then Circuits.Comb.random_cone ~vars:8 ~gates:64 ~seed:47
    else Circuits.Comb.random_cone ~vars:12 ~gates:140 ~seed:47
  in
  let budgets_comb = [ (0.3, "0.3x"); (0.5, "0.5x"); (0.8, "0.8x"); (infinity, "inf") ] in
  (* quantify half the inputs so the result stays a non-trivial function
     and per-variable aborts are visible *)
  let half = List.filteri (fun i _ -> i mod 2 = 0) cone.Circuits.Comb.vars in
  with_report o "t5-comb-budget" (fun () ->
      List.iter
        (fun (limit, label) ->
          let aig = cone.Circuits.Comb.aig in
          let checker = Cnf.Checker.create aig in
          let prng = Util.Prng.create 41 in
          let config = { Cbq.Quantify.default with growth_limit = limit; growth_slack = 0 } in
          let r =
            Cbq.Quantify.all ~config aig checker ~prng cone.Circuits.Comb.root ~vars:half
          in
          line "%-12s %10s %10d %8d %9d@." cone.Circuits.Comb.name label
            (List.length r.Cbq.Quantify.eliminated)
            (List.length r.Cbq.Quantify.kept)
            (Aig.size aig r.Cbq.Quantify.lit))
        budgets_comb);
  (* BMC with structural input elimination in front of each SAT call *)
  line "@.BMC with CBQ preprocessing (paper section 4):@.";
  line "%-16s %-8s %10s %10s %12s@." "model" "mode" "decisions" "conflicts" "eliminated";
  List.iter
    (fun (name, param) ->
      let m1, _ = Circuits.Registry.build name param in
      with_report o ("t5-bmc-" ^ Netlist.Model.name m1) @@ fun () ->
      let r1 = Baselines.Bmc.run ~max_depth:40 m1 in
      line "%-16s %-8s %10d %10d %12d@." (Netlist.Model.name m1) "plain"
        r1.Baselines.Bmc.solver.Sat.Solver.decisions
        r1.Baselines.Bmc.solver.Sat.Solver.conflicts 0;
      let m2, _ = Circuits.Registry.build name param in
      let r2 = Baselines.Bmc.run ~max_depth:40 ~preprocess:true m2 in
      line "%-16s %-8s %10d %10d %12d@." "" "cbq-prep"
        r2.Baselines.Bmc.solver.Sat.Solver.decisions
        r2.Baselines.Bmc.solver.Sat.Solver.conflicts r2.Baselines.Bmc.inputs_eliminated)
    (if o.quick then [ ("counter", Some 4) ]
     else [ ("counter", Some 4); ("fifo-buggy", Some 3); ("accumulator", Some 4) ]);
  (* downstream effect: enumerations needed with vs without preprocessing *)
  line "@.downstream all-solution pre-image (enumerations = SAT solutions needed):@.";
  line "%-12s %-22s %14s@." "model" "mode" "enumerations";
  List.iter
    (fun (name, param) ->
      let model, _ = Circuits.Registry.build name param in
      with_report o ("t5-enum-" ^ Netlist.Model.name model) @@ fun () ->
      (let r = Baselines.Cofactor_preimage.run ~max_enumerations:100_000 model in
       line "%-12s %-22s %14d@." (Netlist.Model.name model) "pure enumeration"
         r.Baselines.Cofactor_preimage.total_enumerations);
      let model2, _ = Circuits.Registry.build name param in
      let r = Baselines.Hybrid.run model2 in
      line "%-12s %-22s %14d@."
        (Netlist.Model.name model2)
        "cbq-preprocessed (hybrid)" r.Baselines.Hybrid.total_enumerations)
    models

(* ---------------------------------------------------------------- *)
(* T6: don't-care optimization ablation                              *)
(* ---------------------------------------------------------------- *)

let t6 o =
  header "T6" "cross-cofactor don't-care optimization ablation";
  line "%-10s %-12s %6s %6s %6s %6s %8s@." "cone" "variant" "const" "merge" "odc" "size"
    "sat-calls";
  let variants =
    [
      ("plain-or", None);
      ("const-dc", Some { Synth.Dontcare.default with use_merges = false; odc_max_tries = 0 });
      ("merge-dc", Some { Synth.Dontcare.default with odc_max_tries = 0 });
      ("full+odc", Some Synth.Dontcare.default);
    ]
  in
  List.iter
    (fun (cone : Circuits.Comb.cone) ->
      with_report o ("t6-" ^ cone.Circuits.Comb.name) @@ fun () ->
      let aig, f0, f1 = cofactor_pair cone in
      (* pre-merge with the sweeper so T6 isolates the optimization phase *)
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 37 in
      let lits, _ = Sweep.Sweeper.sweep_lits aig checker ~prng [ f0; f1 ] in
      let f0, f1 = match lits with [ a; b ] -> (a, b) | _ -> assert false in
      List.iter
        (fun (vname, variant) ->
          match variant with
          | None ->
            line "%-10s %-12s %6d %6d %6d %6d %8d@." cone.Circuits.Comb.name vname 0 0 0
              (Aig.size aig (Aig.or_ aig f0 f1))
              0
          | Some config ->
            let _, r = Synth.Dontcare.disjunction ~config aig checker ~prng f0 f1 in
            line "%-10s %-12s %6d %6d %6d %6d %8d@." cone.Circuits.Comb.name vname
              r.Synth.Dontcare.const_replacements r.Synth.Dontcare.merge_replacements
              r.Synth.Dontcare.odc_replacements r.Synth.Dontcare.size_after
              r.Synth.Dontcare.sat_calls)
        variants)
    (t1_cones o)

(* ---------------------------------------------------------------- *)
(* F1: traversal size profile                                        *)
(* ---------------------------------------------------------------- *)

let f1 o =
  header "F1" "state-set representation growth (series over the arbiter family)";
  line "%-6s %14s %14s %14s@." "n" "cbq-peak-aig" "bdd-peak-node" "cbq/bdd-iters";
  let sizes = if o.quick then [ 2; 4; 6 ] else [ 2; 4; 6; 8; 10; 12 ] in
  List.iter
    (fun n ->
      with_report o (Printf.sprintf "f1-arbiter%d" n) @@ fun () ->
      let m1 = Circuits.Families.rr_arbiter ~n in
      let r1 = Cbq.Reachability.run ~config:{ Cbq.Reachability.default with make_trace = false } m1 in
      let m2 = Circuits.Families.rr_arbiter ~n in
      let r2 = Baselines.Bdd_mc.backward ~node_limit:1_000_000 m2 in
      line "%-6d %14d %14d %7d/%d@." n r1.Cbq.Reachability.peak_frontier
        r2.Baselines.Bdd_mc.peak_nodes
        (List.length r1.Cbq.Reachability.iterations)
        (List.length r2.Baselines.Bdd_mc.iterations))
    sizes;
  (* per-iteration series on one instance *)
  let n = if o.quick then 4 else 8 in
  line "@.per-iteration sizes, arbiter %d (iteration: aig-frontier bdd-frontier):@." n;
  with_report o (Printf.sprintf "f1-profile-arbiter%d" n) @@ fun () ->
  let m1 = Circuits.Families.rr_arbiter ~n in
  let r1 = Cbq.Reachability.run ~config:{ Cbq.Reachability.default with make_trace = false } m1 in
  let m2 = Circuits.Families.rr_arbiter ~n in
  let r2 = Baselines.Bdd_mc.backward m2 in
  List.iter2
    (fun (a : Cbq.Reachability.iteration) (b : Baselines.Bdd_mc.iteration) ->
      line "  iter %2d: %6d %6d@." a.Cbq.Reachability.index a.Cbq.Reachability.frontier_size
        b.Baselines.Bdd_mc.frontier_nodes)
    r1.Cbq.Reachability.iterations r2.Baselines.Bdd_mc.iterations

(* ---------------------------------------------------------------- *)
(* F2: quantification profile                                        *)
(* ---------------------------------------------------------------- *)

let f2 o =
  header "F2" "size after each quantified variable (multiplier cone, x-operand)";
  let n = if o.quick then 4 else 6 in
  let cone = Circuits.Comb.multiplier_bit n in
  let aig = cone.Circuits.Comb.aig in
  line "cone %s: %d AND nodes, quantifying the %d x-operand variables@."
    cone.Circuits.Comb.name
    (Aig.size aig cone.Circuits.Comb.root)
    n;
  line "%-10s %s@." "config" (String.concat " " (List.init n (fun i -> Printf.sprintf "k=%-5d" (i + 1))));
  List.iter
    (fun { level_name; config } ->
      with_report o ("f2-" ^ level_name) @@ fun () ->
      let sizes =
        List.init n (fun i ->
            let s, _, _ = quantify_with config cone (i + 1) in
            s)
      in
      line "%-10s %s@." level_name (String.concat " " (List.map (Printf.sprintf "%-7d") sizes)))
    [ List.nth quant_levels 0; List.nth quant_levels 2; List.nth quant_levels 4 ]

(* ---------------------------------------------------------------- *)
(* T7: forward traversal (relational image stresses the quantifier)  *)
(* ---------------------------------------------------------------- *)

let t7 o =
  header "T7" "forward CBQ (relational image) vs forward BDD";
  line "%-16s %-10s %-16s %6s %9s %9s@." "model" "engine" "verdict" "iters" "peak" "time(s)";
  let models =
    if o.quick then [ ("counter", Some 3); ("fifo-buggy", Some 2) ]
    else
      [
        ("counter", Some 4);
        ("counter-even", Some 5);
        ("shift-pattern", Some 6);
        ("fifo-buggy", Some 2);
        ("lfsr", Some 5);
        ("johnson", Some 5);
      ]
  in
  List.iter
    (fun (name, param) ->
      let m1, _ = Circuits.Registry.build name param in
      with_report o ("t7-" ^ Netlist.Model.name m1) @@ fun () ->
      let cfg = { Cbq.Reachability.default with make_trace = false } in
      let r1, dt1 =
        Util.Stopwatch.time (fun () -> Cbq.Forward.run ~config:cfg ~limits:(row_limits o) m1)
      in
      let v1 =
        match r1.Cbq.Reachability.verdict with
        | Cbq.Reachability.Proved -> "PROVED"
        | Cbq.Reachability.Falsified { depth; _ } -> Printf.sprintf "FALSIFIED(%d)" depth
        | Cbq.Reachability.Out_of_budget { reason; _ } -> "UNDECIDED(" ^ reason ^ ")"
      in
      line "%-16s %-10s %-16s %6d %9d %9.4f@." (Netlist.Model.name m1) "cbq-fwd" v1
        (List.length r1.Cbq.Reachability.iterations)
        r1.Cbq.Reachability.peak_frontier dt1;
      let m2, _ = Circuits.Registry.build name param in
      let r2, dt2 =
        Util.Stopwatch.time (fun () -> Baselines.Bdd_mc.forward ~limits:(row_limits o) m2)
      in
      line "%-16s %-10s %-16s %6d %9d %9.4f@." (Netlist.Model.name m2) "bdd-fwd"
        (Format.asprintf "%a" Baselines.Verdict.pp r2.Baselines.Bdd_mc.verdict)
        (List.length r2.Baselines.Bdd_mc.iterations)
        r2.Baselines.Bdd_mc.peak_nodes dt2)
    models

(* ---------------------------------------------------------------- *)
(* T8: stand-alone CEC scaling (merge engine as equivalence checker) *)
(* ---------------------------------------------------------------- *)

let t8 o =
  header "T8" "CEC: ripple-carry vs carry-lookahead carry-out";
  line "%-6s %-14s %-12s %9s %9s %9s@." "n" "verdict" "sweep-close" "merges" "sat-calls"
    "time(s)";
  let sizes = if o.quick then [ 4; 8 ] else [ 4; 8; 16; 24; 32 ] in
  List.iter
    (fun n ->
      with_report o (Printf.sprintf "t8-adder%d" n) @@ fun () ->
      let ripple = Circuits.Comb.adder_carry n in
      let cla = Circuits.Comb.carry_lookahead n in
      let r =
        Sweep.Cec.check_cones
          (ripple.Circuits.Comb.aig, ripple.Circuits.Comb.root, ripple.Circuits.Comb.vars)
          (cla.Circuits.Comb.aig, cla.Circuits.Comb.root, cla.Circuits.Comb.vars)
      in
      line "%-6d %-14s %-12b %9d %9d %9.4f@." n
        (Format.asprintf "%a" Sweep.Cec.pp_verdict r.Sweep.Cec.verdict
        |> fun s -> if String.length s > 14 then String.sub s 0 14 else s)
        r.Sweep.Cec.merged_to_same_node r.Sweep.Cec.sweep.Sweep.Sweeper.total_merges
        r.Sweep.Cec.sweep.Sweep.Sweeper.sat_calls r.Sweep.Cec.seconds)
    sizes

(* ---------------------------------------------------------------- *)
(* A1: traversal-option ablation                                     *)
(* ---------------------------------------------------------------- *)

let a1 o =
  header "A1" "traversal options: frontier sweeping and reached-set don't cares";
  line "%-16s %-22s %6s %9s %9s@." "model" "options" "iters" "peak" "time(s)";
  let models =
    if o.quick then [ ("fifo-buggy", Some 2); ("tmr", Some 3) ]
    else [ ("counter", Some 5); ("fifo-buggy", Some 3); ("tmr", Some 3); ("johnson", Some 6) ]
  in
  let variants =
    [
      ("plain", Cbq.Reachability.default);
      ("sweep-frontier", { Cbq.Reachability.default with sweep_frontier = true });
      ("reached-dc", { Cbq.Reachability.default with use_reached_dc = true });
      ( "both",
        { Cbq.Reachability.default with sweep_frontier = true; use_reached_dc = true } );
    ]
  in
  List.iter
    (fun (name, param) ->
      with_report o ("a1-" ^ name) @@ fun () ->
      List.iter
        (fun (label, config) ->
          let m, _ = Circuits.Registry.build name param in
          let config = { config with Cbq.Reachability.make_trace = false } in
          let r, dt = Util.Stopwatch.time (fun () -> Cbq.Reachability.run ~config m) in
          line "%-16s %-22s %6d %9d %9.4f@." (Netlist.Model.name m) label
            (List.length r.Cbq.Reachability.iterations)
            r.Cbq.Reachability.peak_frontier dt)
        variants)
    models

(* ---------------------------------------------------------------- *)
(* A2: sequential sweeping as preprocessing                          *)
(* ---------------------------------------------------------------- *)

let a2 o =
  header "A2" "register-correspondence sweeping before verification";
  line "%-14s %8s %8s %10s %12s %12s@." "model" "latches" "reduced" "sat-calls" "cbq-plain(s)"
    "cbq-swept(s)";
  let models =
    if o.quick then [ ("twin-shift", Some 6); ("tmr", Some 3) ]
    else [ ("twin-shift", Some 10); ("tmr", Some 4); ("peterson", None); ("gray", Some 4) ]
  in
  List.iter
    (fun (name, param) ->
      let m1, _ = Circuits.Registry.build name param in
      with_report o ("a2-" ^ Netlist.Model.name m1) @@ fun () ->
      let cfg = { Cbq.Reachability.default with make_trace = false } in
      let _, plain_dt = Util.Stopwatch.time (fun () -> Cbq.Reachability.run ~config:cfg m1) in
      let m2, _ = Circuits.Registry.build name param in
      let (reduced, report), sweep_dt = Util.Stopwatch.time (fun () -> Cbq.Seq_sweep.reduce m2) in
      let _, swept_dt =
        Util.Stopwatch.time (fun () -> Cbq.Reachability.run ~config:cfg reduced)
      in
      line "%-14s %8d %8d %10d %12.4f %12.4f@." (Netlist.Model.name m1)
        report.Cbq.Seq_sweep.latches_before report.Cbq.Seq_sweep.latches_after
        report.Cbq.Seq_sweep.sat_calls plain_dt (sweep_dt +. swept_dt))
    models

(* ---------------------------------------------------------------- *)
(* B1: block vs sequential quantification                            *)
(* ---------------------------------------------------------------- *)

let b1 o =
  header "B1" "quantifying variable pairs jointly (block) vs one at a time";
  line "%-10s %-6s %12s %12s@." "cone" "k" "sequential" "block";
  let cones = if o.quick then [ Circuits.Comb.multiplier_bit 4 ] else t1_cones o in
  List.iter
    (fun (cone : Circuits.Comb.cone) ->
      with_report o ("b1-" ^ cone.Circuits.Comb.name) @@ fun () ->
      let aig = cone.Circuits.Comb.aig in
      List.iter
        (fun k ->
          if k <= List.length cone.Circuits.Comb.vars then begin
            let vars = List.filteri (fun i _ -> i < k) cone.Circuits.Comb.vars in
            let config = { Cbq.Quantify.default with growth_limit = infinity } in
            let checker = Cnf.Checker.create aig in
            let prng = Util.Prng.create 121 in
            let seq = Cbq.Quantify.all ~config aig checker ~prng cone.Circuits.Comb.root ~vars in
            let checker2 = Cnf.Checker.create aig in
            let prng2 = Util.Prng.create 121 in
            let blocked =
              match
                Cbq.Quantify.block ~config aig checker2 ~prng:prng2 cone.Circuits.Comb.root
                  ~vars
              with
              | Ok l -> Aig.size aig l
              | Error l -> Aig.size aig l
            in
            line "%-10s %-6d %12d %12d@." cone.Circuits.Comb.name k
              (Aig.size aig seq.Cbq.Quantify.lit)
              blocked
          end)
        [ 2; 4 ])
    cones

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one Test per table                     *)
(* ---------------------------------------------------------------- *)

let micro _ =
  header "MICRO" "bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let t1_bench =
    Test.make ~name:"T1-quant-size"
      (Staged.stage (fun () ->
           let cone = Circuits.Comb.multiplier_bit 4 in
           ignore (quantify_with (List.nth quant_levels 4).config cone 2)))
  in
  let t2_bench =
    Test.make ~name:"T2-merge-ablation"
      (Staged.stage (fun () ->
           let cone = Circuits.Comb.multiplier_bit 4 in
           let aig, f0, f1 = cofactor_pair cone in
           let checker = Cnf.Checker.create aig in
           let prng = Util.Prng.create 3 in
           ignore (Sweep.Sweeper.run aig checker ~prng ~roots:[ f0; f1 ])))
  in
  let t3_bench =
    Test.make ~name:"T3-fwd-bwd"
      (Staged.stage (fun () ->
           let cone = Circuits.Comb.random_cone ~vars:6 ~gates:48 ~seed:23 in
           let aig, f0, f1 = cofactor_pair cone in
           let checker = Cnf.Checker.create aig in
           let prng = Util.Prng.create 5 in
           let config =
             { Sweep.Sweeper.default with sat = Some Sweep.Sweeper.Backward; bdd_node_limit = 0 }
           in
           ignore (Sweep.Sweeper.run ~config aig checker ~prng ~roots:[ f0; f1 ])))
  in
  let t4_bench =
    Test.make ~name:"T4-traversal"
      (Staged.stage (fun () ->
           let m = Circuits.Families.fifo ~buggy:true ~depth_log:2 () in
           ignore (Cbq.Reachability.run ~config:{ Cbq.Reachability.default with make_trace = false } m)))
  in
  let t5_bench =
    Test.make ~name:"T5-partial-quant"
      (Staged.stage (fun () ->
           let m = Circuits.Families.rr_arbiter ~n:4 in
           ignore (Baselines.Hybrid.run m)))
  in
  let t6_bench =
    Test.make ~name:"T6-dc-ablation"
      (Staged.stage (fun () ->
           let cone = Circuits.Comb.multiplier_bit 4 in
           let aig, f0, f1 = cofactor_pair cone in
           let checker = Cnf.Checker.create aig in
           let prng = Util.Prng.create 7 in
           ignore (Synth.Dontcare.disjunction aig checker ~prng f0 f1)))
  in
  let f1_bench =
    Test.make ~name:"F1-size-profile"
      (Staged.stage (fun () ->
           let m = Circuits.Families.rr_arbiter ~n:4 in
           ignore (Baselines.Bdd_mc.backward m)))
  in
  let f2_bench =
    Test.make ~name:"F2-quant-profile"
      (Staged.stage (fun () ->
           let m = Circuits.Families.counter ~bits:4 in
           let aig = Netlist.Model.aig m in
           let checker = Cnf.Checker.create aig in
           let prng = Util.Prng.create 9 in
           let bad = Aig.not_ m.Netlist.Model.property in
           ignore (Cbq.Preimage.compute m checker ~prng ~frontier:bad ~extra_vars:[])))
  in
  let t7_bench =
    Test.make ~name:"T7-forward"
      (Staged.stage (fun () ->
           let m = Circuits.Families.counter ~bits:3 in
           ignore
             (Cbq.Forward.run ~config:{ Cbq.Reachability.default with make_trace = false } m)))
  in
  let t8_bench =
    Test.make ~name:"T8-cec"
      (Staged.stage (fun () ->
           let ripple = Circuits.Comb.adder_carry 8 in
           let cla = Circuits.Comb.carry_lookahead 8 in
           ignore
             (Sweep.Cec.check_cones
                (ripple.Circuits.Comb.aig, ripple.Circuits.Comb.root, ripple.Circuits.Comb.vars)
                (cla.Circuits.Comb.aig, cla.Circuits.Comb.root, cla.Circuits.Comb.vars))))
  in
  let a1_bench =
    Test.make ~name:"A1-traversal-options"
      (Staged.stage (fun () ->
           let m = Circuits.Families.fifo ~buggy:true ~depth_log:2 () in
           let config =
             {
               Cbq.Reachability.default with
               sweep_frontier = true;
               use_reached_dc = true;
               make_trace = false;
             }
           in
           ignore (Cbq.Reachability.run ~config m)))
  in
  let tests =
    Test.make_grouped ~name:"cbq"
      [
        t1_bench; t2_bench; t3_bench; t4_bench; t5_bench; t6_bench; f1_bench; f2_bench;
        t7_bench; t8_bench; a1_bench;
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  let clock_label = Measure.label Toolkit.Instance.monotonic_clock in
  Hashtbl.iter
    (fun measure table ->
      if measure = clock_label then
        Hashtbl.iter
          (fun name (ols : Analyze.OLS.t) ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> line "  %-24s %12.0f ns/run@." name est
            | Some _ | None -> line "  %-24s (no estimate)@." name)
          table)
    results

let rows =
  List.map
    (fun (name, run) -> table name run)
    [
      ("T1", t1); ("T2", t2); ("T3", t3); ("T4", t4); ("T5", t5); ("T6", t6); ("F1", f1);
      ("F2", f2); ("T7", t7); ("T8", t8); ("A1", a1); ("A2", a2); ("B1", b1);
    ]
  @ [ table ~default:(fun o -> o.micro) "MICRO" micro ]
