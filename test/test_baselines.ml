(* Baseline-engine tests: every engine must agree with the family oracles,
   respect its resource limits, and produce replayable traces where it
   claims them. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let verdict_t =
  Alcotest.testable Baselines.Verdict.pp ( = )

let families =
  [
    ("counter", Some 3);
    ("counter-even", Some 4);
    ("twin-shift", Some 4);
    ("shift-pattern", Some 4);
    ("lfsr", Some 4);
    ("fifo", Some 2);
    ("fifo-buggy", Some 2);
    ("accumulator", Some 3);
    ("gray", Some 3);
    ("arbiter", Some 3);
    ("traffic", None);
    ("peterson", None);
  ]

let expect_verdict name (status : Circuits.Registry.status) (v : Baselines.Verdict.t) =
  match (status, v) with
  | Circuits.Registry.Safe, Baselines.Verdict.Proved -> ()
  | Circuits.Registry.Unsafe d, Baselines.Verdict.Falsified d' ->
    check int (name ^ " cex depth") d d'
  | _, v ->
    Alcotest.fail (Format.asprintf "%s: unexpected verdict %a" name Baselines.Verdict.pp v)

let test_verdict_helpers () =
  check bool "proved vs safe" true
    (Baselines.Verdict.agrees_with_oracle Baselines.Verdict.Proved ~safe:true ~depth:None);
  check bool "proved vs unsafe" false
    (Baselines.Verdict.agrees_with_oracle Baselines.Verdict.Proved ~safe:false ~depth:None);
  check bool "falsified depth match" true
    (Baselines.Verdict.agrees_with_oracle (Baselines.Verdict.Falsified 3) ~safe:false
       ~depth:(Some 3));
  check bool "falsified depth mismatch" false
    (Baselines.Verdict.agrees_with_oracle (Baselines.Verdict.Falsified 4) ~safe:false
       ~depth:(Some 3));
  check bool "undecided never wrong" true
    (Baselines.Verdict.agrees_with_oracle (Baselines.Verdict.Undecided "x") ~safe:true
       ~depth:None)

(* ---------- BDD engines ---------- *)

let test_bdd_backward_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Bdd_mc.backward model in
      expect_verdict ("bdd-bwd " ^ name) status r.Baselines.Bdd_mc.verdict)
    families

let test_bdd_forward_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Bdd_mc.forward model in
      expect_verdict ("bdd-fwd " ^ name) status r.Baselines.Bdd_mc.verdict)
    families

let test_bdd_node_limit () =
  (* a tiny quota must surface as Undecided, not a crash or wrong verdict *)
  let model, _ = Circuits.Registry.build "gray" (Some 5) in
  let r = Baselines.Bdd_mc.backward ~node_limit:50 model in
  check verdict_t "node limit reported" (Baselines.Verdict.Undecided "node limit")
    r.Baselines.Bdd_mc.verdict;
  check bool "peak within an order of the quota" true (r.Baselines.Bdd_mc.peak_nodes <= 100)

let test_bdd_iteration_profile () =
  let model, _ = Circuits.Registry.build "counter" (Some 3) in
  let r = Baselines.Bdd_mc.backward model in
  check int "iterations = depth" 7 (List.length r.Baselines.Bdd_mc.iterations);
  List.iter
    (fun it -> check bool "sizes recorded" true (it.Baselines.Bdd_mc.frontier_nodes >= 0))
    r.Baselines.Bdd_mc.iterations

(* ---------- BMC ---------- *)

let test_bmc_finds_cex () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      match status with
      | Circuits.Registry.Safe -> ()
      | Circuits.Registry.Unsafe d ->
        let r = Baselines.Bmc.run ~max_depth:(d + 5) model in
        expect_verdict ("bmc " ^ name) status r.Baselines.Bmc.verdict;
        (match r.Baselines.Bmc.trace with
        | Some t ->
          check bool (name ^ " trace replays") true (Cbq.Trace.check model t);
          check int (name ^ " trace length") d (Cbq.Trace.length t)
        | None -> Alcotest.fail (name ^ ": bmc should produce a trace")))
    families

let test_bmc_bound_respected () =
  let model, _ = Circuits.Registry.build "counter" (Some 4) in
  (* cex at 15; bound 5 must come back undecided *)
  let r = Baselines.Bmc.run ~max_depth:5 model in
  (match r.Baselines.Bmc.verdict with
  | Baselines.Verdict.Undecided _ -> ()
  | v -> Alcotest.fail (Format.asprintf "expected bound, got %a" Baselines.Verdict.pp v));
  check bool "no trace below the bound" true (r.Baselines.Bmc.trace = None)

let test_bmc_with_frontier () =
  let model, _ = Circuits.Registry.build "counter" (Some 3) in
  let aig = Netlist.Model.aig model in
  (* frontier = counter value 5 (101) *)
  let state_vars = Netlist.Model.state_vars model in
  let lits =
    List.mapi
      (fun i v ->
        let q = Aig.var aig v in
        if (5 lsr i) land 1 = 1 then q else Aig.not_ q)
      state_vars
  in
  let frontier = Aig.and_list aig lits in
  let r = Baselines.Bmc.run_with_frontier model ~frontier ~max_depth:10 in
  (match r.Baselines.Bmc.verdict with
  | Baselines.Verdict.Falsified d -> check int "value 5 reached at step 5" 5 d
  | v -> Alcotest.fail (Format.asprintf "expected falsified, got %a" Baselines.Verdict.pp v))

(* ---------- induction ---------- *)

let test_induction_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Induction.run ~max_k:30 model in
      expect_verdict ("induction " ^ name) status r.Baselines.Induction.verdict;
      match (status, r.Baselines.Induction.trace) with
      | Circuits.Registry.Unsafe _, Some t ->
        check bool (name ^ " trace replays") true (Cbq.Trace.check model t)
      | Circuits.Registry.Unsafe _, None -> Alcotest.fail (name ^ ": missing trace")
      | Circuits.Registry.Safe, _ -> ())
    families

let test_induction_k_zero_inductive () =
  (* the even counter's property is inductive at k = 0 *)
  let model, _ = Circuits.Registry.build "counter-even" (Some 4) in
  let r = Baselines.Induction.run model in
  check verdict_t "proved" Baselines.Verdict.Proved r.Baselines.Induction.verdict;
  check int "k = 0 suffices" 0 r.Baselines.Induction.k_used

let test_induction_needs_depth () =
  (* a deliberately non-0-inductive safe model: two latches, bit0 toggles,
     bit1 holds; property "state != 2". The unreachable state 3 satisfies
     the property but steps into state 2, so k = 0 fails; its only
     predecessor violates the property, so k = 1 with simple paths
     succeeds. *)
  let b = Netlist.Builder.create "toggle-hold" in
  let aig = Netlist.Builder.aig b in
  let q0 = Netlist.Builder.latch b ~init:false in
  let q1 = Netlist.Builder.latch b ~init:false in
  Netlist.Builder.connect b q0 (Aig.not_ q0);
  Netlist.Builder.connect b q1 q1;
  Netlist.Builder.set_property b (Aig.not_ (Aig.and_ aig q1 (Aig.not_ q0)));
  let model = Netlist.Builder.finish b in
  let r = Baselines.Induction.run ~max_k:10 model in
  check verdict_t "proved" Baselines.Verdict.Proved r.Baselines.Induction.verdict;
  check bool "k > 0 needed" true (r.Baselines.Induction.k_used > 0)

let test_induction_without_simple_path () =
  (* without simple-path constraints induction may fail to converge, but
     must never produce a wrong verdict *)
  let model, _ = Circuits.Registry.build "lfsr" (Some 3) in
  let r = Baselines.Induction.run ~max_k:8 ~simple_path:false model in
  match r.Baselines.Induction.verdict with
  | Baselines.Verdict.Proved | Baselines.Verdict.Undecided _ -> ()
  | Baselines.Verdict.Falsified _ -> Alcotest.fail "lfsr is safe"

(* ---------- cofactor pre-image ---------- *)

let test_cofactor_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Cofactor_preimage.run model in
      expect_verdict ("cofactor " ^ name) status r.Baselines.Cofactor_preimage.verdict)
    families

let test_cofactor_preimage_matches_cbq () =
  (* the enumerated pre-image and the circuit-quantified pre-image are the
     same set *)
  let model, _ = Circuits.Registry.build "fifo-buggy" (Some 2) in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 61 in
  let bad = Aig.not_ model.Netlist.Model.property in
  let cbq = Cbq.Preimage.compute model checker ~prng ~frontier:bad ~extra_vars:[] in
  check bool "cbq fully quantified" true (cbq.Cbq.Preimage.kept = []);
  let input_vars = Netlist.Model.input_vars model in
  let support =
    Aig.support aig (Cbq.Preimage.substitute model bad)
  in
  let quantify = List.filter (fun v -> List.mem v input_vars) support in
  match
    Baselines.Cofactor_preimage.preimage model checker ~frontier:bad ~quantify
      ~max_enumerations:1_000
  with
  | None -> Alcotest.fail "enumeration should finish"
  | Some (enumerated, stats) ->
    check bool "enumeration used solutions" true (stats.Baselines.Cofactor_preimage.enumerations > 0);
    (match Cnf.Checker.equal checker enumerated cbq.Cbq.Preimage.lit with
    | Cnf.Checker.Yes -> ()
    | Cnf.Checker.No | Cnf.Checker.Maybe -> Alcotest.fail "pre-images differ")

let test_cofactor_budget () =
  let model, _ = Circuits.Registry.build "arbiter" (Some 4) in
  let r = Baselines.Cofactor_preimage.run ~max_enumerations:1 model in
  match r.Baselines.Cofactor_preimage.verdict with
  | Baselines.Verdict.Undecided _ -> ()
  | Baselines.Verdict.Proved ->
    (* a 1-enumeration budget can only succeed if the bad set was empty *)
    check int "only possible with zero enumerations" 0
      r.Baselines.Cofactor_preimage.total_enumerations
  | Baselines.Verdict.Falsified _ -> Alcotest.fail "arbiter is safe"

(* ---------- hybrid ---------- *)

let test_hybrid_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Hybrid.run model in
      expect_verdict ("hybrid " ^ name) status r.Baselines.Hybrid.verdict)
    families

let test_hybrid_division_of_labour () =
  let model, _ = Circuits.Registry.build "arbiter" (Some 4) in
  let r = Baselines.Hybrid.run model in
  check verdict_t "proved" Baselines.Verdict.Proved r.Baselines.Hybrid.verdict;
  (* the iteration log partitions the inputs between CBQ and enumeration *)
  let n_inputs = 4 in
  List.iter
    (fun it ->
      check bool "partition within the input count" true
        (it.Baselines.Hybrid.eliminated_by_cbq + it.Baselines.Hybrid.enumerated <= n_inputs))
    r.Baselines.Hybrid.iterations

(* ---------- the engine table ---------- *)

let test_suite_alias () =
  check
    (Alcotest.list Alcotest.string)
    "canonical table, in order"
    [ "cbq-bwd"; "cbq-fwd"; "bdd-bwd"; "bdd-fwd"; "bmc"; "induction"; "cofactor"; "hybrid" ]
    Baselines.Suite.names;
  check bool "alias not listed" false (List.mem "cbq" Baselines.Suite.names);
  (match Baselines.Suite.find "cbq" with
  | Some e -> check Alcotest.string "cbq resolves to" "cbq-bwd" e.Baselines.Suite.name
  | None -> Alcotest.fail "cbq alias must resolve");
  check bool "unknown name" true (Baselines.Suite.find "warp-drive" = None);
  check bool "portfolio is not a table entry" true (Baselines.Suite.find "portfolio" = None)

(* the lone-engine bounds and the race/serve bounds differ on purpose:
   BMC reaches counter(5)'s depth-31 counterexample only under the
   former *)
let test_suite_bounds () =
  let bmc_on config =
    let model, _ = Circuits.Registry.build "counter" (Some 5) in
    let e = Option.get (Baselines.Suite.find ~config "bmc") in
    fst (e.Baselines.Suite.run ~limits:(Util.Limits.create ()) model)
  in
  check verdict_t "standalone bmc falsifies at 31" (Baselines.Verdict.Falsified 31)
    (bmc_on Baselines.Suite.standalone_config);
  check verdict_t "default bmc stops at bound 30" (Baselines.Verdict.Undecided "bound 30")
    (bmc_on Baselines.Suite.default_config)

(* [run] is [detail] without the printer: same verdict, same trace, and
   the printed report starts with the verdict *)
let test_suite_detail () =
  List.iter
    (fun (e : Baselines.Suite.engine) ->
      let fresh () = fst (Circuits.Registry.build "fifo-buggy" (Some 2)) in
      let v, t = e.run ~limits:(Util.Limits.create ()) (fresh ()) in
      let d = e.detail ~limits:(Util.Limits.create ()) (fresh ()) in
      check verdict_t (e.name ^ " verdict") v d.Baselines.Suite.verdict;
      check bool (e.name ^ " trace") (t <> None) (d.Baselines.Suite.trace <> None);
      let printed = Format.asprintf "%t" (d.Baselines.Suite.pp ~verbose:true) in
      check bool (e.name ^ " report line") true
        (String.length printed > 9 && String.sub printed 0 9 = "FALSIFIED"))
    (Baselines.Suite.engines ())

(* hybrid quantifies with the configured backend under its own tight
   growth budget: a PQE run keeps the verdict and goes through PQE *)
let test_suite_hybrid_backend () =
  let run backend =
    let config =
      { Baselines.Suite.default_config with quant = { Cbq.Quantify.default with backend } }
    in
    let e = Option.get (Baselines.Suite.find ~config "hybrid") in
    let model, _ = Circuits.Registry.build "gray" (Some 3) in
    Obs.reset ();
    Obs.set_enabled true;
    let v =
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled false)
        (fun () -> fst (e.Baselines.Suite.run ~limits:(Util.Limits.create ()) model))
    in
    let ticks = (Obs.value_of "quantify.backend.circuit", Obs.value_of "quantify.backend.pqe") in
    Obs.reset ();
    (v, ticks)
  in
  let v_circuit, (circuit, pqe) = run Cbq.Quantify.Circuit in
  check verdict_t "circuit: gray 3 proved" Baselines.Verdict.Proved v_circuit;
  check bool "circuit: circuit backend used" true (circuit > 0 && pqe = 0);
  let v_pqe, (circuit, pqe) = run Cbq.Quantify.Pqe in
  check verdict_t "pqe: same verdict" v_circuit v_pqe;
  check bool "pqe: pqe backend used" true (pqe > 0 && circuit = 0)

let () =
  Alcotest.run "baselines"
    [
      ("verdict", [ Alcotest.test_case "oracle agreement" `Quick test_verdict_helpers ]);
      ( "suite",
        [
          Alcotest.test_case "cbq alias" `Quick test_suite_alias;
          Alcotest.test_case "standalone vs default bounds" `Quick test_suite_bounds;
          Alcotest.test_case "detail agrees with run" `Quick test_suite_detail;
          Alcotest.test_case "hybrid honours the quantify backend" `Quick
            test_suite_hybrid_backend;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "backward vs oracles" `Slow test_bdd_backward_oracles;
          Alcotest.test_case "forward vs oracles" `Slow test_bdd_forward_oracles;
          Alcotest.test_case "node limit" `Quick test_bdd_node_limit;
          Alcotest.test_case "iteration profile" `Quick test_bdd_iteration_profile;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "finds counterexamples" `Slow test_bmc_finds_cex;
          Alcotest.test_case "respects the bound" `Quick test_bmc_bound_respected;
          Alcotest.test_case "arbitrary frontier targets" `Quick test_bmc_with_frontier;
        ] );
      ( "induction",
        [
          Alcotest.test_case "vs oracles" `Slow test_induction_oracles;
          Alcotest.test_case "k=0 inductive property" `Quick test_induction_k_zero_inductive;
          Alcotest.test_case "needs induction depth" `Quick test_induction_needs_depth;
          Alcotest.test_case "without simple path" `Quick test_induction_without_simple_path;
        ] );
      ( "cofactor",
        [
          Alcotest.test_case "vs oracles" `Slow test_cofactor_oracles;
          Alcotest.test_case "pre-image matches CBQ" `Quick test_cofactor_preimage_matches_cbq;
          Alcotest.test_case "enumeration budget" `Quick test_cofactor_budget;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "vs oracles" `Slow test_hybrid_oracles;
          Alcotest.test_case "division of labour" `Quick test_hybrid_division_of_labour;
        ] );
    ]
