(* Quantification-backend row: partial quantification over the
   bad cones of registry families under a deliberately tight growth
   budget, once per backend (circuit / pqe / auto).

   The interesting metric is the abort count: a tight growth budget
   makes the circuit backend keep (abort) every variable whose merged
   cofactor disjunction still grows, while the PQE backend can collapse
   some of those same variables at the clause level — and the auto
   router, which retries the other backend whenever its first choice
   aborts, must therefore abort at most as often as either fixed
   backend. The row FAILS (the harness exits non-zero) unless the auto
   backend strictly reduces aborts vs circuit-only on at least two
   families, so the selector's reason to exist is re-proven on every
   run.

   Every gated metric is deterministic for a given build: fixed PRNG
   seeds, fixed models, no wall-clock-dependent budgets. Wall-clock goes
   to the quantbench.<family>.time spans, which the regress gate
   ignores.

   Usage:
     dune exec bench/bench.exe -- quantify
     dune exec bench/bench.exe -- --quick quantify
     dune exec bench/bench.exe -- --stats-dir=DIR quantify
                  -- writes DIR/BENCH_quantify.json, gateable by
                     cbq-bench-regress against bench/baseline-quantify *)

open Harness

(* the tight budget: any residual growth aborts the circuit backend, so
   only variables whose elimination genuinely collapses survive — the
   regime where the backends actually differ (the default budget decides
   almost everything under either backend, and the rows would gate
   nothing) *)
let strict config =
  {
    config with
    Cbq.Quantify.growth_limit = 1.0;
    growth_slack = 0;
    use_dontcare = false;
    use_rewrite = false;
    sweep = { Sweep.Sweeper.default with bdd_node_limit = 0; sat = None; sim_rounds = 1 };
  }

let backends = [ Cbq.Quantify.Circuit; Cbq.Quantify.Pqe; Cbq.Quantify.Auto ]

let row_counter family metric = Obs.counter (Printf.sprintf "quantbench.%s.%s" family metric)

(* one family x one backend: a fresh model instance per run, so backend
   runs cannot perturb each other through the shared AIG manager *)
let run_backend (name, param) backend =
  let model, _status = Circuits.Registry.build name param in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 2005 in
  (* the backward-step workload: the bad states pulled through one
     transition, i.e. the cone the preimage path hands to Quantify *)
  let bad = Cbq.Preimage.substitute model (Aig.not_ model.Netlist.Model.property) in
  let vars =
    List.filter
      (fun v -> Aig.depends_on aig bad v)
      (Netlist.Model.input_vars model
      @ List.map (fun l -> l.Netlist.Model.state_var) model.Netlist.Model.latches)
  in
  let config = strict { Cbq.Quantify.default with backend } in
  let r = Cbq.Quantify.all ~config aig checker ~prng bad ~vars in
  (List.length r.Cbq.Quantify.eliminated, List.length r.Cbq.Quantify.kept)

let run_family (name, param) =
  let family = match param with None -> name | Some p -> Printf.sprintf "%s%d" name p in
  let watch = Util.Stopwatch.start () in
  let per_backend =
    List.map
      (fun backend ->
        let eliminated, aborted = run_backend (name, param) backend in
        let bname = Cbq.Quantify.backend_name backend in
        Obs.add (row_counter family (bname ^ ".eliminated")) eliminated;
        Obs.add (row_counter family (bname ^ ".aborted")) aborted;
        (backend, eliminated, aborted))
      backends
  in
  let dt = Util.Stopwatch.elapsed watch in
  Obs.add_seconds (Obs.span (Printf.sprintf "quantbench.%s.time" family)) dt;
  let aborts b =
    let _, _, a = List.find (fun (b', _, _) -> b' = b) per_backend in
    a
  in
  let circuit = aborts Cbq.Quantify.Circuit in
  let pqe = aborts Cbq.Quantify.Pqe in
  let auto = aborts Cbq.Quantify.Auto in
  line "%-16s aborts: circuit=%2d pqe=%2d auto=%2d  %8.3fs@." family circuit pqe auto
    dt;
  (family, circuit, pqe, auto)

let run o =
  line "=== quantification backends under a tight growth budget%s ===@."
    (if o.quick then " (quick)" else "");
  let families =
    if o.quick then
      [ ("gray", Some 4); ("johnson", Some 4); ("lfsr", Some 4); ("fifo", Some 3) ]
    else
      [
        ("gray", Some 5);
        ("johnson", Some 6);
        ("lfsr", Some 6);
        ("fifo", Some 4);
        ("counter", Some 6);
        ("arbiter", Some 4);
        ("twin-shift", Some 4);
      ]
  in
  let rows = List.map run_family families in
  (* the auto ladder retries the other backend on abort, so per variable
     it can never abort where circuit succeeds *)
  List.iter
    (fun (family, circuit, _, auto) ->
      if auto > circuit then fail "%s: auto aborted %d > circuit %d" family auto circuit)
    rows;
  let improved = List.filter (fun (_, circuit, _, auto) -> auto < circuit) rows in
  line "auto < circuit on %d/%d families@." (List.length improved) (List.length rows);
  if List.length improved < 2 then
    fail "the auto selector must beat circuit-only on >= 2 families"

let row =
  suite_row "quantify"
    {
      file = "BENCH_quantify.json";
      tool = "quantify_bench";
      experiment =
        (fun o -> if o.quick then "quantify-backends-quick" else "quantify-backends");
    }
    run
