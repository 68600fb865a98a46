(* Multicore-layer row: portfolio racing vs every fixed engine and the
   sharded fuzz campaign.

   Usage:
     dune exec bench/bench.exe -- par
     dune exec bench/bench.exe -- --quick par
     dune exec bench/bench.exe -- --jobs=4 --timeout=2 par
     dune exec bench/bench.exe -- par-probe
                  -- engine-vs-family grid over the whole registry, for
                     choosing adversarial portfolio family sets
     dune exec bench/bench.exe -- --stats-dir=DIR par
                  -- writes DIR/BENCH_par.json, gateable by
                     cbq-bench-regress against bench/baseline-par

   The portfolio row scores engines PAR-style: an engine is charged its
   wall time when it decides a family and the full governor budget when
   it does not (undecided = useless to a verification flow, however
   fast it gave up). The family set is chosen so that EVERY fixed
   engine fails or stalls somewhere, while each family falls quickly to
   at least one engine — the complementarity the racing portfolio
   exploits. The headline metric is
       speedup = best fixed engine's charged total / portfolio total
   and `parbench.portfolio.win15` (1 when speedup >= 1.5x) is a gated
   deterministic counter: the margin is by construction a multiple of
   the governor budget, so runner speed cannot flip it. Raw seconds
   live in spans, which the regress gate ignores.

   The row fails (the harness exits non-zero) when any portfolio verdict
   disagrees with the registry oracle or when the sharded campaign
   diverges from the sequential one — so CI can use it as a correctness
   smoke as well as a perf gate. *)

open Harness

let c name = Obs.counter ("parbench." ^ name)
let span name dt = Obs.add_seconds (Obs.span ("parbench." ^ name)) dt

let suite_config = { Baselines.Suite.default_config with make_trace = false }
let engines () = Baselines.Suite.engines ~config:suite_config ()

let decided = function
  | Baselines.Verdict.Proved | Baselines.Verdict.Falsified _ -> true
  | Baselines.Verdict.Undecided _ -> false

(* one governed fixed-engine run on its own clone; charged PAR-style *)
let fixed_run o (e : Baselines.Suite.engine) m =
  let limits = Util.Limits.create ~timeout:o.timeout () in
  let (v, _), dt = Util.Stopwatch.time (fun () -> e.run ~limits (Par.Clone.model m)) in
  (v, dt, if decided v then dt else o.timeout)

(* ---------------- probe: engine-vs-family grid ---------------- *)

let probe_families =
  [
    ("counter", Some 5); ("counter", Some 6); ("counter-even", Some 8); ("gray", Some 4);
    ("twin-shift", Some 8); ("shift-pattern", Some 8); ("lfsr", Some 6); ("arbiter", Some 6);
    ("traffic", None); ("fifo", Some 3); ("fifo-buggy", Some 3); ("accumulator", Some 5);
    ("peterson", None); ("johnson", Some 6); ("tmr", Some 3);
    ("mult-cmp", Some 10); ("mult-cmp", Some 12); ("mult-bug", Some 12);
  ]

let run_probe o =
  line "engine-vs-family grid (budget %.1fs, charged = wall or budget when undecided)@." o.timeout;
  List.iter
    (fun (name, param) ->
      let m, _ = Circuits.Registry.build name param in
      line "@.%s:@." (Netlist.Model.name m);
      List.iter
        (fun (e : Baselines.Suite.engine) ->
          let v, dt, charged = fixed_run o e m in
          line "  %-10s %-18s %7.3fs charged %7.3fs@." e.name
            (Format.asprintf "%a" Baselines.Verdict.pp v)
            dt charged)
        (engines ()))
    probe_families

(* ---------------- portfolio row ---------------- *)

(* the adversarial set (see --probe): each family is decided in
   milliseconds by at least one first-wave engine, and every fixed
   engine burns its whole budget on at least one of them — the
   63-step-deep `counter` counterexample stalls cbq-bwd, BMC at bound
   30, induction and both enumeration engines; `accumulator` stalls both
   CBQ engines and the cofactor enumerator; `counter-even` at 8 bits
   stalls cbq-fwd (deadline) and BMC (inconclusive bound) while the
   other engines prove it instantly; and `mult-bug`'s multiplier cone
   drowns both BDD engines while BMC falsifies it in one query *)
let portfolio_families () =
  [
    ("counter", Some 6);
    ("counter-even", Some 8);
    ("accumulator", Some 5);
    ("mult-bug", Some 12);
  ]

(* racing order, not preference order: the bounded SAT engines and the
   BDD engines are each either decided or governor-tripped within
   milliseconds-to-one-budget, so they share the first scheduling wave;
   the open-ended traversal engines follow as slots free up. On a
   single-core box this keeps the per-family winner's dilution (the
   race time-slices [jobs] entrants) to the cheap wave. *)
let racing_order =
  [ "bmc"; "induction"; "bdd-bwd"; "bdd-fwd"; "cbq-bwd"; "cbq-fwd"; "cofactor"; "hybrid" ]

let run_portfolio o =
  line "@.=== portfolio racing vs fixed engines (jobs=%d, budget %.1fs/run) ===@." o.jobs o.timeout;
  let families = portfolio_families () in
  let es = engines () in
  let totals = Hashtbl.create 16 in
  List.iter (fun (e : Baselines.Suite.engine) -> Hashtbl.replace totals e.name 0.0) es;
  line "%-14s %-12s %-16s %9s@." "family" "engine" "verdict" "charged(s)";
  let portfolio_total = ref 0.0 in
  List.iter
    (fun (name, param) ->
      let m, status = Circuits.Registry.build name param in
      let fname = Netlist.Model.name m in
      List.iter
        (fun (e : Baselines.Suite.engine) ->
          let v, _, charged = fixed_run o e m in
          Hashtbl.replace totals e.name (Hashtbl.find totals e.name +. charged);
          line "%-14s %-12s %-16s %9.3f@." fname e.name
            (Format.asprintf "%a" Baselines.Verdict.pp v)
            charged)
        es;
      let r =
        Baselines.Portfolio.run ~config:suite_config ~engines:racing_order ~jobs:o.jobs
          ~budget:{ Util.Limits.no_budget with timeout = Some o.timeout }
          m
      in
      let charged = if decided r.Baselines.Portfolio.verdict then r.Baselines.Portfolio.seconds else o.timeout in
      portfolio_total := !portfolio_total +. charged;
      span ("portfolio." ^ fname ^ ".time") r.Baselines.Portfolio.seconds;
      line "%-14s %-12s %-16s %9.3f  (winner %s)@." fname "PORTFOLIO"
        (Format.asprintf "%a" Baselines.Verdict.pp r.Baselines.Portfolio.verdict)
        charged
        (match r.Baselines.Portfolio.winner with Some w -> w | None -> "-");
      (* the race must reproduce the registry oracle, or the speedup is
         meaningless *)
      (match (r.Baselines.Portfolio.verdict, status) with
      | Baselines.Verdict.Proved, Circuits.Registry.Safe -> Obs.incr (c "portfolio.decided")
      | Baselines.Verdict.Falsified d, Circuits.Registry.Unsafe d' when d = d' ->
        Obs.incr (c "portfolio.decided")
      | v, _ ->
        fail "portfolio on %s: %a disagrees with the registry oracle" fname
          Baselines.Verdict.pp v);
      Obs.incr (c "portfolio.families"))
    families;
  let best_name, best_fixed =
    Hashtbl.fold
      (fun name t ((_, bt) as best) -> if t < bt then (name, t) else best)
      totals ("-", infinity)
  in
  let speedup = best_fixed /. !portfolio_total in
  span "portfolio.time" !portfolio_total;
  span "portfolio.best_fixed_time" best_fixed;
  if speedup >= 1.5 then Obs.incr (c "portfolio.win15")
  else fail "portfolio speedup %.2fx < 1.5x over %s" speedup best_name;
  line "@.%-24s %9s@." "fixed engine" "total(s)";
  List.iter
    (fun (e : Baselines.Suite.engine) ->
      line "%-24s %9.3f@." e.name (Hashtbl.find totals e.name))
    es;
  line "%-24s %9.3f@." "portfolio" !portfolio_total;
  line "@.speedup vs best fixed engine (%s): %.2fx %s@." best_name speedup
    (if speedup >= 1.5 then "(>= 1.5x: PASS)" else "(< 1.5x: FAIL)")

(* ---------------- sharded fuzz row ---------------- *)

let run_fuzz o =
  let count = if o.quick then 60 else 120 in
  line "@.=== sharded fuzz campaign (seed 42, %d models, jobs 1 vs %d) ===@." count o.jobs;
  let campaign j =
    Sweep.Fault.with_injection (fun () ->
        Util.Stopwatch.time (fun () ->
            Fuzz.Runner.run ~shrink:false ~jobs:j ~seed:42 ~count ()))
  in
  let seq, seq_dt = campaign 1 in
  let par, par_dt = campaign o.jobs in
  let seeds (r : Fuzz.Runner.result) =
    List.map (fun f -> f.Fuzz.Runner.seed) r.Fuzz.Runner.failures
  in
  line "%-10s %9s %9s@." "mode" "failures" "time(s)";
  line "%-10s %9d %9.3f@." "seq" (List.length (seeds seq)) seq_dt;
  line "%-10s %9d %9.3f@." (Printf.sprintf "par(%d)" o.jobs) (List.length (seeds par)) par_dt;
  Obs.add (c "fuzz.failures") (List.length (seeds par));
  span "fuzz.seq.time" seq_dt;
  span "fuzz.par.time" par_dt;
  if seeds seq = seeds par then Obs.incr (c "fuzz.match")
  else fail "sharded campaign diverged from the sequential one (jobs=%d)" o.jobs

let run o =
  line "=== multicore layer benchmark%s ===@." (if o.quick then " (quick)" else "");
  run_portfolio o;
  run_fuzz o

let row =
  suite_row "par"
    {
      file = "BENCH_par.json";
      tool = "par_bench";
      experiment = (fun o -> if o.quick then "par-quick" else "par");
    }
    run

let probe_row = { name = "par-probe"; default = (fun _ -> false); suite = None; run = run_probe }
