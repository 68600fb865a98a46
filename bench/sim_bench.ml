(* Simulation-throughput row: the packed bit-parallel engine in
   [Sweep.Sim] on the standard cone families. (That its classes are the
   exact partition its patterns induce is a tier-1 test in
   test/test_sim_bank.ml.)

   Usage:
     dune exec bench/bench.exe -- sim
     dune exec bench/bench.exe -- --quick sim
     dune exec bench/bench.exe -- --stats-dir=DIR sim
                  -- writes DIR/BENCH_sim.json, gateable by
                     cbq-bench-regress against the checked-in baseline
                     (bench/baseline-sim). All gated metrics are
                     deterministic (fixed seeds, no timing): counters
                     carry node/word/class counts; wall-clock goes to
                     spans, which the regress gate ignores unless
                     --time-threshold. *)

open Harness

let families o =
  let n = if o.quick then 2 else 4 in
  List.filteri
    (fun i _ -> i < n)
    [
      ("adder32", Circuits.Comb.adder_carry 32);
      ("mult12", Circuits.Comb.multiplier_bit 12);
      ("hwb16", Circuits.Comb.hwb 16);
      ("rand2k", Circuits.Comb.random_cone ~vars:24 ~gates:2000 ~seed:7);
    ]

let time_best ~repeats f =
  (* best-of-N: robust against scheduler noise without averaging bias *)
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    let r, dt = Util.Stopwatch.time f in
    result := Some r;
    if dt < !best then best := dt
  done;
  (Option.get !result, !best)

let run o =
  let rounds = if o.quick then 8 else 32 in
  let repeats = if o.quick then 2 else 3 in
  line "=== SIM: bit-parallel simulation throughput (rounds=%d) ===@." rounds;
  line "%-10s %8s %6s %10s@." "family" "nodes" "cls" "Mnp/s";
  List.iter
    (fun (name, (cone : Circuits.Comb.cone)) ->
      let (classes, nodes), dt =
        time_best ~repeats (fun () ->
            let prng = Util.Prng.create 11 in
            let sim =
              Sweep.Sim.create cone.Circuits.Comb.aig ~roots:[ cone.Circuits.Comb.root ] ~rounds
                ~prng
            in
            (List.length (Sweep.Sim.classes sim), List.length (Sweep.Sim.nodes sim)))
      in
      Obs.add_seconds (Obs.span (Printf.sprintf "simbench.%s.new" name)) dt;
      Obs.add (Obs.counter (Printf.sprintf "simbench.%s.nodes" name)) nodes;
      Obs.add (Obs.counter (Printf.sprintf "simbench.%s.words" name)) rounds;
      Obs.add (Obs.counter (Printf.sprintf "simbench.%s.classes" name)) classes;
      line "%-10s %8d %6d %10.1f@." name nodes classes
        (float_of_int (nodes * rounds * 64) /. dt /. 1e6))
    (families o)

let row =
  suite_row "sim"
    { file = "BENCH_sim.json"; tool = "sim_bench"; experiment = (fun _ -> "sim-throughput") }
    run
