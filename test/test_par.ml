(* The multicore layer: pool sharding, frozen-model cloning,
   first-decisive-wins racing with cooperative cancellation, the
   portfolio engine's agreement with single-engine runs and parallel
   fuzz-campaign determinism.

   Everything here must hold on a single-core box: the contracts are
   about ordering, isolation and cancellation, not speed. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- pool ---------- *)

let test_run_shards_edge_cases () =
  (* one shard runs inline on the caller's domain *)
  let caller = Domain.self () in
  let seen = ref [] in
  Par.Pool.run_shards ~jobs:1 (fun w -> seen := (w, Domain.self () = caller) :: !seen);
  check bool "jobs=1 runs shard 0 inline" true (!seen = [ (0, true) ]);
  match Par.Pool.run_shards ~jobs:0 (fun _ -> ()) with
  | () -> Alcotest.fail "jobs=0 must be rejected"
  | exception Invalid_argument _ -> ()

exception Boom of int

let test_run_shards_reraises_after_all_finish () =
  (* shard 1 fails at once; shards 0 and 2 only finish well after that
     failure, and shard 2 fails too. The caller must see shard 1's
     exception (first by index), and only once every shard is done *)
  let jobs = 3 in
  let raised = Atomic.make false in
  let finished = Array.init jobs (fun _ -> Atomic.make false) in
  let linger () =
    while not (Atomic.get raised) do
      Domain.cpu_relax ()
    done;
    for _ = 1 to 200_000 do
      Domain.cpu_relax ()
    done
  in
  match
    Par.Pool.run_shards ~jobs (fun w ->
        match w with
        | 1 ->
          Atomic.set raised true;
          raise (Boom 1)
        | 2 ->
          linger ();
          Atomic.set finished.(2) true;
          raise (Boom 2)
        | _ ->
          linger ();
          Atomic.set finished.(w) true)
  with
  | () -> Alcotest.fail "expected the shard exception to surface"
  | exception Boom w ->
    check int "first failing shard by index wins" 1 w;
    check bool "shard 0 finished first" true (Atomic.get finished.(0));
    check bool "shard 2 finished first" true (Atomic.get finished.(2))

let test_run_shards_covers_all_indices () =
  let n = 97 and jobs = 4 in
  let hits = Array.make n 0 in
  (* each index belongs to exactly one shard, so the unsynchronized
     writes are disjoint *)
  Par.Pool.run_shards ~jobs (fun w ->
      let i = ref w in
      while !i < n do
        hits.(!i) <- hits.(!i) + 1;
        i := !i + jobs
      done);
  Array.iteri (fun i h -> check int (Printf.sprintf "index %d hit once" i) 1 h) hits

(* ---------- clone ---------- *)

let qc_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let clone_is_equal_and_independent =
  QCheck.Test.make ~name:"clones are structurally equal and manager-independent" ~count:60
    qc_seed (fun seed ->
      let m = Fuzz.Gen.model ~seed () in
      let original_bytes = Netlist.Aiger.write m in
      let c = Par.Clone.model m in
      (* the AIGER round-trip is byte-identical, so textual equality is
         structural equality: same node numbering, same variable indices *)
      let equal_before = Netlist.Aiger.write c = original_bytes in
      (* grow the clone's manager; the original must not move *)
      let caig = Netlist.Model.aig c in
      let nodes_before = Aig.num_nodes (Netlist.Model.aig m) in
      let x = Aig.var caig (Aig.num_vars caig) in
      ignore (Aig.and_ caig x c.Netlist.Model.property);
      equal_before
      && Netlist.Aiger.write m = original_bytes
      && Aig.num_nodes (Netlist.Model.aig m) = nodes_before)

let test_freeze_thaw_across_domains () =
  let m = Fuzz.Gen.model ~seed:42 () in
  let frozen = Par.Clone.freeze m in
  let bytes = Netlist.Aiger.write m in
  let jobs = 4 in
  let thawed = Array.make jobs "" in
  Par.Pool.run_shards ~jobs (fun w -> thawed.(w) <- Netlist.Aiger.write (Par.Clone.thaw frozen));
  Array.iter (fun b -> check bool "thawed on a worker domain, still identical" true (b = bytes)) thawed

(* ---------- race ---------- *)

let governed_entrant name limits result ~decisive:_ =
  (* spin until the governor trips, then return an anytime value — the
     shape of a cancelled engine *)
  {
    Par.Race.name;
    limits;
    run =
      (fun () ->
        while Util.Limits.check limits = None do
          Domain.cpu_relax ()
        done;
        result);
  }

let test_race_first_decisive_wins_and_cancels () =
  let fast_limits = Util.Limits.create () in
  let slow_limits = Util.Limits.create () in
  let entrants =
    [
      governed_entrant "spinner" slow_limits "stopped" ~decisive:false;
      { Par.Race.name = "fast"; limits = fast_limits; run = (fun () -> "decided") };
    ]
  in
  let outcome = Par.Race.run ~jobs:2 ~decisive:(fun v -> v = "decided") entrants in
  (match outcome.Par.Race.winner with
  | Some ("fast", "decided") -> ()
  | Some (name, v) -> Alcotest.fail (Printf.sprintf "wrong winner %s/%s" name v)
  | None -> Alcotest.fail "no winner");
  (* the spinner only terminates if the race cancelled its governor, so
     reaching this line at all proves the cancellation path; its anytime
     value must still be reported *)
  check bool "loser ran to its checkpoint" true
    (outcome.Par.Race.results.(0) = Par.Race.Finished "stopped");
  check bool "loser governor tripped as cancelled" true
    (Util.Limits.exhausted slow_limits = Some Util.Limits.Cancelled)

let test_race_crash_is_not_decisive () =
  let outcome =
    Par.Race.run ~jobs:1
      ~decisive:(fun _ -> true)
      [
        { Par.Race.name = "crasher"; limits = Util.Limits.create (); run = (fun () -> failwith "kaput") };
        { Par.Race.name = "worker"; limits = Util.Limits.create (); run = (fun () -> 7) };
      ]
  in
  (match outcome.Par.Race.winner with
  | Some ("worker", 7) -> ()
  | _ -> Alcotest.fail "the crash must not win the race");
  match outcome.Par.Race.results.(0) with
  | Par.Race.Crashed msg -> check bool "exception text kept" true (String.length msg > 0)
  | _ -> Alcotest.fail "crasher not reported as crashed"

let test_race_no_decisive_means_no_winner () =
  let outcome =
    Par.Race.run ~jobs:2
      ~decisive:(fun _ -> false)
      [
        { Par.Race.name = "a"; limits = Util.Limits.create (); run = (fun () -> 1) };
        { Par.Race.name = "b"; limits = Util.Limits.create (); run = (fun () -> 2) };
      ]
  in
  check bool "no winner" true (outcome.Par.Race.winner = None);
  check bool "everyone still ran" true
    (outcome.Par.Race.results = [| Par.Race.Finished 1; Par.Race.Finished 2 |])

(* ---------- portfolio vs sequential engines ---------- *)

let test_portfolio_agrees_with_sequential () =
  (* every decided sequential verdict must be compatible with the
     portfolio's decided verdict — racing changes who answers, never
     what is true of the model *)
  List.iter
    (fun (family, param) ->
      let model, status = Circuits.Registry.build family (Some param) in
      let r = Baselines.Portfolio.run ~jobs:2 model in
      (match (r.Baselines.Portfolio.verdict, status) with
      | Baselines.Verdict.Proved, Circuits.Registry.Safe -> ()
      | Baselines.Verdict.Falsified d, Circuits.Registry.Unsafe e ->
        check int (family ^ ": counterexample depth") e d
      | Baselines.Verdict.Undecided _, _ ->
        Alcotest.fail (family ^ ": portfolio undecided on a tiny model")
      | v, _ ->
        Alcotest.fail
          (Format.asprintf "%s: portfolio says %a, registry disagrees" family Baselines.Verdict.pp
             v));
      check bool (family ^ ": a winner is named") true (r.Baselines.Portfolio.winner <> None);
      List.iter
        (fun (e : Baselines.Suite.engine) ->
          let v, _ = e.run ~limits:(Util.Limits.create ()) (Par.Clone.model model) in
          check bool
            (Printf.sprintf "%s: %s compatible with portfolio" family e.name)
            true
            (Fuzz.Oracle.compatible v r.Baselines.Portfolio.verdict))
        (Baselines.Suite.engines ()))
    [ ("counter", 4); ("gray", 3) ]

(* ---------- parallel fuzz determinism ---------- *)

let campaign ~jobs =
  (* the injected sweeper fault gives the campaign real failures to
     compare; seed 42 yields several within the first 120 models *)
  Sweep.Fault.with_injection (fun () ->
      Fuzz.Runner.run ~shrink:false ~jobs ~seed:42 ~count:120 ())

let test_parallel_fuzz_matches_sequential () =
  let seq = campaign ~jobs:1 in
  let par = campaign ~jobs:3 in
  let seeds r = List.map (fun f -> f.Fuzz.Runner.seed) r.Fuzz.Runner.failures in
  let labels r =
    List.map (fun f -> Fuzz.Oracle.failure_label f.Fuzz.Runner.failure) r.Fuzz.Runner.failures
  in
  check bool "fault injection produced failures" true (seq.Fuzz.Runner.failures <> []);
  check bool "same failing seeds in the same order" true (seeds seq = seeds par);
  check bool "same failure classes" true (labels seq = labels par)

let test_fuzz_jobs_clamped_to_machine () =
  (* --jobs beyond the core count must not spawn a domain per job *)
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      ignore (Fuzz.Runner.run ~shrink:false ~jobs:8 ~seed:42 ~count:8 ());
      check bool "domains spawned <= recommended - 1" true
        (Obs.value_of "par.pool.domains" <= Domain.recommended_domain_count () - 1))

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "run_shards edge cases" `Quick test_run_shards_edge_cases;
          Alcotest.test_case "run_shards re-raises after all finish" `Quick
            test_run_shards_reraises_after_all_finish;
          Alcotest.test_case "run_shards covers all indices" `Quick
            test_run_shards_covers_all_indices;
        ] );
      ( "clone",
        [
          QCheck_alcotest.to_alcotest clone_is_equal_and_independent;
          Alcotest.test_case "freeze/thaw across domains" `Quick test_freeze_thaw_across_domains;
        ] );
      ( "race",
        [
          Alcotest.test_case "first decisive wins and cancels" `Quick
            test_race_first_decisive_wins_and_cancels;
          Alcotest.test_case "crash is not decisive" `Quick test_race_crash_is_not_decisive;
          Alcotest.test_case "no decisive, no winner" `Quick test_race_no_decisive_means_no_winner;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "agrees with sequential engines" `Slow
            test_portfolio_agrees_with_sequential;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "parallel campaign matches sequential" `Slow
            test_parallel_fuzz_matches_sequential;
          Alcotest.test_case "jobs clamped to the machine" `Quick test_fuzz_jobs_clamped_to_machine;
        ] );
    ]
