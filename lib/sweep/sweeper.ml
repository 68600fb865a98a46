type direction = Forward | Backward

(* Merge-point provenance (docs/OBSERVABILITY.md): which technique found
   each merge. "hash" counts the strash hits of the underlying manager
   while the sweeper ran — structural merges the front-end discovers for
   free; "sim" counts candidate pairs simulation proposed (an upper bound
   the BDD/SAT stages settle). *)
let obs_runs = Obs.counter "sweep.runs"
let obs_span = Obs.span "sweep.run"
let obs_merge_hash = Obs.counter "sweep.merge.hash"
let obs_merge_sim = Obs.counter "sweep.merge.sim"
let obs_merge_bdd = Obs.counter "sweep.merge.bdd"
let obs_merge_sat = Obs.counter "sweep.merge.sat"
let obs_bdd_aborts = Obs.counter "sweep.bdd.aborts"
let obs_sat_calls = Obs.counter "sweep.sat.calls"
let obs_sat_refuted = Obs.counter "sweep.sat.refuted"
let obs_sat_unknown = Obs.counter "sweep.sat.unknown"
let obs_sat_skipped = Obs.counter "sweep.sat.skipped_covered"
let obs_forward_runs = Obs.counter "sweep.sat.forward_runs"
let obs_backward_runs = Obs.counter "sweep.sat.backward_runs"
let obs_refinements = Obs.counter "sweep.sim.refinements"
let obs_cone_size = Obs.histogram "sweep.cone_size"
let obs_bdd_stage_skips = Obs.counter "limits.bdd_stage_skips"
let obs_sat_stage_breaks = Obs.counter "limits.sat_stage_breaks"

type config = {
  sim_rounds : int;
  bdd_node_limit : int;
  sat : direction option;
  sat_conflict_limit : int option;
}

let default =
  {
    sim_rounds = 8;
    bdd_node_limit = 5_000;
    sat = Some Forward;
    sat_conflict_limit = Some 10_000;
  }

type report = {
  cone_size : int;
  candidate_classes : int;
  candidate_literals : int;
  bdd_merges : int;
  bdd_aborted : bool;
  sat_merges : int;
  sat_calls : int;
  sat_refuted : int;
  sat_unknown : int;
  sat_skipped_covered : int;
  sim_refinements : int;
  sim_words : int;
  bank_patterns : int;
  total_merges : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "cone=%d classes=%d cand-lits=%d bdd-merges=%d%s sat: merges=%d calls=%d refuted=%d \
     unknown=%d skipped=%d refinements=%d words=%d bank=%d total-merges=%d"
    r.cone_size r.candidate_classes r.candidate_literals r.bdd_merges
    (if r.bdd_aborted then "(aborted)" else "")
    r.sat_merges r.sat_calls r.sat_refuted r.sat_unknown r.sat_skipped_covered r.sim_refinements
    r.sim_words r.bank_patterns r.total_merges

(* Parity union-find over node ids stored as node -> representative literal.
   The representative of a class is always its lowest node id, which makes
   the final substitution acyclic for [Aig.rebuild] (fanins have lower ids
   than the nodes above them). *)
module Merge_map = struct
  type t = Aig.lit Util.Int_tbl.t

  let create () : t = Util.Int_tbl.create 64

  let rec find (t : t) n =
    match Util.Int_tbl.find_opt t n with
    | None -> Aig.lit_of_node n
    | Some l ->
      let r = find t (Aig.node_of_lit l) lxor (l land 1) in
      Util.Int_tbl.replace t n r;
      r

  let find_lit t l = find t (Aig.node_of_lit l) lxor (l land 1)

  (* record that literals [a] and [b] denote the same function *)
  let union t a b =
    let ra = find_lit t a and rb = find_lit t b in
    let na = Aig.node_of_lit ra and nb = Aig.node_of_lit rb in
    if na <> nb then
      if na < nb then Util.Int_tbl.replace t nb (ra lxor (rb land 1))
      else Util.Int_tbl.replace t na (rb lxor (ra land 1))

  let merged_nodes t = Util.Int_tbl.length t
end

let run ?(config = default) ?bank aig checker ~prng ~roots =
  let watch = Util.Stopwatch.start () in
  let limits = Cnf.Checker.limits checker in
  let strash_before = (Aig.stats aig).Aig.strash_hits in
  let mm = Merge_map.create () in
  let cone_size = Aig.size_list aig roots in
  Obs.Trace_events.begin_args "sweep.run" "cone_size" cone_size;
  (* stage 2: simulation candidates, seeded with recycled counterexamples *)
  Obs.Trace_events.begin_ "sweep.sim";
  let sim = Sim.create ?bank aig ~roots ~rounds:config.sim_rounds ~prng in
  Obs.Trace_events.end_args "sweep.sim" "words" (Sim.words sim);
  let initial_classes = Sim.classes sim in
  let candidate_classes = List.length initial_classes in
  let candidate_literals = List.fold_left (fun acc c -> acc + List.length c) 0 initial_classes in
  (* stage 3: BDD sweeping. The governor's BDD node pool tightens the
     per-sweep quota; a deadline or AIG-node trip skips the stage
     outright, while a conflict-pool trip does not (BDDs are SAT-free,
     so they are exactly what is left to sweep with). *)
  let bdd_merges, bdd_aborted =
    let stage_quota =
      match Util.Limits.bdd_budget limits with
      | Some pool -> min config.bdd_node_limit pool
      | None -> config.bdd_node_limit
    in
    let fatal_skip =
      match Util.Limits.check limits with
      | Some
          ( Util.Limits.Deadline | Util.Limits.Aig_nodes | Util.Limits.Bdd_nodes
          | Util.Limits.Cancelled ) ->
        true
      | Some Util.Limits.Conflicts | None -> false
    in
    if config.bdd_node_limit <= 0 then (0, false)
    else if stage_quota <= 0 || fatal_skip then begin
      Obs.incr obs_bdd_stage_skips;
      Obs.Trace_events.instant "sweep.bdd.limit_skip";
      (0, false)
    end
    else begin
      Obs.Trace_events.begin_ "sweep.bdd";
      let res = Bdd_sweep.run aig ~roots ~max_nodes:stage_quota in
      Util.Limits.charge_bdd_nodes limits res.bdd_nodes;
      List.iter (fun (n, rep) -> Merge_map.union mm (Aig.lit_of_node n) rep) res.merges;
      if res.aborted then Obs.Trace_events.instant "sweep.bdd.abort";
      Obs.Trace_events.end_args "sweep.bdd" "merges" (List.length res.merges);
      (List.length res.merges, res.aborted)
    end
  in
  (* stage 4: SAT merging on the remaining compare points *)
  let sat_merges = ref 0 in
  let sat_calls = ref 0 in
  let sat_refuted = ref 0 in
  let sat_unknown = ref 0 in
  let sat_skipped = ref 0 in
  (match config.sat with
  | None -> ()
  | Some direction ->
    Obs.Trace_events.begin_ "sweep.sat";
    Obs.incr (match direction with Forward -> obs_forward_runs | Backward -> obs_backward_runs);
    Cnf.Checker.set_conflict_limit checker config.sat_conflict_limit;
    let hard : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    (* backward mode: nodes strictly below an already-merged node *)
    let covered : unit Util.Int_tbl.t = Util.Int_tbl.create 16 in
    let cover l =
      List.iter (fun n -> Util.Int_tbl.replace covered n ()) (Aig.cone aig [ l ])
    in
    (* order the compare points: forward by increasing level, backward by
       decreasing level of the pair's second member *)
    let ordered_pairs () =
      let pairs =
        List.concat_map
          (fun members ->
            match members with
            | [] | [ _ ] -> []
            | repr :: rest -> List.map (fun m -> (repr, m)) rest)
          (Sim.classes sim)
      in
      let key (_, m) = Aig.level aig (Aig.node_of_lit m) in
      match direction with
      | Forward -> List.stable_sort (fun a b -> Int.compare (key a) (key b)) pairs
      | Backward -> List.stable_sort (fun a b -> Int.compare (key b) (key a)) pairs
    in
    let progress = ref true in
    while !progress do
      progress := false;
      let rec process = function
        | [] -> ()
        | _ :: _ when Util.Limits.check limits <> None ->
          (* governor tripped mid-stage: abandon the remaining compare
             points but keep every merge already proven *)
          Obs.incr obs_sat_stage_breaks;
          Obs.Trace_events.instant "sweep.sat.limit_break";
          progress := false
        | (repr, m) :: rest ->
          let ra = Merge_map.find_lit mm repr and rb = Merge_map.find_lit mm m in
          if Aig.node_of_lit ra = Aig.node_of_lit rb then process rest
          else if Hashtbl.mem hard (Aig.node_of_lit repr, Aig.node_of_lit m) then process rest
          else if
            direction = Backward
            && Util.Int_tbl.mem covered (Aig.node_of_lit repr)
            && Util.Int_tbl.mem covered (Aig.node_of_lit m)
          then begin
            incr sat_skipped;
            process rest
          end
          else begin
            incr sat_calls;
            match Cnf.Checker.equal checker ra rb with
            | Cnf.Checker.Yes ->
              Merge_map.union mm ra rb;
              incr sat_merges;
              if direction = Backward then begin
                cover ra;
                cover rb
              end;
              process rest
            | Cnf.Checker.No when !Fault.injected ->
              (* deliberately unsound merge of a SAT-refuted pair; only
                 reachable when the fuzzer's self-test flips {!Fault} *)
              Merge_map.union mm ra rb;
              incr sat_merges;
              process rest
            | Cnf.Checker.No ->
              incr sat_refuted;
              (* distill the distinguishing model into the persistent bank
                 (assigned variables only — free ones carry no information)
                 so it keeps refuting candidates in later sweeps/frames *)
              (match bank with
              | Some b -> Pattern_bank.add b (Cnf.Checker.assigned_model checker (Sim.vars sim))
              | None -> ());
              (* fold the distinguishing model back into the signatures:
                 this splits every class the model distinguishes, so the
                 pair list must be recomputed *)
              ignore (Sim.refine sim (fun v -> Cnf.Checker.model_var checker v));
              progress := true
            | Cnf.Checker.Maybe ->
              incr sat_unknown;
              Hashtbl.replace hard (Aig.node_of_lit repr, Aig.node_of_lit m) ();
              process rest
          end
      in
      process (ordered_pairs ())
    done;
    Obs.Trace_events.end_args "sweep.sat" "merges" !sat_merges);
  let report =
    {
      cone_size;
      candidate_classes;
      candidate_literals;
      bdd_merges;
      bdd_aborted;
      sat_merges = !sat_merges;
      sat_calls = !sat_calls;
      sat_refuted = !sat_refuted;
      sat_unknown = !sat_unknown;
      sat_skipped_covered = !sat_skipped;
      sim_refinements = Sim.refinements sim;
      sim_words = Sim.words sim;
      bank_patterns = (match bank with Some b -> Pattern_bank.size b | None -> 0);
      total_merges = Merge_map.merged_nodes mm;
    }
  in
  Obs.incr obs_runs;
  Obs.add_seconds obs_span (Util.Stopwatch.elapsed watch);
  Obs.observe obs_cone_size cone_size;
  Obs.add obs_merge_hash ((Aig.stats aig).Aig.strash_hits - strash_before);
  Obs.add obs_merge_sim (max 0 (report.candidate_literals - report.candidate_classes));
  Obs.add obs_merge_bdd report.bdd_merges;
  Obs.add obs_merge_sat report.sat_merges;
  if report.bdd_aborted then Obs.incr obs_bdd_aborts;
  Obs.add obs_sat_calls report.sat_calls;
  Obs.add obs_sat_refuted report.sat_refuted;
  Obs.add obs_sat_unknown report.sat_unknown;
  Obs.add obs_sat_skipped report.sat_skipped_covered;
  Obs.add obs_refinements report.sim_refinements;
  Obs.Trace_events.end_args "sweep.run" "total_merges" report.total_merges;
  (Merge_map.find mm, report)

let sweep_lits ?config ?bank aig checker ~prng lits =
  let repl, report = run ?config ?bank aig checker ~prng ~roots:lits in
  (* strash hits during the rebuild are merge points too: applying the
     substitution lets the hashing front-end collapse newly-equal cones *)
  let strash_before = (Aig.stats aig).Aig.strash_hits in
  let rebuilt = List.map (fun l -> Aig.rebuild aig ~repl l) lits in
  Obs.add obs_merge_hash ((Aig.stats aig).Aig.strash_hits - strash_before);
  (rebuilt, report)
