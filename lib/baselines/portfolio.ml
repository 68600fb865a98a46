let obs_runs = Obs.counter "portfolio.runs"
let obs_decided = Obs.counter "portfolio.decided"
let obs_undecided = Obs.counter "portfolio.undecided"

type engine_outcome = Verdict of Verdict.t | Skipped | Crashed of string

type result = {
  verdict : Verdict.t;
  trace : Cbq.Trace.t option;
  winner : string option;
  outcomes : (string * engine_outcome) list;
  seconds : float;
}

let pp_result ppf r =
  Format.fprintf ppf "@[<v>portfolio: %a" Verdict.pp r.verdict;
  (match r.winner with
  | Some w -> Format.fprintf ppf " (winner %s, %.3fs)" w r.seconds
  | None -> Format.fprintf ppf " (no winner, %.3fs)" r.seconds);
  List.iter
    (fun (name, o) ->
      match o with
      | Verdict v -> Format.fprintf ppf "@,  %-10s %a" name Verdict.pp v
      | Skipped -> Format.fprintf ppf "@,  %-10s skipped" name
      | Crashed e -> Format.fprintf ppf "@,  %-10s crashed: %s" name e)
    r.outcomes;
  Format.fprintf ppf "@]"

let decided = function Verdict.Proved | Verdict.Falsified _ -> true | Verdict.Undecided _ -> false

let run ?config ?engines ?jobs ?(budget = Util.Limits.no_budget) m =
  let table = Suite.engines ?config () in
  let selected =
    match engines with
    | None -> table
    | Some [] -> invalid_arg "Portfolio.run: empty engine list"
    | Some names ->
      List.map
        (fun name ->
          match List.find_opt (fun (e : Suite.engine) -> e.name = name) table with
          | Some e -> e
          | None -> invalid_arg ("Portfolio.run: unknown engine " ^ name))
        names
  in
  Obs.incr obs_runs;
  let jobs =
    match jobs with
    | Some j -> j
    | None -> min (List.length selected) (Par.Pool.default_jobs ())
  in
  (* one frozen image shared read-only; each entrant thaws its own clone
     on the domain that runs it *)
  let frozen = Par.Clone.freeze m in
  let entrants =
    List.map
      (fun (e : Suite.engine) ->
        let limits = Util.Limits.of_budget budget in
        {
          Par.Race.name = e.name;
          limits;
          run = (fun () -> e.run ~limits (Par.Clone.thaw frozen));
        })
      selected
  in
  let race = Par.Race.run ~jobs ~decisive:(fun (v, _) -> decided v) entrants in
  let outcomes =
    List.mapi
      (fun i (e : Suite.engine) ->
        ( e.name,
          match race.Par.Race.results.(i) with
          | Par.Race.Finished (v, _) -> Verdict v
          | Par.Race.Skipped -> Skipped
          | Par.Race.Crashed exn -> Crashed exn ))
      selected
  in
  let verdict, trace, winner =
    match race.Par.Race.winner with
    | Some (name, (v, trace)) ->
      Obs.incr obs_decided;
      (v, trace, Some name)
    | None ->
      Obs.incr obs_undecided;
      (Verdict.Undecided "portfolio: no engine decided within budget", None, None)
  in
  { verdict; trace; winner; outcomes; seconds = race.Par.Race.seconds }
