type config = {
  bmc_depth : int;
  induction_k : int;
  make_trace : bool;
  quant : Cbq.Quantify.config;
}

let default_config =
  { bmc_depth = 30; induction_k = 25; make_trace = true; quant = Cbq.Quantify.default }

let standalone_config = { default_config with bmc_depth = 100; induction_k = 50 }

type detail = {
  verdict : Verdict.t;
  trace : Cbq.Trace.t option;
  invariant : Aig.lit option;
  pp : verbose:bool -> Format.formatter -> unit;
}

type engine = {
  name : string;
  run : limits:Util.Limits.t -> Netlist.Model.t -> Verdict.t * Cbq.Trace.t option;
  detail : limits:Util.Limits.t -> Netlist.Model.t -> detail;
}

(* the one place the anytime [run] view is derived from an engine's detail *)
let engine name detail =
  {
    name;
    detail;
    run =
      (fun ~limits m ->
        let d = detail ~limits m in
        (d.verdict, d.trace));
  }

(* an engine whose result has no per-iteration lines and no certificate *)
let plain ~verdict ?trace pp_result r =
  let pp ~verbose:_ ppf = Format.fprintf ppf "%a@." pp_result r in
  { verdict; trace; invariant = None; pp }

let cbq_detail (r : Cbq.Reachability.result) =
  let pp ~verbose ppf =
    Format.fprintf ppf "%a@." Cbq.Reachability.pp_result r;
    if verbose then
      List.iter
        (fun (it : Cbq.Reachability.iteration) ->
          Format.fprintf ppf
            "  iter %2d: frontier=%d reached=%d inputs eliminated=%d kept=%d (%.3fs)@." it.index
            it.frontier_size it.reached_size it.eliminated_inputs it.kept_inputs it.seconds)
        r.iterations;
    if r.verdict = Cbq.Reachability.Proved && r.invariant = None then
      Format.fprintf ppf "certificate: none (partial quantification left residuals)@."
  in
  let verdict, trace =
    match r.verdict with
    | Cbq.Reachability.Proved -> (Verdict.Proved, None)
    | Cbq.Reachability.Falsified { depth; trace } -> (Verdict.Falsified depth, trace)
    | Cbq.Reachability.Out_of_budget { reason; _ } -> (Verdict.Undecided reason, None)
  in
  { verdict; trace; invariant = r.invariant; pp }

let bdd_detail (r : Bdd_mc.result) =
  let pp ~verbose ppf =
    Format.fprintf ppf "%a@." Bdd_mc.pp_result r;
    if verbose then
      List.iter
        (fun (it : Bdd_mc.iteration) ->
          Format.fprintf ppf "  iter %2d: frontier-bdd=%d reached-bdd=%d@." it.index
            it.frontier_nodes it.reached_nodes)
        r.iterations
  in
  { verdict = r.verdict; trace = None; invariant = None; pp }

let engines ?(config = default_config) () =
  let cbq_config =
    { Cbq.Reachability.default with make_trace = config.make_trace; quant = config.quant }
  in
  [
    engine "cbq-bwd" (fun ~limits m ->
        cbq_detail (Cbq.Reachability.run ~config:cbq_config ~limits m));
    engine "cbq-fwd" (fun ~limits m -> cbq_detail (Cbq.Forward.run ~config:cbq_config ~limits m));
    engine "bdd-bwd" (fun ~limits m -> bdd_detail (Bdd_mc.backward ~limits m));
    engine "bdd-fwd" (fun ~limits m -> bdd_detail (Bdd_mc.forward ~limits m));
    engine "bmc" (fun ~limits m ->
        let r = Bmc.run ~max_depth:config.bmc_depth ~limits m in
        plain ~verdict:r.Bmc.verdict ?trace:r.Bmc.trace Bmc.pp_result r);
    engine "induction" (fun ~limits m ->
        let r = Induction.run ~max_k:config.induction_k ~limits m in
        plain ~verdict:r.Induction.verdict ?trace:r.Induction.trace Induction.pp_result r);
    engine "cofactor" (fun ~limits m ->
        let r = Cofactor_preimage.run ~limits m in
        plain ~verdict:r.Cofactor_preimage.verdict Cofactor_preimage.pp_result r);
    engine "hybrid" (fun ~limits m ->
        let r = Hybrid.run ~quant_config:(Hybrid.strict_growth config.quant) ~limits m in
        plain ~verdict:r.Hybrid.verdict Hybrid.pp_result r);
  ]

let names = List.map (fun e -> e.name) (engines ())

(* accepted spellings that are not table entries *)
let aliases = [ ("cbq", "cbq-bwd") ]

let canonical_name name =
  let name = Option.value (List.assoc_opt name aliases) ~default:name in
  if List.mem name names then Some name else None

let find ?config name =
  Option.bind (canonical_name name) (fun name ->
      List.find_opt (fun e -> e.name = name) (engines ?config ()))
