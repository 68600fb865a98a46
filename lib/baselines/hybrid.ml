type iteration = {
  index : int;
  eliminated_by_cbq : int;
  enumerated : int;
  enumerations : int;
  frontier_size : int;
}

type result = {
  verdict : Verdict.t;
  iterations : iteration list;
  total_enumerations : int;
  seconds : float;
}

let pp_result ppf r =
  Format.fprintf ppf "%a iterations=%d enumerations=%d %.3fs" Verdict.pp r.verdict
    (List.length r.iterations) r.total_enumerations r.seconds

(* a deliberately strict budget: quantify only while the set stays small *)
let strict_growth quant = { quant with Cbq.Quantify.growth_limit = 1.2; growth_slack = 16 }
let default_quant = strict_growth Cbq.Quantify.default

let run ?(quant_config = default_quant) ?(max_iterations = 200) ?(max_enumerations = 10_000)
    ?(limits = Util.Limits.unlimited) model =
  let watch = Util.Stopwatch.start () in
  let limits = Obs.Limits.arm limits in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  Cnf.Checker.set_limits checker limits;
  let prng = Util.Prng.create 3 in
  let init = Netlist.Model.init_lit model in
  let input_vars = Netlist.Model.input_vars model in
  let iterations = ref [] in
  let total_enum = ref 0 in
  let finish verdict =
    {
      verdict;
      iterations = List.rev !iterations;
      total_enumerations = !total_enum;
      seconds = Util.Stopwatch.elapsed watch;
    }
  in
  (* finish the job on a partially quantified literal: enumerate the
     residual variables, generalizing by circuit cofactoring as in
     {!Cofactor_preimage} *)
  let enumerate_residual lit kept =
    if kept = [] then Some (lit, 0)
    else begin
      Cnf.Checker.set_conflict_limit checker None;
      let budget = max_enumerations - !total_enum in
      let rec go acc count =
        if count >= budget then None
        else begin
          match Cnf.Checker.satisfiable checker [ lit; Aig.not_ acc ] with
          | Cnf.Checker.No -> Some (acc, count)
          | Cnf.Checker.Maybe -> None
          | Cnf.Checker.Yes ->
            let subst v =
              if List.mem v kept then
                Some (if Cnf.Checker.model_var checker v then Aig.true_ else Aig.false_)
              else None
            in
            go (Aig.or_ aig acc (Aig.compose aig lit ~subst)) (count + 1)
        end
      in
      go Aig.false_ 0
    end
  in
  let preimage frontier =
    let q =
      Cbq.Preimage.compute ~config:quant_config model checker ~prng ~frontier ~extra_vars:[]
    in
    match enumerate_residual q.Cbq.Preimage.lit q.Cbq.Preimage.kept with
    | None -> None
    | Some (lit, enums) ->
      Some (lit, List.length q.Cbq.Preimage.eliminated, List.length q.Cbq.Preimage.kept, enums)
  in
  (* an aborted enumeration is either a budgeted Maybe from a governor
     trip (name the resource) or a genuine enumeration-count overflow *)
  let enumeration_stop () =
    match Util.Limits.exhausted limits with
    | Some r -> Verdict.Undecided (Util.Limits.resource_name r)
    | None -> Verdict.Undecided "enumeration budget"
  in
  (* iteration 0 *)
  let bad_raw = Aig.not_ model.Netlist.Model.property in
  let bad_inputs = List.filter (fun v -> List.mem v input_vars) (Aig.support aig bad_raw) in
  let q0 = Cbq.Quantify.all ~config:quant_config aig checker ~prng bad_raw ~vars:bad_inputs in
  match enumerate_residual q0.Cbq.Quantify.lit q0.Cbq.Quantify.kept with
  | None -> finish (enumeration_stop ())
  | Some (b0, n0) ->
    total_enum := n0;
    if Cnf.Checker.satisfiable checker [ init; b0 ] = Cnf.Checker.Yes then
      finish (Verdict.Falsified 0)
    else begin
      let reached = ref b0 in
      let frontier = ref b0 in
      let rec loop k =
        match Util.Limits.check limits with
        | Some r ->
          finish
            (Verdict.Undecided
               (Printf.sprintf "%s (frame %d)" (Util.Limits.resource_name r) (k - 1)))
        | None ->
        if k > max_iterations then finish (Verdict.Undecided "iteration limit")
        else begin
          match preimage !frontier with
          | None -> finish (enumeration_stop ())
          | Some (pre, eliminated, kept, enums) ->
            total_enum := !total_enum + enums;
            iterations :=
              {
                index = k;
                eliminated_by_cbq = eliminated;
                enumerated = kept;
                enumerations = enums;
                frontier_size = Aig.size aig pre;
              }
              :: !iterations;
            if Cnf.Checker.satisfiable checker [ init; pre ] = Cnf.Checker.Yes then
              finish (Verdict.Falsified k)
            else if Cnf.Checker.satisfiable checker [ pre; Aig.not_ !reached ] = Cnf.Checker.No
            then finish Verdict.Proved
            else begin
              frontier := Aig.and_ aig pre (Aig.not_ !reached);
              reached := Aig.or_ aig !reached pre;
              loop (k + 1)
            end
        end
      in
      loop 1
    end
