(* Forward: images from the initial states towards the bad states, on
   the shared frame loop of [Reachability.traverse]. *)
let run ?(config = Reachability.default) ?limits model =
  Reachability.traverse ~config ?limits model (fun env ->
      let aig = env.Reachability.aig in
      let input_vars = Netlist.Model.input_vars model in
      let state_vars = Netlist.Model.state_vars model in
      let model_var v = List.mem v state_vars || List.mem v input_vars in
      (* primed variables standing for the next state in the relational image *)
      let primed =
        List.map
          (fun l -> (l.Netlist.Model.state_var, Aig.fresh_var aig))
          model.Netlist.Model.latches
      in
      let transition =
        Aig.and_list aig
          (List.map
             (fun l ->
               let y = Aig.var aig (List.assoc l.Netlist.Model.state_var primed) in
               Aig.iff_ aig y l.Netlist.Model.next)
             model.Netlist.Model.latches)
      in
      let unprime v =
        let back = List.find_opt (fun (_, y) -> y = v) primed in
        Option.map (fun (s, _) -> Aig.var aig s) back
      in
      {
        Reachability.start = env.Reachability.init;
        target = env.Reachability.bad;
        (* Img(R): conjoin the transition relation, then eliminate the
           current-state, input and residual variables *)
        step =
          (fun frontier ~aux ->
            let product = Aig.and_ aig transition frontier in
            let to_quantify =
              List.filter (fun v -> model_var v || List.mem v aux) (Aig.support aig product)
            in
            Quantify.all ~config:config.Reachability.quant ~bank:env.Reachability.bank aig
              env.Reachability.checker ~prng:env.Reachability.prng product ~vars:to_quantify);
        renamed = model_var;
        relabel = (fun lit -> Aig.compose aig lit ~subst:unprime);
        (* the closed reached set itself is inductive, contains the initial
           states, and avoids every bad state *)
        invariant_of = Fun.id;
      })
