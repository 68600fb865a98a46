let obs_batches = Obs.counter "par.pool.batches"
let obs_domains = Obs.counter "par.pool.domains"

let default_jobs () = Domain.recommended_domain_count ()

let run_shards ~jobs f =
  if jobs < 1 then invalid_arg "Pool.run_shards: jobs < 1"
  else if jobs = 1 then f 0
  else begin
    Obs.incr obs_batches;
    Obs.add obs_domains (jobs - 1);
    (* the raw backtrace is captured at the catch site, inside the shard:
       re-raising after the join would otherwise report the join point,
       not the frame that actually failed *)
    let failures = Array.make jobs None in
    let shard w =
      match f w with
      | () -> ()
      | exception exn -> failures.(w) <- Some (exn, Printexc.get_raw_backtrace ())
    in
    let domains = List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> shard (i + 1))) in
    shard 0;
    List.iter Domain.join domains;
    Array.iter
      (function Some (exn, bt) -> Printexc.raise_with_backtrace exn bt | None -> ())
      failures
  end
