(* End-to-end benchmark of the checker: the time a user waits for a
   checked verdict, from AIGER bytes in, through the public library
   calls, to an answer checked against the registry's known status.

   Usage (from the repository root):
     bash e2ebench/run.sh --workload ladder|portfolio|serve \
       --seed N --seconds S --trace 0|1

   Workloads (why each exists: e2ebench/README.md):
     ladder     single-engine CBQ runs in sequence, as [cbq_mc run -t]
                runs them: parse, traverse, certify / replay
     portfolio  Baselines.Portfolio.run at its default job count
     serve      an in-process daemon (2 workers, report store) driven
                by one client connection, closed loop, 4 outstanding

   A pass runs every job of the workload once, in a seeded order; the
   run repeats passes for [--seconds] and reports medians. With
   [--trace 0] the last stdout line carries the end-to-end metrics; with
   [--trace 1] it carries the per-layer metrics of a separate traced
   phase, and the lines before it give the breakdown with the bases of
   every ratio.

   The oracle: every verdict and counterexample depth must match
   [Circuits.Registry.status]; every PROVED invariant is re-checked with
   [Cbq.Certify.check]; every counterexample trace is replayed with
   [Cbq.Trace.check]; budget-capped serve jobs must come back UNDECIDED.
   Any mismatch, crash or refusal is a failure: it is counted, printed
   on stderr, and makes the exit status 1. *)

let fail_usage fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

(* ---------------- command line ---------------- *)

type args = { workload : string; seed : int; seconds : float; traced : bool }

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> fail_usage "%s: not an integer: %S" name v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := Some s
      | _ -> fail_usage "--seconds: not a positive number: %S" v);
      go rest
    | "--trace" :: v :: rest -> trace := Some (int_arg "--trace" v <> 0); go rest
    | a :: _ -> fail_usage "unknown or incomplete argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some traced -> { workload = w; seed; seconds; traced }
  | _ -> fail_usage "usage: e2e --workload ladder|portfolio|serve --seed N --seconds S --trace 0|1"

(* ---------------- statistics ---------------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let geomean xs = exp (sum (List.map log xs) /. float_of_int (List.length xs))
let ratio a b = if b = 0. then 0. else a /. b
let now = Util.Stopwatch.now

(* ---------------- jobs and the oracle ---------------- *)

type job = {
  label : string;
  model_name : string;
  aig : string;  (** ASCII AIGER bytes: all the program ever receives *)
  expect : Circuits.Registry.status;
  engine : string;  (** ladder: cbq-bwd / cbq-fwd; serve: a Suite engine *)
  capped : bool;  (** serve: submitted with a 1-conflict budget, UNDECIDED expected *)
}

let make_job ?(engine = "") ?(capped = false) family param =
  let model, expect = Circuits.Registry.build family (Some param) in
  {
    label = Printf.sprintf "%s %d%s%s" family param (if engine = "" then "" else " " ^ engine)
        (if capped then " capped" else "");
    model_name = Netlist.Model.name model;
    aig = Netlist.Aiger.write model;
    expect;
    engine;
    capped;
  }

let attempted = ref 0
let failures = ref 0

let failure job fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "e2e: FAIL %s: %s\n%!" job.label s)
    fmt

let status_string = function
  | Circuits.Registry.Safe -> "PROVED"
  | Circuits.Registry.Unsafe k -> Printf.sprintf "FALSIFIED(%d)" k

(* the engine-independent part of the oracle: verdict and depth *)
let check_verdict job (v : Baselines.Verdict.t) =
  let ok =
    match (v, job.expect) with
    | Undecided _, _ -> job.capped
    | _ when job.capped -> false
    | Proved, Circuits.Registry.Safe -> true
    | Falsified d, Circuits.Registry.Unsafe k -> d = k
    | (Proved | Falsified _), _ -> false
  in
  if not ok then
    failure job "verdict %s, expected %s" (Format.asprintf "%a" Baselines.Verdict.pp v)
      (if job.capped then "UNDECIDED" else status_string job.expect)

(* ---------------- the benchmark's own spans ---------------- *)

(* Spans around each public call, recorded only in the traced phase, on
   the trace clock of [Obs.Trace_events] so they nest with the
   program's own phases. [job] is shared by every span of one job. *)
type span = { sid : int; job : int; name : string; parent : int; t0 : float; mutable t1 : float }

let tracing = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_sid = ref 0
let current_job = ref (-1)
let ts () = Obs.Trace_events.timestamp_us ()

(* [now ()] readings converted to the trace clock, for spans whose ends
   are observed as client events rather than around a call *)
let epoch = ref (0., 0.)
let us_of t = snd !epoch +. ((t -. fst !epoch) *. 1e6)

let record ?(parent = -1) ~job name t0 t1 =
  let s = { sid = !next_sid; job; name; parent; t0; t1 } in
  incr next_sid;
  spans := s :: !spans;
  s

let with_span name f =
  if not !tracing then f ()
  else begin
    let parent = match !stack with p :: _ -> p.sid | [] -> -1 in
    let s = record ~parent ~job:!current_job name (ts ()) nan in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- ts ();
        stack := List.tl !stack)
  end

(* Time every call into a public entry point, traced or not. *)
let timed name acc f =
  let t0 = now () in
  let r = with_span name f in
  acc := !acc +. (now () -. t0);
  r

(* ---------------- layer attribution ---------------- *)

let layers = [ "sat"; "sweep"; "synth"; "core"; "certify"; "trace"; "netlist"; "par"; "engine" ]

(* Which layer owns a span's self time. Engine racer phases (named
   after their Suite engine) own the engine work that has no finer
   span; the benchmark's pass and job spans own what nothing else
   claims. *)
let layer_of name =
  match name with
  | "sat.solve" -> "sat"
  | "sweep.run" | "sweep.sim" | "sweep.bdd" | "sweep.sat" -> "sweep"
  | "dontcare.disjunction" -> "synth"
  | "reach.frame" | "preimage.compute" | "quantify.var" | "pqe.eliminate" | "core.traverse" -> "core"
  | "core.certify" -> "certify"
  | "core.trace_check" -> "trace"
  | "netlist.parse" -> "netlist"
  | "par.race" | "par.portfolio" -> "par"
  | n when List.mem n Baselines.Suite.names -> "engine"
  | _ -> "unattributed"

type interval = { lane : int; iname : string; a : float; b : float }

(* Pair the program's begin/end events per domain lane. *)
let program_intervals () =
  let open_ = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (e : Obs.Trace_events.event) ->
      let st = Option.value (Hashtbl.find_opt open_ e.ev_tid) ~default:[] in
      match e.ev_ph with
      | 'B' -> Hashtbl.replace open_ e.ev_tid ((e.ev_name, e.ev_ts) :: st)
      | 'E' ->
        let rec pop = function
          | [] -> st (* unmatched end: ignore it *)
          | (n, a) :: rest when n = e.ev_name ->
            out := { lane = e.ev_tid; iname = n; a; b = e.ev_ts } :: !out;
            rest
          | _ :: rest -> pop rest
        in
        Hashtbl.replace open_ e.ev_tid (pop st)
      | _ -> ())
    (Obs.Trace_events.events ());
  !out

(* Self time per (lane, layer): each interval's duration minus the
   parts its direct children cover. The intervals of one lane nest, so
   the self times of a lane's roots and their descendants add up to the
   roots' durations exactly. *)
let self_times intervals =
  let tbl = Hashtbl.create 32 in
  let add lane layer dt =
    let k = (lane, layer) in
    Hashtbl.replace tbl k (dt +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  let sorted = List.sort (fun x y -> compare (x.lane, x.a, -.x.b) (y.lane, y.a, -.y.b)) intervals in
  (* [open_] holds the enclosing intervals of the current one, innermost
     first *)
  ignore
    (List.fold_left
       (fun open_ iv ->
         let open_ = List.filter (fun p -> p.lane = iv.lane && p.b > iv.a) open_ in
         (match open_ with
         | p :: _ -> add p.lane (layer_of p.iname) (-.(Float.min iv.b p.b -. iv.a))
         | [] -> ());
         add iv.lane (layer_of iv.iname) (iv.b -. iv.a);
         iv :: open_)
       [] sorted);
  tbl

(* ---------------- per-run accumulators ---------------- *)

(* end to end: one entry per job run in an untraced pass *)
let latencies : float list ref = ref []
let pass_times : float list ref = ref []
let per_job_times : (int, float list) Hashtbl.t = Hashtbl.create 16

(* traced phase *)
let traced_pass_times : float list ref = ref []
let self_acc : (string, float) Hashtbl.t = Hashtbl.create 16
let parse_s = ref 0.
let traverse_s = ref 0.
let certify_s = ref 0.
let trace_check_s = ref 0.
let freeze_s = ref 0.
let thaw_s = ref 0.
let per_instance : (string, float * float) Hashtbl.t = Hashtbl.create 16
let all_spans : span list ref = ref []
let dropped_events = ref 0
let worker_busy_s = ref 0.

(* The race's own variance: which racer won each untraced race, and in
   traced races how long the benchmark's domain waited after the winner
   returned (cancelling the loser and joining its domain). *)
let winners : (string, string list) Hashtbl.t = Hashtbl.create 16
let race_log : (string * string) list ref = ref []
let cancel_waits : (string, float list) Hashtbl.t = Hashtbl.create 16
let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

(* serve, per traced pass and per worker: program spans, Done seconds,
   the parse estimate and the engine remainder before it is floored *)
let serve_est : (float * float * float * float) list ref = ref []
let attributed_total = ref 0.

let add_self layer dt =
  Hashtbl.replace self_acc layer (dt +. Option.value (Hashtbl.find_opt self_acc layer) ~default:0.)

(* ---------------- passes ---------------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [run_pass order] runs one pass and returns per-job wall times
   (indices into the workload's job array). *)
type workload = {
  jobs : job array;
  run_pass : int array -> (int * float) list;
  workers : int;
      (** 0: the work blocks the benchmark's own domain; n: it runs on n
          daemon worker domains *)
  teardown : unit -> unit;
}

(* The kernel's high-water mark of the process's resident set, reset
   before each pass (writing 5 to clear_refs), so a run reports the
   median of its per-pass peaks rather than one extreme. The GC's own
   [top_heap_words] varies by up to 2x between identical runs once
   several domains allocate, so it is only printed for reference. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1e3
        | None -> acc)
      0. (String.split_on_char '\n' status)
  | exception Sys_error _ -> 0.

let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let pass_peaks : float list ref = ref []

(* The host: the VM's steal time and all CPU time from /proc/stat, in
   clock ticks, so that a slow or fast run can be told apart from a
   change of the program. *)
let host_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let xs = List.filter_map int_of_string_opt fields in
      let steal = match List.nth_opt xs 7 with Some x -> x | None -> 0 in
      (steal, List.fold_left ( + ) 0 xs)
    | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let untraced_pass w order =
  reset_peak_rss ();
  let t0 = now () in
  let times = w.run_pass order in
  let dt = now () -. t0 in
  pass_times := dt :: !pass_times;
  pass_peaks := peak_rss_mb () :: !pass_peaks;
  List.iter
    (fun (i, s) ->
      latencies := s :: !latencies;
      push per_job_times i s)
    times

(* A traced pass: the program's phases and the benchmark's spans on one
   clock, then self time per layer. Ladder and portfolio block on the
   benchmark's own domain, so its lane is attributed; a serve pass waits
   on the daemon's workers, so their lanes are averaged over the worker
   count and the rest of the pass wall time is unattributed. *)
let traced_pass w ~main order =
  Obs.Trace_events.reset ~limit:(1 lsl 21) ();
  Obs.Trace_events.set_enabled true;
  epoch := (now (), ts ());
  spans := [];
  tracing := true;
  current_job := -1;
  worker_busy_s := 0.;
  let parse0 = !parse_s in
  let t0 = now () in
  let pass = record ~job:(-1) "bench.pass" (ts ()) nan in
  stack := [ pass ];
  ignore (w.run_pass order);
  pass.t1 <- ts ();
  stack := [];
  tracing := false;
  traced_pass_times := (now () -. t0) :: !traced_pass_times;
  Obs.Trace_events.set_enabled false;
  dropped_events := !dropped_events + Obs.Trace_events.dropped ();
  let wall = (pass.t1 -. pass.t0) /. 1e6 in
  (* serve job spans overlap (several jobs in flight): they give the
     serve.* latencies, not self times *)
  let mine =
    List.filter_map
      (fun s ->
        if String.starts_with ~prefix:"serve." s.name then None
        else Some { lane = main; iname = s.name; a = s.t0; b = s.t1 })
      !spans
  in
  let program = program_intervals () in
  let tbl = self_times (mine @ program) in
  (* races on the benchmark's lane, in order, against the race log *)
  let races =
    List.sort compare
      (List.filter_map
         (fun iv -> if iv.iname = "par.race" && iv.lane = main then Some (iv.a, iv.b) else None)
         program)
  in
  if List.length races = List.length !race_log then
    List.iter2
      (fun (a, b) (label, winner) ->
        List.iter
          (fun iv ->
            if iv.iname = winner && iv.a >= a && iv.b <= b then
              push cancel_waits label ((b -. iv.b) /. 1e6))
          program)
      races (List.rev !race_log);
  race_log := [];
  let attributed = ref 0. in
  let attribute layer s =
    add_self layer s;
    attributed := !attributed +. s
  in
  let per_worker = 1. /. float_of_int (max 1 w.workers) in
  Hashtbl.iter
    (fun (lane, layer) us ->
      if layer <> "unattributed" && (lane = main) = (w.workers = 0) then
        attribute layer (us /. 1e6 *. per_worker))
    tbl;
  if w.workers > 0 then begin
    (* An estimate: the rest of the jobs' own run time (the [seconds] of
       their Done events) is the worker-side parse, timed by the
       benchmark on the same bytes, plus the engines' code outside any
       span. The parse the daemon makes at submit is outside [seconds]
       and stays unattributed. *)
    let spans = !attributed and busy = !worker_busy_s *. per_worker in
    let parse = (!parse_s -. parse0) *. per_worker in
    let engine = busy -. spans -. parse in
    serve_est := (spans, busy, parse, engine) :: !serve_est;
    attribute "netlist" parse;
    attribute "engine" (Float.max 0. engine)
  end;
  attributed_total := !attributed_total +. !attributed;
  add_self "unattributed" (wall -. !attributed);
  add_self "wall" wall;
  all_spans := !spans @ !all_spans

(* ---------------- ladder ---------------- *)

(* Backward: tmr is SAT-inprocess-bound, mult-cmp certify-bound; both
   verdict kinds in both directions. Sizes keep one pass near 6 s on a
   2-core box; an odd job count keeps the median latency inside one
   job's samples rather than on the gap between two. *)
let ladder_jobs () =
  [|
    make_job ~engine:"cbq-bwd" "tmr" 4;
    make_job ~engine:"cbq-bwd" "mult-cmp" 9;
    make_job ~engine:"cbq-bwd" "counter" 5;
    make_job ~engine:"cbq-bwd" "fifo-buggy" 4;
    make_job ~engine:"cbq-fwd" "accumulator" 5;
    make_job ~engine:"cbq-fwd" "counter" 6;
    make_job ~engine:"cbq-fwd" "johnson" 8;
    make_job ~engine:"cbq-fwd" "lfsr" 6;
    make_job ~engine:"cbq-fwd" "peterson" 0;
  |]

let run_ladder_job job =
  let m = timed "netlist.parse" parse_s (fun () -> Netlist.Aiger.read ~name:job.model_name job.aig) in
  let config = { Cbq.Reachability.default with make_trace = true } in
  let t_trav = !traverse_s and t_cert = !certify_s in
  let r =
    timed "core.traverse" traverse_s (fun () ->
        if job.engine = "cbq-fwd" then Cbq.Forward.run ~config m else Cbq.Reachability.run ~config m)
  in
  (match r.Cbq.Reachability.verdict with
  | Cbq.Reachability.Proved -> (
    check_verdict job Proved;
    match r.invariant with
    | None -> failure job "PROVED without a certificate"
    | Some invariant -> (
      match timed "core.certify" certify_s (fun () -> Cbq.Certify.check m ~invariant) with
      | Ok () -> ()
      | Error f -> failure job "certificate rejected: %s" (Format.asprintf "%a" Cbq.Certify.pp_failure f)))
  | Cbq.Reachability.Falsified { depth; trace } -> (
    check_verdict job (Falsified depth);
    match trace with
    | None -> failure job "FALSIFIED without a trace"
    | Some t ->
      if not (timed "core.trace_check" trace_check_s (fun () -> Cbq.Trace.check m t)) then
        failure job "trace does not replay"
      else if Cbq.Trace.length t <> depth then
        failure job "trace length %d, depth %d" (Cbq.Trace.length t) depth)
  | Cbq.Reachability.Out_of_budget { reason; _ } -> check_verdict job (Undecided reason));
  if !tracing then begin
    let tr, ce = Option.value (Hashtbl.find_opt per_instance job.label) ~default:(0., 0.) in
    Hashtbl.replace per_instance job.label (tr +. !traverse_s -. t_trav, ce +. !certify_s -. t_cert)
  end

(* Every sequential job runs under a "bench.job" span; a job's id is its
   attempt number, shared by all of its spans. It starts from a
   collected heap, so its time does not depend on which job ran before
   it. *)
let sequential run jobs order =
  Array.to_list
    (Array.map
       (fun i ->
         Gc.full_major ();
         incr attempted;
         current_job := !attempted;
         let t0 = now () in
         with_span "bench.job" (fun () ->
             try run jobs.(i) with e -> failure jobs.(i) "crashed: %s" (Printexc.to_string e));
         (i, now () -. t0))
       order)

let ladder () =
  let jobs = ladder_jobs () in
  (* warm-up: small runs of both directions and both verdict kinds *)
  List.iter run_ladder_job
    [ make_job ~engine:"cbq-bwd" "counter" 4; make_job ~engine:"cbq-fwd" "johnson" 4;
      make_job ~engine:"cbq-bwd" "mult-cmp" 5 ];
  { jobs; run_pass = sequential run_ladder_job jobs; workers = 0; teardown = ignore }

(* ---------------- portfolio ---------------- *)

(* mult-bug is decided by BMC alone in milliseconds, so the race's
   scheduling decides its time; the rest span every racer's win. *)
let portfolio_jobs () =
  [|
    make_job "mult-bug" 6;
    make_job "mult-bug" 7;
    make_job "accumulator" 5;
    make_job "counter" 5;
    make_job "fifo-buggy" 4;
    make_job "tmr" 4;
    make_job "mult-cmp" 6;
    make_job "gray" 6;
    make_job "peterson" 0;
  |]

let portfolio_wall : (string, float list) Hashtbl.t = Hashtbl.create 16

let run_portfolio_job job =
  let m = timed "netlist.parse" parse_s (fun () -> Netlist.Aiger.read ~name:job.model_name job.aig) in
  let t0 = now () in
  let r = with_span "par.portfolio" (fun () -> Baselines.Portfolio.run m) in
  let dt = now () -. t0 in
  let winner = Option.value r.winner ~default:"none" in
  if !tracing then race_log := (job.label, winner) :: !race_log
  else begin
    push portfolio_wall job.label dt;
    push winners job.label winner
  end;
  check_verdict job r.Baselines.Portfolio.verdict;
  (* a loser that decided before it saw the cancel answers too; a
     cancelled one returns Undecided *)
  List.iter
    (fun (name, o) ->
      match o with
      | Baselines.Portfolio.Crashed e -> failure job "racer %s crashed: %s" name e
      | Verdict ((Proved | Falsified _) as v) -> check_verdict { job with label = job.label ^ " " ^ name } v
      | Verdict (Undecided _) | Skipped -> ())
    r.outcomes;
  match (r.verdict, r.trace) with
  | Baselines.Verdict.Falsified d, Some t ->
    if not (timed "core.trace_check" trace_check_s (fun () -> Cbq.Trace.check m t)) then
      failure job "trace of %s does not replay" (Option.value r.winner ~default:"?")
    else if Cbq.Trace.length t <> d then failure job "trace length %d, depth %d" (Cbq.Trace.length t) d
  | _ -> ()

let portfolio () =
  let jobs = portfolio_jobs () in
  (* warm-up: one race spawns the worker domains once *)
  run_portfolio_job (make_job "counter" 3);
  { jobs; run_pass = sequential run_portfolio_job jobs; workers = 0; teardown = ignore }

(* The fastest single Suite engine per instance, each capped at the
   portfolio's own (untraced, median) wall time on that instance; every
   engine runs alone on its own thawed clone, and every verdict it
   reaches is checked. *)
let virtual_best jobs =
  Array.fold_left
    (fun (vb, gap) job ->
      let cap = median (Option.value (Hashtbl.find_opt portfolio_wall job.label) ~default:[]) in
      let m = Netlist.Aiger.read ~name:job.model_name job.aig in
      let frozen = timed "par.clone.freeze" freeze_s (fun () -> Par.Clone.freeze m) in
      let best =
        List.fold_left
          (fun best (e : Baselines.Suite.engine) ->
            let clone = timed "par.clone.thaw" thaw_s (fun () -> Par.Clone.thaw frozen) in
            let t0 = now () in
            (* no engine after the current best can beat it: cap at it *)
            let v, _ = e.run ~limits:(Util.Limits.create ~timeout:best ()) clone in
            let dt = now () -. t0 in
            match v with
            | Baselines.Verdict.Proved | Falsified _ ->
              check_verdict { job with label = job.label ^ " " ^ e.name } v;
              Float.min best dt
            | Undecided _ -> best)
          cap (Baselines.Suite.engines ())
      in
      Printf.printf "  %-16s portfolio %.3fs  virtual best %.3fs\n" job.label cap best;
      (vb +. best, gap +. (cap -. best)))
    (0., 0.) jobs

(* ---------------- serve ---------------- *)

(* Small instances where the engine decides in milliseconds to tens of
   milliseconds, across every Suite engine; BMC only on falsifiable
   ones (it cannot prove). *)
let serve_uncapped =
  let all = Baselines.Suite.names in
  let without xs = List.filter (fun e -> not (List.mem e xs)) all in
  [
    ("counter", 3, all);
    ("counter", 4, [ "cbq-bwd"; "cbq-fwd"; "bmc"; "cofactor"; "hybrid" ]);
    ("fifo-buggy", 2, all);
    ("mult-bug", 4, all);
    ("shift-pattern", 4, all);
    ("johnson", 4, without [ "bmc" ]);
    ("arbiter", 3, without [ "bmc" ]);
    ("tmr", 2, without [ "bmc"; "cbq-fwd" ]);
    ("peterson", 0, without [ "bmc"; "cbq-fwd" ]);
    ("gray", 4, without [ "bmc"; "cbq-fwd" ]);
  ]

(* Pairs a single conflict cannot decide: about 1 job in 10. *)
let serve_capped =
  [
    ("counter", 4, [ "cbq-bwd"; "bmc"; "induction" ]);
    ("fifo-buggy", 2, [ "cofactor"; "hybrid" ]);
    ("peterson", 0, [ "cbq-bwd"; "induction" ]);
  ]

let serve_jobs () =
  let expand ~capped l =
    List.concat_map
      (fun (f, p, engines) -> List.map (fun engine -> make_job ~engine ~capped f p) engines)
      l
  in
  Array.of_list (expand ~capped:false serve_uncapped @ expand ~capped:true serve_capped)

let outstanding = 4
let serve_workers = 2
let queue_waits : float list ref = ref []
let run_times : float list ref = ref []
let overheads : float list ref = ref []
let rtts : float list ref = ref []

(* Under the checkout; relative, so the socket path stays short. *)
let local_path name = Filename.concat ".e2ebench" (Printf.sprintf "%s-%d" name (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* One closed-loop pass: [outstanding] jobs in flight, the next one sent
   as soon as one finishes. Times are the client's clock. *)
let serve_pass client jobs order =
  let n = Array.length order in
  let submitted = Array.make n 0. and accepted = Array.make n 0. and started = Array.make n 0. in
  let is_done = Array.make n false and ids = Array.make n 0 in
  let result = ref [] in
  let of_id = Hashtbl.create 64 in
  let next = ref 0 and finished = ref 0 in
  let submit () =
    let k = !next in
    incr next;
    incr attempted;
    ids.(k) <- !attempted;
    let j = jobs.(order.(k)) in
    submitted.(k) <- now ();
    Serve.Client.send client
      (Serve.Protocol.Submit
         {
           tag = string_of_int k;
           model_name = j.model_name;
           aig = j.aig;
           engine = j.engine;
           budget =
             { Serve.Protocol.no_budget with max_conflicts = (if j.capped then Some 1 else None) };
           quantify_backend = None;
         })
  in
  let finish k =
    incr finished;
    is_done.(k) <- true;
    let t = now () in
    result := (order.(k), t -. submitted.(k)) :: !result;
    if !tracing then begin
      let job = ids.(k) in
      let root = record ~job "serve.job" (us_of submitted.(k)) (us_of t) in
      if accepted.(k) > 0. && started.(k) > 0. then begin
        let child name a b = ignore (record ~parent:root.sid ~job name (us_of a) (us_of b)) in
        child "serve.queue" accepted.(k) started.(k);
        child "serve.run" started.(k) t
      end
    end;
    if !next < n then submit ()
  in
  while !next < min outstanding n do submit () done;
  while !finished < n do
    match Serve.Client.recv client with
    | None ->
      Array.iteri
        (fun k d -> if not d then failure jobs.(order.(k)) "daemon closed the connection")
        is_done;
      finished := n
    | Some ev -> (
      match ev with
      | Serve.Protocol.Accepted { tag; id } ->
        let k = int_of_string tag in
        Hashtbl.replace of_id id k;
        accepted.(k) <- now ()
      | Rejected { tag; reason } ->
        let k = int_of_string tag in
        failure jobs.(order.(k)) "refused: %s" reason;
        finish k
      | Started { id } -> Option.iter (fun k -> started.(k) <- now ()) (Hashtbl.find_opt of_id id)
      | Done { id; verdict; seconds; _ } ->
        let k = Hashtbl.find of_id id in
        let t = now () in
        check_verdict jobs.(order.(k)) verdict;
        if !tracing then begin
          queue_waits := (started.(k) -. accepted.(k)) :: !queue_waits;
          run_times := (t -. started.(k)) :: !run_times;
          overheads := (t -. started.(k) -. seconds) :: !overheads;
          worker_busy_s := !worker_busy_s +. seconds
        end;
        finish k
      | Failed { id; message } ->
        let k = Hashtbl.find of_id id in
        failure jobs.(order.(k)) "crashed: %s" message;
        finish k
      | Progress _ | Pong | Stats_reply _ | Bye | Protocol_error _ -> ())
  done;
  !result

let serve_parse_s = ref [||]

let serve () =
  let jobs = serve_jobs () in
  let dir = local_path "store" in
  rm_rf dir;
  let store = Obs.Store.open_ dir in
  (* the CLI's default transport: over TCP every exchange also waits out
     Nagle's algorithm against delayed ACKs *)
  let server =
    Serve.Server.start ~jobs:serve_workers ~store (Serve.Protocol.Unix_path (local_path "serve.sock"))
  in
  let client = Serve.Client.connect (Serve.Server.address server) in
  (* warm-up: one full pass through the daemon *)
  ignore (serve_pass client jobs (Array.init (Array.length jobs) Fun.id));
  let teardown () =
    Serve.Client.close client;
    Serve.Server.stop server;
    Serve.Server.wait server;
    rm_rf dir
  in
  (* the parse each job pays inside the daemon, timed on the same bytes *)
  serve_parse_s :=
    Array.map
      (fun j ->
        median
          (List.init 5 (fun _ ->
               let t0 = now () in
               ignore (Netlist.Aiger.read ~name:j.model_name j.aig);
               now () -. t0)))
      jobs;
  let run_pass order =
    let r = serve_pass client jobs order in
    if !tracing then begin
      Array.iter (fun i -> parse_s := !parse_s +. !serve_parse_s.(i)) order;
      for _ = 1 to 10 do
        let t0 = now () in
        Serve.Client.ping client;
        rtts := (now () -. t0) :: !rtts
      done
    end;
    r
  in
  { jobs; run_pass; workers = serve_workers; teardown }

(* ---------------- main ---------------- *)

(* "  won by cbq-bwd 7 (0.61s), cbq-fwd 2 (0.55s)" on portfolio jobs:
   the races each racer won and their median time; "" elsewhere *)
let winner_counts label =
  match (Hashtbl.find_opt winners label, Hashtbl.find_opt portfolio_wall label) with
  | Some ws, Some ts ->
    let runs = List.combine ws ts in
    "  won by "
    ^ String.concat ", "
        (List.map
           (fun n ->
             let mine = List.filter_map (fun (w, t) -> if w = n then Some t else None) runs in
             Printf.sprintf "%s %d (%.3fs)" n (List.length mine) (median mine))
           (List.sort_uniq compare ws))
  | _ -> ""

let gc_top_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* set-ups on each side of the measurement: at least [setup_min_reps],
   and more while they have taken less than [setup_seconds] in all *)
let setup_min_reps = 3
let setup_max_reps = 25
let setup_seconds = 1.0

let per_layer_metrics ~passes ~overhead_frac ~vb =
  let c name = float_of_int (Obs.value_of name) /. passes in
  let sp name = Obs.span_seconds (Obs.span name) /. passes in
  let self l = Option.value (Hashtbl.find_opt self_acc l) ~default:0. /. passes in
  let s = "s" and n = "count" and r = "ratio" in
  let vb_s, gap_s = vb in
  [
    ("sat.solve_s", sp "sat.solve", s);
    ("sat.solve_calls", c "sat.solve_calls", n);
    ("sat.conflicts", c "sat.conflicts", n);
    ("sat.propagations", c "sat.propagations", n);
    ("sat.inprocess.runs", c "sat.inprocess.runs", n);
    ("sat.inprocess_per_solve", ratio (c "sat.inprocess.runs") (c "sat.solve_calls"), r);
    ("sat.gc.runs", c "sat.gc.runs", n);
    ("cnf.queries", c "cnf.queries", n);
    ("sweep.run_s", sp "sweep.run", s);
    ("sweep.sat.calls", c "sweep.sat.calls", n);
    ("sweep.sat.refuted", c "sweep.sat.refuted", n);
    ("sweep.sat.useful_frac", ratio (c "sweep.merge.sat") (c "sweep.sat.calls"), r);
    ("sweep.merge.hash", c "sweep.merge.hash", n);
    ("sweep.merge.sim", c "sweep.merge.sim", n);
    ("sweep.merge.bdd", c "sweep.merge.bdd", n);
    ("sweep.merge.sat", c "sweep.merge.sat", n);
    ("sweep.bdd.aborts", c "sweep.bdd.aborts", n);
    ("dontcare.disjunction_s", sp "dontcare.disjunction", s);
    ( "dontcare.success_frac",
      ratio (c "dontcare.replacements.const" +. c "dontcare.replacements.merge") (c "dontcare.attempts"),
      r );
    ("dontcare.odc.accept_frac", ratio (c "dontcare.odc.accepted") (c "dontcare.odc.attempts"), r);
    ("aig.and_nodes", c "aig.and_nodes", n);
    ("aig.strash_hits", c "aig.strash_hits", n);
    ("core.traverse_s", !traverse_s /. passes, s);
    ("core.certify_s", !certify_s /. passes, s);
    ("core.trace_check_s", !trace_check_s /. passes, s);
    ("reach.iterations", c "reach.iterations", n);
    ("quantify.vars.aborted", c "quantify.vars.aborted", n);
    ( "quantify.eliminated_frac",
      ratio (c "quantify.vars.eliminated") (c "quantify.vars.eliminated" +. c "quantify.vars.aborted"),
      r );
    ("netlist.parse_s", !parse_s /. passes, s);
    ("par.clone.freeze_s", !freeze_s, s);
    ("par.clone.thaw_s", !thaw_s, s);
    ("par.race.skipped", c "par.race.skipped", n);
    ("par.race.virtual_best_s", vb_s, s);
    ("par.race.overhead_s", gap_s, s);
    ("par.race.cancel_wait_s", sum (Hashtbl.fold (fun _ ws acc -> ws @ acc) cancel_waits []) /. passes, s);
    ("serve.queue_wait_s.p50", median !queue_waits, s);
    ("serve.run_s.p50", median !run_times, s);
    ("serve.overhead_s.p50", median !overheads, s);
    ("serve.rtt_s", median !rtts, s);
    ("store.index.entries_per_append", ratio (c "store.index.entries") (c "store.appends"), r);
    ("trace.overhead_frac", overhead_frac, r);
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", self l, s)) (layers @ [ "unattributed"; "wall" ])

let json_metrics ms =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ]))
       ms)

let print_result metrics =
  let correct = !failures = 0 in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int !attempted);
            ("failed", Obs.Json.Int !failures);
            ("metrics", json_metrics metrics);
          ]));
  exit (if correct then 0 else 1)

let write_spans args =
  let path = Printf.sprintf ".e2ebench/spans-%s-seed%d.json" args.workload args.seed in
  let span_json s =
    Obs.Json.Obj
      [
        ("id", Obs.Json.Int s.sid);
        ("job", Obs.Json.Int s.job);
        ("name", Obs.Json.String s.name);
        ("parent", Obs.Json.Int s.parent);
        ("start_us", Obs.Json.Float s.t0);
        ("end_us", Obs.Json.Float s.t1);
      ]
  in
  Util.Fs.ensure_parent path;
  let oc = open_out path in
  output_string oc (Obs.Json.to_string (Obs.Json.List (List.rev_map span_json !all_spans)));
  close_out oc;
  Printf.printf "spans: %d written to %s\n" (List.length !all_spans) path

let () =
  let args = parse_args () in
  let make =
    match args.workload with
    | "ladder" -> ladder
    | "portfolio" -> portfolio
    | "serve" -> serve
    | w -> fail_usage "unknown workload %S (ladder, portfolio, serve)" w
  in
  Printf.printf "e2e: workload %s, seed %d, %.0fs, trace %d, %d domains recommended\n%!"
    args.workload args.seed args.seconds
    (if args.traced then 1 else 0)
    (Domain.recommended_domain_count ());
  (* set-up: build the inputs, start what the workload needs, warm up.
     Repeated before and after the measurement, so that its median does
     not hang on one moment of the host; the last one before is kept *)
  let setups = ref [] in
  let set_up () =
    let t0 = now () in
    let w = make () in
    setups := (now () -. t0) :: !setups;
    w
  in
  let repeat_set_up () =
    let t0 = now () in
    let rec go k =
      let w = set_up () in
      if k < setup_min_reps || (k < setup_max_reps && now () -. t0 < setup_seconds) then begin
        w.teardown ();
        go (k + 1)
      end
      else w
    in
    go 1
  in
  let w = repeat_set_up () in
  attempted := 0;
  let rng = Random.State.make [| args.seed |] in
  let order () = shuffle rng (Array.init (Array.length w.jobs) Fun.id) in
  let main = (Domain.self () :> int) in
  (* passes while the next one, as long as the median so far, still
     ends within the budget *)
  let run_for budget ~min_passes f =
    let t0 = now () in
    let durations = ref [] in
    while List.length !durations < min_passes || now () -. t0 +. median !durations <= budget do
      let p0 = now () in
      f (order ());
      durations := (now () -. p0) :: !durations
    done;
    List.length !durations
  in
  let untraced_budget = if args.traced then args.seconds /. 2. else args.seconds in
  let steal0, ticks0 = host_ticks () and cpu0 = cpu_s () and wall0 = now () in
  ignore (run_for untraced_budget ~min_passes:(if args.traced then 1 else 3) (untraced_pass w));
  let steal1, ticks1 = host_ticks () and cpu1 = cpu_s () and wall1 = now () in
  if not args.traced then begin
    w.teardown ();
    (repeat_set_up ()).teardown ()
  end;
  let e2e () =
    let job_medians = Hashtbl.fold (fun _ ts acc -> median ts :: acc) per_job_times [] in
    (* sequential workloads: the sum over the jobs of each job's median
       time, robust to one slow pass; serve: the median pass, since its
       jobs overlap *)
    let solve, jobs_per_s, latencies =
      if w.workers = 0 then
        (* one job at a time: throughput and latency are functions of the
           same per-job medians, so they measure nothing apart *)
        let solve = sum job_medians in
        (solve, float_of_int (List.length job_medians) /. solve, job_medians)
      else (median !pass_times, float_of_int (List.length !latencies) /. sum !pass_times, !latencies)
    in
    [
      ("setup_s", median !setups, "s");
      ("solve_s", solve, "s");
      ("solve_s.geomean", geomean job_medians, "s");
      ("jobs_per_s", jobs_per_s, "1/s");
      ("job_latency_s.p50", median latencies, "s");
      ("job_latency_s.p95", quantile 0.95 latencies, "s");
      ("peak_rss_mb", median !pass_peaks, "MB");
    ]
  in
  let failed_frac = ratio (float_of_int !failures) (float_of_int !attempted) in
  Printf.printf "pass times:%s\n" (String.concat "" (List.rev_map (Printf.sprintf " %.3f") !pass_times));
  Printf.printf "passes %d of %d jobs; %d job runs%s\n" (List.length !pass_times) (Array.length w.jobs)
    (List.length !latencies)
    (if w.workers = 0 then "; job_latency_s over the per-job medians"
     else Printf.sprintf ", %d beyond p95" (List.length !latencies / 20));
  if w.workers = 0 then
    Array.iteri
      (fun i j ->
        let ts = Option.value (Hashtbl.find_opt per_job_times i) ~default:[] in
        Printf.printf "  job %-24s median %8.4fs  min %8.4fs  max %8.4fs%s\n" j.label (median ts)
          (List.fold_left Float.min infinity ts) (List.fold_left Float.max 0. ts)
          (winner_counts j.label))
      w.jobs;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-24s %12.6f %s\n" name v unit) (e2e ());
  Printf.printf "  %-24s %12.6f (%d of %d)\n" "failed_frac" failed_frac !failures !attempted;
  Printf.printf "  %-24s %d set-ups, min %.6fs, max %.6fs\n" "setup_s" (List.length !setups)
    (List.fold_left Float.min infinity !setups) (List.fold_left Float.max 0. !setups);
  Printf.printf "  %-24s %12.6f MB\n" "gc_top_heap_mb" (gc_top_heap_mb ());
  Printf.printf "host: steal %.2f%% of CPU ticks; process CPU %.2fs over %.2fs wall (%.2f cores)\n%!"
    (100. *. ratio (float_of_int (steal1 - steal0)) (float_of_int (ticks1 - ticks0)))
    (cpu1 -. cpu0) (wall1 -. wall0)
    (ratio (cpu1 -. cpu0) (wall1 -. wall0));
  if not args.traced then print_result (e2e ())
  else begin
    (* the traced phase: the program's telemetry on, spans recorded *)
    parse_s := 0.;
    traverse_s := 0.;
    certify_s := 0.;
    trace_check_s := 0.;
    Hashtbl.reset per_instance;
    Obs.reset ();
    Obs.set_enabled true;
    let passes =
      run_for (args.seconds /. 2.) ~min_passes:1 (traced_pass w ~main)
    in
    Obs.set_enabled false;
    let p = float_of_int passes in
    let overhead_frac = median !traced_pass_times /. median !pass_times -. 1. in
    let vb =
      if args.workload = "portfolio" then begin
        Printf.printf "virtual best (each Suite engine alone, capped at the portfolio's time):\n";
        let vb, gap = virtual_best w.jobs in
        let thaws = float_of_int (Array.length w.jobs * List.length Baselines.Suite.names) in
        freeze_s := !freeze_s /. float_of_int (Array.length w.jobs);
        thaw_s := !thaw_s /. thaws;
        (vb, gap)
      end
      else (0., 0.)
    in
    w.teardown ();
    let ms = per_layer_metrics ~passes:p ~overhead_frac ~vb in
    Printf.printf "traced: %d passes; per-pass values\n" passes;
    List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6f %s\n" name v unit) ms;
    let c name = Obs.value_of name in
    Printf.printf "ratio bases (totals over %d traced passes):\n" passes;
    Printf.printf "  sat.inprocess_per_solve   = %d inprocess runs / %d solves\n" (c "sat.inprocess.runs")
      (c "sat.solve_calls");
    Printf.printf "  sweep.sat.useful_frac     = %d SAT merges / %d SAT calls\n" (c "sweep.merge.sat")
      (c "sweep.sat.calls");
    Printf.printf "  dontcare.success_frac     = %d replacements / %d attempts\n"
      (c "dontcare.replacements.const" + c "dontcare.replacements.merge")
      (c "dontcare.attempts");
    Printf.printf "  dontcare.odc.accept_frac  = %d accepted / %d attempts\n" (c "dontcare.odc.accepted")
      (c "dontcare.odc.attempts");
    Printf.printf "  quantify.eliminated_frac  = %d eliminated / %d eliminated+aborted\n"
      (c "quantify.vars.eliminated")
      (c "quantify.vars.eliminated" + c "quantify.vars.aborted");
    Printf.printf "  store.index.entries_per_append = %d entries / %d appends\n" (c "store.index.entries")
      (c "store.appends");
    Printf.printf "  trace.overhead_frac       = %.4fs traced pass / %.4fs untraced pass - 1\n"
      (median !traced_pass_times) (median !pass_times);
    if !dropped_events > 0 then Printf.printf "  warning: %d trace events dropped\n" !dropped_events;
    let total l = Option.value (Hashtbl.find_opt self_acc l) ~default:0. in
    if !serve_est <> [] then begin
      let col f = sum (List.map f !serve_est) in
      Printf.printf
        "serve attribution per worker (an estimate, totals): program spans %.4fs, Done seconds %.4fs;\n\
        \  netlist = the benchmark's parse of the same bytes %.4fs\n\
        \    (the daemon's submit-time parse is not in it);\n\
        \  engine = Done - spans - netlist = %.4fs before flooring at 0, %d of %d passes negative\n"
        (col (fun (a, _, _, _) -> a))
        (col (fun (_, b, _, _) -> b))
        (col (fun (_, _, c, _) -> c))
        (col (fun (_, _, _, d) -> d))
        (List.length (List.filter (fun (_, _, _, d) -> d < 0.) !serve_est))
        (List.length !serve_est)
    end;
    Printf.printf "attributed %.4fs of traced wall %.4fs; unattributed = the difference, %.4fs (totals)\n"
      !attributed_total (total "wall") (total "unattributed");
    Printf.printf "self times + unattributed = %.4fs; traced wall = %.4fs (totals)\n"
      (sum (List.map total ("unattributed" :: layers)))
      (total "wall");
    if Hashtbl.length cancel_waits > 0 then begin
      Printf.printf "cancel wait after the winner returned (traced races): median / max\n";
      List.iter
        (fun (label, ws) ->
          Printf.printf "  %-24s %9.4fs %9.4fs\n" label (median ws) (List.fold_left Float.max 0. ws))
        (List.sort compare (List.of_seq (Hashtbl.to_seq cancel_waits)))
    end;
    if Hashtbl.length per_instance > 0 then begin
      Printf.printf "per instance (traced, all passes): traverse / certify\n";
      List.iter
        (fun (label, (tr, ce)) ->
          Printf.printf "  %-24s %9.4fs %9.4fs  certify share %.3f\n" label tr ce (ratio ce (tr +. ce)))
        (List.sort compare (List.of_seq (Hashtbl.to_seq per_instance)))
    end;
    write_spans args;
    print_result ms
  end
