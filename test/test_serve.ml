(* The job daemon end to end, in process: protocol codec totality,
   malformed-frame rejection without connection loss, concurrent batch
   verdicts agreeing with sequential runs, cooperative cancellation
   (explicit and by client disconnect), the server budget ceiling, and
   the shared run-report store after a batch. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_dir f =
  let dir = Filename.temp_file "cbq_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* a served model: registry circuit frozen to ASCII AIGER bytes *)
let frozen name param =
  let model, _ = Circuits.Registry.build name (Some param) in
  (Netlist.Model.name model, Netlist.Aiger.write model)

let spec ?(engine = "cbq-bwd") ?(budget = Serve.Protocol.no_budget) ?quantify_backend ~tag
    name param =
  let model_name, aig = frozen name param in
  { Serve.Client.tag; model_name; aig; engine; budget; quantify_backend }

let with_server ?jobs ?ceiling ?store f =
  with_dir @@ fun dir ->
  let server =
    Serve.Server.start ?jobs ?ceiling ?store
      (Serve.Protocol.Unix_path (Filename.concat dir "s.sock"))
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server)
    (fun () -> f server (Serve.Server.address server))

let connect address = Serve.Client.connect address

(* ---------- protocol codec ---------- *)

let requests_roundtrip () =
  let budget =
    {
      Serve.Protocol.timeout = Some 1.5;
      max_conflicts = Some 100;
      max_aig_nodes = None;
      max_bdd_nodes = Some 7;
    }
  in
  let reqs =
    [
      Serve.Protocol.Submit
        {
          tag = "t1";
          model_name = "m";
          aig = "aag 0 0 0 1 0\n1\n";
          engine = "bmc";
          budget;
          quantify_backend = None;
        };
      Serve.Protocol.Submit
        {
          tag = "t2";
          model_name = "m2";
          aig = "x";
          engine = "cbq-bwd";
          budget = Serve.Protocol.no_budget;
          quantify_backend = Some "pqe";
        };
      Serve.Protocol.Cancel { id = 42 };
      Serve.Protocol.Ping;
      Serve.Protocol.Stats;
      Serve.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let line = Serve.Protocol.request_to_line r in
      check bool "one line" false (String.contains line '\n');
      match Serve.Protocol.request_of_line line with
      | Ok r' -> check bool "request round-trips" true (r = r')
      | Error msg -> Alcotest.fail msg)
    reqs

let events_roundtrip () =
  let events =
    [
      Serve.Protocol.Accepted { tag = "t"; id = 1 };
      Serve.Protocol.Rejected { tag = "t"; reason = "no \"such\" engine" };
      Serve.Protocol.Started { id = 3 };
      Serve.Protocol.Progress { id = 3; frame = 7; nodes = 140 };
      Serve.Protocol.Done
        { id = 3; verdict = Baselines.Verdict.Proved; seconds = 0.25; report = Some 9 };
      Serve.Protocol.Done
        { id = 4; verdict = Baselines.Verdict.Falsified 15; seconds = 1.0; report = None };
      Serve.Protocol.Done
        {
          id = 5;
          verdict = Baselines.Verdict.Undecided "deadline";
          seconds = 2.0;
          report = None;
        };
      Serve.Protocol.Failed { id = 6; message = "stack overflow" };
      Serve.Protocol.Pong;
      Serve.Protocol.Stats_reply { queued = 1; running = 2; completed = 3; workers = 4 };
      Serve.Protocol.Bye;
      Serve.Protocol.Protocol_error { message = "bad frame" };
    ]
  in
  List.iter
    (fun e ->
      let line = Serve.Protocol.event_to_line e in
      check bool "one line" false (String.contains line '\n');
      match Serve.Protocol.event_of_line line with
      | Ok e' -> check bool "event round-trips" true (e = e')
      | Error msg -> Alcotest.fail msg)
    events

let malformed_frames () =
  let bad l =
    match Serve.Protocol.request_of_line l with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed frame %S" l)
  in
  bad "not json";
  bad "[1,2]";
  bad "{\"no\":\"type\"}";
  bad "{\"type\":\"warp\"}";
  bad "{\"type\":\"submit\",\"tag\":\"t\"}";
  (* missing model/engine/aig *)
  bad "{\"type\":\"cancel\"}" (* missing id *)

(* a malformed line over the wire draws a protocol error and leaves the
   connection usable *)
let malformed_over_the_wire () =
  with_server ~jobs:1 @@ fun _server address ->
  (* no raw-line entry point on the client, so speak the protocol
     directly: garbage, then a valid ping *)
  let sock =
    match address with
    | Serve.Protocol.Unix_path p ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX p);
      fd
    | Serve.Protocol.Tcp _ -> Alcotest.fail "test uses unix sockets"
  in
  let outc = Unix.out_channel_of_descr sock in
  let inc = Unix.in_channel_of_descr sock in
  output_string outc "this is { not json\n";
  output_string outc "{\"type\":\"ping\"}\n";
  flush outc;
  (match Serve.Protocol.event_of_line (input_line inc) with
  | Ok (Serve.Protocol.Protocol_error _) -> ()
  | Ok e ->
    Alcotest.fail
      (Printf.sprintf "expected a protocol error, got %s" (Serve.Protocol.event_to_line e))
  | Error msg -> Alcotest.fail msg);
  (match Serve.Protocol.event_of_line (input_line inc) with
  | Ok Serve.Protocol.Pong -> ()
  | Ok e ->
    Alcotest.fail
      (Printf.sprintf "connection should survive garbage, got %s"
         (Serve.Protocol.event_to_line e))
  | Error msg -> Alcotest.fail msg);
  Unix.close sock

(* ---------- verdict parity: concurrent batch vs sequential ---------- *)

let batch_matches_sequential () =
  let cases =
    [ ("counter", 2); ("counter", 3); ("counter-even", 4); ("gray", 3); ("twin-shift", 4) ]
  in
  (* sequential ground truth straight from the suite *)
  let expected =
    List.map
      (fun (name, param) ->
        let model, _ = Circuits.Registry.build name (Some param) in
        let engine = Option.get (Baselines.Suite.find "cbq-bwd") in
        let verdict, _ = engine.Baselines.Suite.run ~limits:(Util.Limits.create ()) model in
        verdict)
      cases
  in
  with_server ~jobs:4 @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let specs =
    List.mapi (fun i (name, param) -> spec ~tag:(Printf.sprintf "job%d" i) name param) cases
  in
  let outcomes = Serve.Client.run_batch c specs in
  List.iteri
    (fun i (exp, got) ->
      match got with
      | Serve.Client.Finished { verdict; _ } ->
        check bool
          (Printf.sprintf "job %d agrees with the sequential verdict" i)
          true (verdict = exp)
      | Serve.Client.Crashed { message; _ } -> Alcotest.fail message
      | Serve.Client.Refused { reason } -> Alcotest.fail reason)
    (List.combine expected outcomes)

(* rejections: unknown engine and unparsable model, without burning a
   worker or the connection *)
let submit_rejections () =
  with_server ~jobs:1 @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (match Serve.Client.submit_wait c (spec ~engine:"warp-drive" ~tag:"a" "counter" 2) with
  | Serve.Client.Refused { reason } ->
    check bool "reason names the engine" true
      (String.length reason > 0
      && String.lowercase_ascii reason |> fun s ->
         String.length s >= 7 && String.sub s 0 7 = "unknown")
  | _ -> Alcotest.fail "unknown engine must be refused");
  (match
     Serve.Client.submit_wait c
       { Serve.Client.tag = "b"; model_name = "junk"; aig = "aag junk"; engine = "bmc";
         budget = Serve.Protocol.no_budget; quantify_backend = None }
   with
  | Serve.Client.Refused _ -> ()
  | _ -> Alcotest.fail "unparsable AIGER must be refused");
  (match
     Serve.Client.submit_wait c (spec ~quantify_backend:"warp" ~tag:"q" "counter" 2)
   with
  | Serve.Client.Refused { reason } ->
    check bool "reason names the backend" true
      (String.length reason > 0
      && String.lowercase_ascii reason |> fun s ->
         String.length s >= 7 && String.sub s 0 7 = "unknown")
  | _ -> Alcotest.fail "unknown quantify backend must be refused");
  (* the same connection still works, per-job backend override included *)
  match
    Serve.Client.submit_wait c (spec ~tag:"c" ~quantify_backend:"auto" "counter" 2)
  with
  | Serve.Client.Finished { verdict = Baselines.Verdict.Falsified 3; _ } -> ()
  | _ -> Alcotest.fail "valid submit after rejections must still run"

(* ---------- cancellation ---------- *)

(* a job that cannot finish soon: falsifying counter(12) needs 4095
   backward frames *)
let slow_spec ~tag = spec ~tag "counter" 12

let explicit_cancel () =
  with_server ~jobs:1 @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  Serve.Client.send c
    (let s = slow_spec ~tag:"slow" in
     Serve.Protocol.Submit
       {
         tag = s.Serve.Client.tag;
         model_name = s.Serve.Client.model_name;
         aig = s.Serve.Client.aig;
         engine = s.Serve.Client.engine;
         budget = s.Serve.Client.budget;
         quantify_backend = None;
       });
  let id =
    match Serve.Client.recv c with
    | Some (Serve.Protocol.Accepted { id; _ }) -> id
    | other ->
      Alcotest.fail
        (Printf.sprintf "expected accept, got %s"
           (match other with
           | Some e -> Serve.Protocol.event_to_line e
           | None -> "EOF"))
  in
  (* the accept precedes every worker event for the job; wait for the
     run to actually start, then cancel it *)
  (match Serve.Client.recv c with
  | Some (Serve.Protocol.Started { id = i }) -> check int "started id" id i
  | _ -> Alcotest.fail "expected started");
  Serve.Client.send c (Serve.Protocol.Cancel { id });
  let watch = Util.Stopwatch.start () in
  let rec await () =
    match Serve.Client.recv c with
    | Some (Serve.Protocol.Done { id = i; verdict = Baselines.Verdict.Undecided _; _ })
      when i = id ->
      ()
    | Some (Serve.Protocol.Done _) -> Alcotest.fail "a cancelled job cannot decide"
    | Some _ -> await ()
    | None -> Alcotest.fail "connection closed before the cancel verdict"
  in
  await ();
  check bool "cancellation is prompt" true (Util.Stopwatch.elapsed watch < 30.0)

let disconnect_cancels () =
  with_dir @@ fun dir ->
  let store = Obs.Store.open_ dir in
  with_server ~jobs:1 ~store @@ fun server address ->
  let c = connect address in
  let s = slow_spec ~tag:"orphan" in
  Serve.Client.send c
    (Serve.Protocol.Submit
       {
         tag = s.Serve.Client.tag;
         model_name = s.Serve.Client.model_name;
         aig = s.Serve.Client.aig;
         engine = s.Serve.Client.engine;
         budget = s.Serve.Client.budget;
         quantify_backend = None;
       });
  (match Serve.Client.recv c with
  | Some (Serve.Protocol.Accepted _) -> ()
  | _ -> Alcotest.fail "expected accept");
  (match Serve.Client.recv c with
  | Some (Serve.Protocol.Started _) -> ()
  | _ -> Alcotest.fail "expected started");
  (* vanish mid-job: the daemon must cancel the orphan, not run it for
     4095 frames *)
  Serve.Client.close c;
  let scheduler = Serve.Server.scheduler server in
  let deadline = Util.Stopwatch.start () in
  let rec wait () =
    let stats = Serve.Scheduler.stats scheduler in
    if stats.Serve.Scheduler.completed >= 1 then ()
    else if Util.Stopwatch.elapsed deadline > 60.0 then
      Alcotest.fail "orphaned job still running 60s after its client disconnected"
    else begin
      Unix.sleepf 0.05;
      wait ()
    end
  in
  wait ();
  (* the stored report records the cancellation *)
  Obs.Store.flush store;
  match Obs.Store.entries store with
  | [ entry ] -> (
    match Obs.Store.load store entry.Obs.Store.id with
    | Error msg -> Alcotest.fail msg
    | Ok (_, report) -> (
      match
        Option.bind (Obs.Json.member "counters" report) (Obs.Json.member "serve.job.cancelled")
      with
      | Some (Obs.Json.Int 1) -> ()
      | _ -> Alcotest.fail "stored report must mark the job cancelled"))
  | entries ->
    Alcotest.fail (Printf.sprintf "expected exactly one stored run, found %d" (List.length entries))

(* ---------- the budget ceiling ---------- *)

let ceiling_caps_budget () =
  let ceiling = { Serve.Protocol.no_budget with max_conflicts = Some 1 } in
  with_server ~jobs:1 ~ceiling @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (* the client asks for an unlimited run of a model whose bmc refutation
     needs real SAT work; the server's 1-conflict pool must starve it *)
  match Serve.Client.submit_wait c (spec ~engine:"bmc" ~tag:"greedy" "counter" 6) with
  | Serve.Client.Finished { verdict = Baselines.Verdict.Undecided _; seconds; _ } ->
    check bool "budget-capped promptly" true (seconds < 30.0)
  | Serve.Client.Finished { verdict; _ } ->
    Alcotest.fail
      (Printf.sprintf "1-conflict ceiling cannot decide counter(6), got %s"
         (match verdict with
         | Baselines.Verdict.Proved -> "proved"
         | Baselines.Verdict.Falsified d -> Printf.sprintf "falsified:%d" d
         | Baselines.Verdict.Undecided _ -> "undecided"))
  | Serve.Client.Crashed { message; _ } -> Alcotest.fail message
  | Serve.Client.Refused { reason } -> Alcotest.fail reason

(* ---------- store contents after a batch ---------- *)

let store_after_batch () =
  with_dir @@ fun dir ->
  let store = Obs.Store.open_ dir in
  (with_server ~jobs:3 ~store @@ fun _server address ->
   let c = connect address in
   Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
   let specs =
     List.init 6 (fun i -> spec ~tag:(Printf.sprintf "b%d" i) ~engine:"bmc" "counter" 2)
   in
   let outcomes = Serve.Client.run_batch c specs in
   List.iter
     (function
       | Serve.Client.Finished { report = Some _; _ } -> ()
       | Serve.Client.Finished { report = None; _ } ->
         Alcotest.fail "every completed job must be stored"
       | Serve.Client.Crashed { message; _ } -> Alcotest.fail message
       | Serve.Client.Refused { reason } -> Alcotest.fail reason)
     outcomes);
  (* reopen cold: the daemon flushed its index at shutdown *)
  let reopened = Obs.Store.open_ dir in
  let entries = Obs.Store.entries reopened in
  check int "one stored run per job" 6 (List.length entries);
  List.iter
    (fun e ->
      check string "engine column" "bmc" e.Obs.Store.engine;
      check string "model column" "counter2" e.Obs.Store.model;
      match Obs.Store.load reopened e.Obs.Store.id with
      | Ok (_, report) -> (
        match
          Option.bind (Obs.Json.member "meta" report) (Obs.Json.member "tool")
        with
        | Some (Obs.Json.String "cbq-mc-serve") -> ()
        | _ -> Alcotest.fail "stored report must name the serving tool")
      | Error msg -> Alcotest.fail msg)
    entries

(* ---------- engine aliases ---------- *)

(* the daemon resolves engine names through the Suite table: the [cbq]
   alias is accepted and stored under the canonical [cbq-bwd], so CLI and
   serve runs of one engine group together in the store *)
let alias_submit () =
  with_dir @@ fun dir ->
  let store = Obs.Store.open_ dir in
  (with_server ~jobs:1 ~store @@ fun _server address ->
   let c = connect address in
   Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
   match Serve.Client.submit_wait c (spec ~engine:"cbq" ~tag:"alias" "counter" 2) with
   | Serve.Client.Finished { verdict = Baselines.Verdict.Falsified 3; report = Some _; _ } -> ()
   | Serve.Client.Finished _ -> Alcotest.fail "cbq on counter(2) must falsify at depth 3, stored"
   | Serve.Client.Crashed { message; _ } -> Alcotest.fail message
   | Serve.Client.Refused { reason } -> Alcotest.fail ("alias refused: " ^ reason));
  let reopened = Obs.Store.open_ dir in
  match Obs.Store.entries reopened with
  | [ e ] -> (
    check string "engine column" "cbq-bwd" e.Obs.Store.engine;
    match Obs.Store.load reopened e.Obs.Store.id with
    | Ok (_, report) -> (
      match Option.bind (Obs.Json.member "meta" report) (Obs.Json.member "engine") with
      | Some (Obs.Json.String name) -> check string "engine meta" "cbq-bwd" name
      | _ -> Alcotest.fail "stored report must name its engine")
    | Error msg -> Alcotest.fail msg)
  | entries ->
    Alcotest.fail (Printf.sprintf "expected exactly one stored run, found %d" (List.length entries))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests round-trip" `Quick requests_roundtrip;
          Alcotest.test_case "events round-trip" `Quick events_roundtrip;
          Alcotest.test_case "malformed frames are rejected" `Quick malformed_frames;
          Alcotest.test_case "garbage on the wire is survivable" `Quick malformed_over_the_wire;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "batch verdicts match sequential" `Quick batch_matches_sequential;
          Alcotest.test_case "bad submits are refused" `Quick submit_rejections;
          Alcotest.test_case "engine alias is accepted and stored canonically" `Quick
            alias_submit;
          Alcotest.test_case "explicit cancel" `Quick explicit_cancel;
          Alcotest.test_case "client disconnect cancels its job" `Quick disconnect_cancels;
          Alcotest.test_case "server ceiling caps the client budget" `Quick ceiling_caps_budget;
          Alcotest.test_case "batch lands in the shared store" `Quick store_after_batch;
        ] );
    ]
