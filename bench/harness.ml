(* The bench harness: one flag parser, one row registry, the two report
   shapes and one exit rule for every benchmark row (the paper tables in
   tables.ml and the sim/sat/par/quantify/serve suites).

   Usage:
     dune exec bench/bench.exe -- [FLAG...] [ROW...]

   With no ROW the harness runs every paper table (T1 ... B1) and the
   Bechamel micro-benchmarks (MICRO); otherwise it runs the named rows,
   case-insensitively, in registry order. Suite rows (sim, sat, par,
   par-probe, quantify, serve) only run when named.

   Flags:
     --quick             smaller parameters (CI speed)
     --no-micro          leave MICRO out of the default row set
     --stats-dir=DIR     paper tables: one numbered DIR/NNN-<experiment>.json
                         run report per experiment; suites: one
                         DIR/BENCH_<suite>.json (schema: docs/OBSERVABILITY.md)
     --store=DIR         also append each paper-table report to a run-report
                         store (cbq_mc report)
     --row-timeout=SEC   fresh SEC-second wall-clock governor per engine run of
                         the paper tables (rows degrade to UNDECIDED)
     --timeout=SEC       par/par-probe: governor budget per engine run (default 2)
     --jobs=N            par: racing/fuzz domains; serve: daemon
                         workers (default 4)
     --count=N           serve: queued jobs (default 1000, 200 with --quick)

   An unknown flag or row, or a malformed number, exits 2 with one line
   on stderr. A row that fails (a [fail] call or an exception) does not
   stop the run: the harness writes every report, then exits 1. *)

type options = {
  quick : bool;
  micro : bool;
  stats_dir : string option;
  store_dir : string option;
  row_timeout : float option;
  timeout : float;
  jobs : int;
  count : int option;
}

(* a suite row writes one BENCH_<suite>.json report under --stats-dir *)
type suite = { file : string; tool : string; experiment : options -> string }

type row = {
  name : string;
  default : options -> bool; (* run when no row is named *)
  suite : suite option; (* None: the row opens its own reports via [with_report] *)
  run : options -> unit;
}

let table ?(default = fun _ -> true) name run = { name; default; suite = None; run }

(* suites only run when named *)
let suite_row name suite run = { name; default = (fun _ -> false); suite = Some suite; run }

let line fmt = Format.printf fmt

let failures = ref 0
let current_row = ref ""

let fail fmt =
  Format.kasprintf
    (fun s ->
      incr failures;
      Format.eprintf "bench: %s: FAIL: %s@." !current_row s)
    fmt

(* ---------------------------------------------------------------- *)
(* parsing                                                          *)
(* ---------------------------------------------------------------- *)

let usage_error fmt =
  Format.kasprintf
    (fun s ->
      Format.eprintf "bench: %s@." s;
      exit 2)
    fmt

let positive_int flag s =
  match int_of_string_opt s with
  | Some n when n > 0 -> n
  | _ -> usage_error "%s expects a positive integer, got %S" flag s

let positive_float flag s =
  match float_of_string_opt s with
  | Some x when x > 0.0 && Float.is_finite x -> x
  | _ -> usage_error "%s expects a positive number of seconds, got %S" flag s

let defaults =
  {
    quick = false;
    micro = true;
    stats_dir = None;
    store_dir = None;
    row_timeout = None;
    timeout = 2.0;
    jobs = 4;
    count = None;
  }

(* one [--flag=VALUE] argument *)
let set_value o arg =
  let flag, v =
    match String.index_opt arg '=' with
    | Some k -> (String.sub arg 0 k, String.sub arg (k + 1) (String.length arg - k - 1))
    | None -> (arg, "")
  in
  let dir () = if v = "" then usage_error "%s expects %s=DIR" flag flag else v in
  match flag with
  | "--stats-dir" -> { o with stats_dir = Some (dir ()) }
  | "--store" -> { o with store_dir = Some (dir ()) }
  | "--row-timeout" -> { o with row_timeout = Some (positive_float flag v) }
  | "--timeout" -> { o with timeout = positive_float flag v }
  | "--jobs" -> { o with jobs = positive_int flag v }
  | "--count" -> { o with count = Some (positive_int flag v) }
  | _ -> usage_error "unknown flag %s" arg

let parse rows argv =
  let row_name arg =
    let key = String.lowercase_ascii arg in
    match List.find_opt (fun r -> String.lowercase_ascii r.name = key) rows with
    | Some r -> r.name
    | None ->
      usage_error "unknown row %s (rows: %s)" arg
        (String.concat " " (List.map (fun r -> r.name) rows))
  in
  Array.to_list argv |> List.tl
  |> List.fold_left
       (fun (o, names) arg ->
         match arg with
         | "--quick" -> ({ o with quick = true }, names)
         | "--no-micro" -> ({ o with micro = false }, names)
         | _ when String.starts_with ~prefix:"-" arg -> (set_value o arg, names)
         | _ -> (o, row_name arg :: names))
       (defaults, [])

(* ---------------------------------------------------------------- *)
(* reports                                                          *)
(* ---------------------------------------------------------------- *)

(* the store is opened once, on the first report that needs it *)
let store_handle = ref None

let store o =
  match o.store_dir with
  | None -> None
  | Some dir ->
    if Option.is_none !store_handle then store_handle := Some (Obs.Store.open_ dir);
    !store_handle

let report_seq = ref 0

(* With --stats-dir or --store, [f] runs under a fresh telemetry window
   and leaves one JSON run report, numbered in emission order. Without
   either, [f] runs untouched — collection stays disabled and the tables
   time the uninstrumented fast path. *)
let with_report o label f =
  match (o.stats_dir, o.store_dir) with
  | None, None -> f ()
  | _ ->
    Option.iter Util.Fs.mkdirs o.stats_dir;
    Obs.reset ();
    Obs.set_enabled true;
    (* disarm even if the row raises, so one broken experiment cannot
       leak its telemetry into the next report *)
    let result = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
    Obs.meta "tool" "bench";
    Obs.meta "experiment" label;
    incr report_seq;
    let sanitized =
      String.map
        (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '-')
        label
    in
    Option.iter
      (fun dir ->
        Obs.write_report (Filename.concat dir (Printf.sprintf "%03d-%s.json" !report_seq sanitized)))
      o.stats_dir;
    Option.iter (fun st -> ignore (Obs.Store.append st (Obs.report ()))) (store o);
    Obs.reset ();
    result

(* a suite row runs under one telemetry window (collected only with
   --stats-dir, unless the row switches it on itself) and ends in one
   report, written even when the row failed; [body] never raises *)
let run_suite o (s : suite) body =
  Obs.reset ();
  Option.iter
    (fun dir ->
      Util.Fs.mkdirs dir;
      Obs.set_enabled true)
    o.stats_dir;
  body ();
  Obs.set_enabled false;
  Option.iter
    (fun dir ->
      let path = Filename.concat dir s.file in
      Obs.meta "tool" s.tool;
      Obs.meta "experiment" (s.experiment o);
      Obs.write_report path;
      line "report: %s@." path)
    o.stats_dir

(* ---------------------------------------------------------------- *)
(* running the rows                                                 *)
(* ---------------------------------------------------------------- *)

let main rows =
  let o, names = parse rows Sys.argv in
  let selected =
    List.filter (fun r -> if names = [] then r.default o else List.mem r.name names) rows
  in
  line "circuit-based quantification benchmark harness%s@."
    (if o.quick then " (quick mode)" else "");
  List.iter
    (fun r ->
      current_row := r.name;
      let body () =
        try r.run o with e -> fail "uncaught exception %s" (Printexc.to_string e)
      in
      match r.suite with None -> body () | Some s -> run_suite o s body)
    selected;
  line "@.done.@.";
  if !failures > 0 then exit 1
