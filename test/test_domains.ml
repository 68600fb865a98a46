(* Domain-safety stress: the registry and the resource governor under
   concurrent OCaml 5 domains.

   The acceptance bar for the concurrent registry is exactness, not
   approximate sanity: 4 domains hammering one counter with 1M [incr]
   each must read back precisely 4M — an atomic-free implementation
   loses updates here with near-certainty at this volume. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let with_obs enabled f =
  Obs.reset ();
  Obs.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) f

let num_domains = 4
let incrs_per_domain = 1_000_000

let spawn_all n body = List.init n (fun i -> Domain.spawn (fun () -> body i))
let join_all = List.iter Domain.join

let test_counter_exact_totals () =
  with_obs true @@ fun () ->
  let shared = Obs.counter "test.domains.shared" in
  join_all
    (spawn_all num_domains (fun _ ->
         for _ = 1 to incrs_per_domain do
           Obs.incr shared
         done));
  check int "4 domains x 1M incr read back exactly"
    (num_domains * incrs_per_domain)
    (Obs.value shared)

let test_add_and_distinct_counters () =
  with_obs true @@ fun () ->
  (* mixed traffic: every domain adds to the shared cell and owns a
     private one; both must be exact, and registration of the same name
     from racing domains must resolve to one cell *)
  let shared = Obs.counter "test.domains.mixed" in
  join_all
    (spawn_all num_domains (fun i ->
         let own = Obs.counter (Printf.sprintf "test.domains.own.%d" i) in
         for _ = 1 to 50_000 do
           Obs.add shared 3;
           Obs.incr own
         done));
  check int "shared adds exact" (num_domains * 50_000 * 3) (Obs.value shared);
  for i = 0 to num_domains - 1 do
    check int
      (Printf.sprintf "domain %d's own counter" i)
      50_000
      (Obs.value_of (Printf.sprintf "test.domains.own.%d" i))
  done

let test_span_histogram_exact_counts () =
  with_obs true @@ fun () ->
  let s = Obs.span "test.domains.span" in
  let h = Obs.histogram "test.domains.hist" in
  let per_domain = 20_000 in
  join_all
    (spawn_all num_domains (fun i ->
         for k = 1 to per_domain do
           Obs.add_seconds s 0.001;
           Obs.observe h ((i * per_domain) + k)
         done));
  check int "span count exact" (num_domains * per_domain) (Obs.span_count s);
  check bool "span total accumulated" true
    (Obs.span_seconds s > float_of_int (num_domains * per_domain) *. 0.001 *. 0.999);
  check int "hist count exact" (num_domains * per_domain) (Obs.hist_count h);
  (* sum of (i*per_domain + k) over i in 0..3, k in 1..per_domain *)
  let offsets = per_domain * per_domain * (num_domains * (num_domains - 1) / 2) in
  let ladders = num_domains * (per_domain * (per_domain + 1) / 2) in
  check int "hist sum exact" (offsets + ladders) (Obs.hist_sum h)

(* a report assembled while other domains are still recording must be
   internally consistent JSON (no torn span/hist snapshots) *)
let test_report_under_fire () =
  with_obs true @@ fun () ->
  let s = Obs.span "test.domains.report_span" in
  let stop = Atomic.make false in
  let writers =
    spawn_all 2 (fun _ ->
        while not (Atomic.get stop) do
          Obs.add_seconds s 0.0001;
          Obs.incr (Obs.counter "test.domains.report_counter")
        done)
  in
  (* the writers may not be scheduled before 50 reports finish: wait
     (bounded) until one has recorded, so the reports race real writes *)
  let started = Util.Stopwatch.start () in
  while Obs.span_count s = 0 && Util.Stopwatch.elapsed started < 10.0 do
    Unix.sleepf 0.001
  done;
  for _ = 1 to 50 do
    let json = Obs.report () in
    match Obs.Json.of_string (Obs.Json.to_string json) with
    | Ok _ -> ()
    | Error msg ->
      Atomic.set stop true;
      join_all writers;
      Alcotest.fail ("report under concurrent writes unparsable: " ^ msg)
  done;
  Atomic.set stop true;
  join_all writers;
  check bool "writers made progress" true (Obs.span_count s > 0)

(* ---------- governor ---------- *)

(* concurrent draining of the conflict pool: the trip must fire the
   notify hook exactly once no matter how many domains cross zero *)
let test_limits_single_trip () =
  let limits = Util.Limits.create ~max_conflicts:100_000 () in
  let fired = Atomic.make 0 in
  Util.Limits.set_notify limits (fun _ -> Atomic.incr fired);
  join_all
    (spawn_all num_domains (fun _ ->
         for _ = 1 to 1_000 do
           Util.Limits.charge_conflicts limits 50
         done));
  (* 4 domains x 1000 x 50 = 200k charges against a 100k pool *)
  check bool "pool tripped" true (Util.Limits.exhausted limits = Some Util.Limits.Conflicts);
  check int "notify fired exactly once" 1 (Atomic.get fired);
  check bool "budget clamps at zero" true (Util.Limits.conflict_budget limits = Some 0)

let test_limits_concurrent_aig_highwater () =
  let limits = Util.Limits.create ~max_aig_nodes:10_000_000 () in
  join_all
    (spawn_all num_domains (fun i ->
         for k = 1 to 10_000 do
           ignore (Util.Limits.check_aig_nodes limits ((i * 10_000) + k))
         done));
  (* high-water = the largest value any domain reported *)
  check bool "headroom reflects the global high-water" true
    (Util.Limits.aig_headroom limits = Some (10_000_000 - (((num_domains - 1) * 10_000) + 10_000)));
  check bool "no trip below the ceiling" true (Util.Limits.exhausted limits = None)

let () =
  Alcotest.run "domains"
    [
      ( "registry",
        [
          Alcotest.test_case "4 domains x 1M incr, exact total" `Quick test_counter_exact_totals;
          Alcotest.test_case "mixed add + per-domain counters" `Quick
            test_add_and_distinct_counters;
          Alcotest.test_case "span/histogram exact counts" `Quick
            test_span_histogram_exact_counts;
          Alcotest.test_case "report while domains record" `Quick test_report_under_fire;
        ] );
      ( "governor",
        [
          Alcotest.test_case "concurrent drain trips notify once" `Quick
            test_limits_single_trip;
          Alcotest.test_case "aig high-water across domains" `Quick
            test_limits_concurrent_aig_highwater;
        ] );
    ]
