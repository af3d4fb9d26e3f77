(* Tests for the Eda_exec domain pool: sequential-bypass semantics,
   ordered reduction, exception propagation, pool reuse, the
   Metrics.absorb sharding contract, and the headline guarantee — a
   GSINO flow at jobs = 4 produces exactly the routing solution and
   metric series of jobs = 1. *)
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Metrics = Eda_obs.Metrics
open Gsino

(* ------------------------- pool mechanics --------------------------- *)

let test_default_jobs_bounds () =
  let j = Eda_exec.default_jobs () in
  Alcotest.(check bool) "at least 1" true (j >= 1);
  Alcotest.(check bool) "capped at 8" true (j <= 8);
  Alcotest.(check int) "cap 1 forces sequential" 1 (Eda_exec.default_jobs ~cap:1 ());
  Alcotest.(check int) "jobs recorded" 3 (Eda_exec.jobs (Eda_exec.with_pool ~jobs:3 Fun.id))

let test_map_matches_sequential () =
  let f i = (i * 37) mod 101 in
  let expect = Array.init 1000 f in
  Eda_exec.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check bool) "parallel_map = Array.init" true
    (Eda_exec.parallel_map ~pool 1000 f = expect);
  Alcotest.(check bool) "tiny chunk too" true
    (Eda_exec.parallel_map ~pool ~chunk:1 1000 f = expect);
  Alcotest.(check bool) "no pool = Array.init" true
    (Eda_exec.parallel_map 1000 f = expect)

let test_empty_and_small_ranges () =
  Eda_exec.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check int) "empty map" 0
    (Array.length (Eda_exec.parallel_map ~pool 0 (fun i -> i)));
  Eda_exec.parallel_iter ~pool 0 (fun _ -> Alcotest.fail "body on empty range");
  (* fewer items than domains *)
  Alcotest.(check bool) "n=2 over 4 domains" true
    (Eda_exec.parallel_map ~pool 2 string_of_int = [| "0"; "1" |])

let test_iter_covers_every_index () =
  let n = 777 in
  let hits = Array.make n 0 in
  (* each slot is written by exactly one iteration: no lock needed *)
  Eda_exec.with_pool ~jobs:4 (fun pool ->
      Eda_exec.parallel_iter ~pool n (fun i -> hits.(i) <- hits.(i) + 1));
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_map_array () =
  let arr = Array.init 64 (fun i -> 64 - i) in
  Eda_exec.with_pool ~jobs:2 @@ fun pool ->
  Alcotest.(check bool) "map_array in order" true
    (Eda_exec.map_array ~pool string_of_int arr = Array.map string_of_int arr)

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  Eda_exec.with_pool ~jobs:4 @@ fun pool ->
  (try
     ignore
       (Eda_exec.parallel_map ~pool 200 (fun i ->
            if i = 137 then raise (Boom i) else i));
     Alcotest.fail "expected Boom"
   with Boom i -> Alcotest.(check int) "the raising index" 137 i);
  (* the failed section drained; the same pool keeps working *)
  let a = Eda_exec.parallel_map ~pool 50 (fun i -> i * i) in
  Alcotest.(check int) "pool reusable after exception" (49 * 49) a.(49)

let test_pool_reuse_many_sections () =
  Eda_exec.with_pool ~jobs:3 @@ fun pool ->
  for round = 1 to 20 do
    let a = Eda_exec.parallel_map ~pool 100 (fun i -> i + round) in
    Alcotest.(check int)
      (Printf.sprintf "round %d" round)
      (99 + round) a.(99)
  done;
  Eda_exec.shutdown pool;
  Eda_exec.shutdown pool (* idempotent *)

let test_nested_section_degrades () =
  (* a section entered while one is running must not deadlock *)
  Eda_exec.with_pool ~jobs:2 @@ fun pool ->
  let a =
    Eda_exec.parallel_map ~pool 8 (fun i ->
        Array.fold_left ( + ) 0 (Eda_exec.parallel_map ~pool 4 (fun j -> i + j)))
  in
  Alcotest.(check int) "nested result" (4 * 7 + 6) a.(7)

(* --------------------- Metrics sharding contract -------------------- *)

let test_absorb_roundtrip () =
  let c = Metrics.counter "test_exec.absorb_c" in
  let g = Metrics.gauge "test_exec.absorb_g" in
  let h = Metrics.histogram "test_exec.absorb_h" in
  Metrics.add c 5;
  Metrics.set g 2.5;
  Metrics.observe h 3.0;
  let c0 = Metrics.counter_value c and g0 = Metrics.gauge_value g in
  let n0 = (Metrics.histogram_summary h).Metrics.count in
  let shard = Metrics.snapshot () in
  (* absorbing a shard adds counters/histograms and accumulates gauges *)
  Metrics.absorb shard;
  Alcotest.(check int) "counter added" (2 * c0) (Metrics.counter_value c);
  Alcotest.(check (float 1e-9)) "gauge accumulated" (2.0 *. g0)
    (Metrics.gauge_value g);
  Alcotest.(check int) "histogram count added" (2 * n0)
    (Metrics.histogram_summary h).Metrics.count

let test_worker_metrics_folded_in () =
  (* counts recorded inside worker domains must land in the caller's
     registry once the section ends, independent of jobs *)
  let count jobs =
    let c =
      Metrics.counter
        ~labels:[ ("jobs", string_of_int jobs) ]
        "test_exec.folded"
    in
    Eda_exec.with_pool ~jobs (fun pool ->
        Eda_exec.parallel_iter ~pool 500 (fun _ -> Metrics.incr c));
    Metrics.counter_value c
  in
  Alcotest.(check int) "sequential count" 500 (count 1);
  Alcotest.(check int) "parallel count" 500 (count 4)

let test_pool_observability_series () =
  Metrics.reset ();
  Eda_exec.with_pool ~jobs:4 (fun pool ->
      ignore (Eda_exec.parallel_map ~pool 2000 (fun i -> i * i)));
  let snap = Metrics.snapshot () in
  let busy =
    List.filter
      (fun (n, _, _) -> n = "exec.domain_busy_ns")
      (Metrics.entries snap)
  in
  Alcotest.(check bool) "per-domain busy exported" true (busy <> []);
  let total_busy =
    List.fold_left
      (fun s (_, labels, v) ->
        Alcotest.(check bool) "domain label present" true
          (List.mem_assoc "domain" labels);
        match v with
        | Metrics.Counter c ->
            Alcotest.(check bool) "busy non-negative" true (c >= 0);
            s + c
        | Metrics.Gauge _ | Metrics.Histogram _ ->
            Alcotest.fail "busy_ns should be a counter")
      0 busy
  in
  Alcotest.(check bool) "some domain did work" true (total_busy > 0);
  Alcotest.(check bool) "sections counted" true
    (Metrics.counter_total snap "exec.sections" > 0);
  Alcotest.(check bool) "steal series exported" true
    (List.exists (fun (n, _, _) -> n = "exec.steals") (Metrics.entries snap));
  match Metrics.find snap "exec.imbalance" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check bool) "imbalance observed" true (h.Metrics.count >= 1)
  | Some (Metrics.Counter _ | Metrics.Gauge _) | None ->
      Alcotest.fail "exec.imbalance histogram missing"

(* -------------------- end-to-end determinism ------------------------ *)

let tech = Tech.default

(* exec.* series are expected to differ (they describe the pool itself);
   gc.* deltas depend on what the coordinator domain happened to
   allocate; flow.phase_seconds is wall-clock.  Everything else must
   match, the sino.cache_* series included: no flow uses a panel cache
   (DESIGN §10), so they read 0 under any schedule. *)
let comparable snap =
  List.filter
    (fun (name, _, _) ->
      name <> "flow.phase_seconds"
      && (not (String.starts_with ~prefix:"exec." name))
      && not (String.starts_with ~prefix:"gc." name))
    (Metrics.entries snap)

let gsino_with ~jobs =
  let nl =
    Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7
      Generator.ibm01
  in
  let config =
    { Flow.Config.default with Flow.Config.kind = Flow.Gsino; seed = 5; jobs }
  in
  let grid, _ = Flow.prepare ~config tech nl in
  let sens = Sensitivity.make ~seed:11 ~rate:0.30 in
  Metrics.reset ();
  let r = Flow.run ~grid config tech ~sensitivity:sens nl in
  (r, comparable (Metrics.snapshot ()))

let test_flow_jobs_deterministic () =
  let r1, m1 = gsino_with ~jobs:1 in
  let r4, m4 = gsino_with ~jobs:4 in
  Alcotest.(check bool) "identical routes" true (r1.Flow.routes = r4.Flow.routes);
  Alcotest.(check int) "identical shields" r1.Flow.shields r4.Flow.shields;
  Alcotest.(check bool) "identical violations" true
    (r1.Flow.violations = r4.Flow.violations);
  Alcotest.(check (float 1e-9)) "identical wire length" r1.Flow.total_wl_um
    r4.Flow.total_wl_um;
  Alcotest.(check int) "same metric series count" (List.length m1)
    (List.length m4);
  List.iter2
    (fun (n1, l1, v1) (n2, l2, v2) ->
      Alcotest.(check string) "series name" n1 n2;
      Alcotest.(check bool) (n1 ^ " labels equal") true (l1 = l2);
      Alcotest.(check bool) (n1 ^ " value equal") true (v1 = v2))
    m1 m4

let suites =
  [
    ( "exec.pool",
      [
        Alcotest.test_case "default_jobs bounds" `Quick test_default_jobs_bounds;
        Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
        Alcotest.test_case "empty and small ranges" `Quick test_empty_and_small_ranges;
        Alcotest.test_case "iter covers every index" `Quick test_iter_covers_every_index;
        Alcotest.test_case "map_array" `Quick test_map_array;
        Alcotest.test_case "exception propagates, pool survives" `Quick
          test_exception_propagates_and_pool_survives;
        Alcotest.test_case "pool reuse over many sections" `Quick
          test_pool_reuse_many_sections;
        Alcotest.test_case "nested section degrades" `Quick test_nested_section_degrades;
      ] );
    ( "exec.metrics",
      [
        Alcotest.test_case "absorb round-trip" `Quick test_absorb_roundtrip;
        Alcotest.test_case "worker metrics folded in" `Quick
          test_worker_metrics_folded_in;
        Alcotest.test_case "pool observability series" `Quick
          test_pool_observability_series;
      ] );
    ( "exec.determinism",
      [
        Alcotest.test_case "gsino flow jobs=4 = jobs=1" `Slow
          test_flow_jobs_deterministic;
      ] );
  ]
