(* Focused tests of Phase III local refinement: violation elimination,
   congestion recovery, bookkeeping consistency and idempotence. *)
module Netlist = Eda_netlist.Netlist
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Usage = Eda_grid.Usage
module Layout = Eda_sino.Layout
open Gsino

let tech = Tech.default

(* the base routing is only read by refinement, so tests share it *)
let prepared =
  lazy
    (let nl =
       Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:19
         Generator.ibm04
     in
     let grid, base = Flow.prepare tech nl in
     (nl, grid, base))

(* a setup dense enough (rate 0.5) to force pass-1 work *)
let setup =
  lazy
    (let nl, grid, base = Lazy.force prepared in
     let sens = Sensitivity.make ~seed:23 ~rate:0.50 in
     let lsk_model = Tech.lsk_model tech in
     let budget =
       Budget.uniform ~lsk:lsk_model ~noise_v:tech.Tech.noise_bound_v
         ~gcell_um:nl.Netlist.gcell_um nl
     in
     let phase2 =
       Phase2.solve ~grid ~netlist:nl ~routes:base ~kth:(Budget.kth budget)
         ~sensitivity:sens ~keff:tech.Tech.keff ~mode:Phase2.Min_area ~seed:3 ()
     in
     let usage =
       Usage.of_routes grid ~gcell_um:nl.Netlist.gcell_um (Array.to_list base)
     in
     Phase2.apply_shields usage phase2;
     let pre_violations =
       Noise.violations ~grid ~gcell_um:nl.Netlist.gcell_um ~phase2 ~lsk_model
         ~netlist:nl ~routes:base ~bound_v:tech.Tech.noise_bound_v ()
     in
     let stats =
       Refine.run ~grid ~netlist:nl ~routes:base ~phase2 ~usage ~lsk_model
         ~bound_v:tech.Tech.noise_bound_v ()
     in
     (nl, grid, base, phase2, usage, pre_violations, stats))

let test_pass1_eliminates () =
  let _, _, _, _, _, pre, stats = Lazy.force setup in
  Alcotest.(check bool) "there was work to do" true (List.length pre > 0);
  Alcotest.(check int) "no residual violations" 0 stats.Refine.residual_violations;
  Alcotest.(check bool) "pass1 did the fixing" true
    (stats.Refine.pass1_nets_fixed > 0)

let test_post_violations_zero () =
  let nl, grid, base, phase2, _, _, _ = Lazy.force setup in
  let lsk_model = Tech.lsk_model tech in
  let v =
    Noise.violations ~grid ~gcell_um:nl.Netlist.gcell_um ~phase2 ~lsk_model
      ~netlist:nl ~routes:base ~bound_v:tech.Tech.noise_bound_v ()
  in
  Alcotest.(check int) "recomputed violations also zero" 0 (List.length v)

let test_usage_sync () =
  (* after refinement, the usage accounting must match the phase2 store *)
  let _, _, _, phase2, usage, _, _ = Lazy.force setup in
  Phase2.iter phase2 (fun (r, d) s ->
      Alcotest.(check int)
        (Printf.sprintf "region %d %s shields in sync" r (Dir.to_string d))
        (Layout.num_shields s.Phase2.layout)
        (Usage.nss usage r d))

let test_layouts_still_capacitive_free () =
  let _, _, _, phase2, _, _, _ = Lazy.force setup in
  Phase2.iter phase2 (fun _ s ->
      Alcotest.(check int) "no adjacent sensitive pairs" 0
        (Layout.cap_violations s.Phase2.layout))

let test_idempotent () =
  (* a second refinement round finds nothing to fix *)
  let nl, grid, base, phase2, usage, _, _ = Lazy.force setup in
  let lsk_model = Tech.lsk_model tech in
  let stats2 =
    Refine.run ~grid ~netlist:nl ~routes:base ~phase2 ~usage ~lsk_model
      ~bound_v:tech.Tech.noise_bound_v ()
  in
  Alcotest.(check int) "no new fixes" 0 stats2.Refine.pass1_nets_fixed;
  Alcotest.(check int) "still zero residual" 0 stats2.Refine.residual_violations

let test_stats_printable () =
  let _, _, _, _, _, _, stats = Lazy.force setup in
  let s = Format.asprintf "%a" Refine.pp_stats stats in
  Alcotest.(check bool) "non-empty rendering" true (String.length s > 20)

(* Refinement is a pure function of the Phase2 store: these figures were
   recorded from the full-recompute implementation (every pass-1 round
   rescanning the netlist, every pass-2 round re-sorting the shielded
   panels), so the incremental worklist and noise cache must reproduce its
   picks exactly.  Row: (seed, rate, flow, stats, total shields, MD5 of
   the sorted per-panel "<region><dir>:<shields>;" vector). *)
let pinned =
  [
    (1, 0.3, Flow.Isino, (4, 16, 34, 992, 0), 101, "0b634b4466d1a38f0a3b44c04a314156");
    (1, 0.3, Flow.Gsino, (4, 29, 42, 1323, 0), 138, "66343b31e2aca8aa7edf1041e091739f");
    (1, 0.5, Flow.Isino, (5, 31, 49, 1501, 0), 199, "8395b9c3714f4109381b8c24a7cd34f2");
    (1, 0.5, Flow.Gsino, (5, 26, 42, 1451, 0), 190, "662cd67dc13197991f17b6d094052570");
    (2, 0.3, Flow.Isino, (4, 29, 36, 1090, 0), 108, "db91aa25dcfca9789fb6ae62ac264d19");
    (2, 0.3, Flow.Gsino, (2, 8, 55, 1126, 0), 78, "0e153ec6a1b09ac1bffba6bc1002e042");
    (2, 0.5, Flow.Isino, (7, 44, 42, 1522, 0), 216, "a398902a3ce51501290b50377ede3f39");
    (2, 0.5, Flow.Gsino, (6, 34, 48, 1453, 0), 195, "1d9e4cbd59d90c4e21fe12d657dc0c0f");
    (3, 0.3, Flow.Isino, (3, 7, 38, 1090, 0), 92, "4bf9c4e55d55dccf52ec9f5c8d677a1d");
    (3, 0.3, Flow.Gsino, (3, 5, 44, 967, 0), 65, "fe9bda230acd4d9c22f2cafe2a180438");
    (3, 0.5, Flow.Isino, (10, 37, 39, 1487, 0), 190, "f44dcdf29de00129d875e8f10d0e5307");
    (3, 0.5, Flow.Gsino, (4, 32, 45, 1516, 0), 202, "12120f0ba5a829ab0fdeaf25790e7b24");
  ]

let shield_vector phase2 =
  let acc = ref [] in
  Phase2.iter phase2 (fun key s ->
      acc := (key, Layout.num_shields s.Phase2.layout) :: !acc);
  List.sort compare !acc

let shield_digest phase2 =
  let b = Buffer.create 1024 in
  List.iter
    (fun ((r, d), n) -> Printf.bprintf b "%d%s:%d;" r (Dir.to_string d) n)
    (shield_vector phase2);
  Digest.to_hex (Digest.string (Buffer.contents b))

let stats_tuple s =
  Refine.
    ( s.pass1_nets_fixed,
      s.pass1_resolves,
      s.pass2_shields_removed,
      s.pass2_resolves,
      s.residual_violations )

let test_picks_pinned () =
  List.iter
    (fun seed ->
      let nl =
        Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed
          Generator.ibm01
      in
      let grid, base = Flow.prepare tech nl in
      List.iter
        (fun (_, rate, kind, stats, shields, digest) ->
          let sensitivity = Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate in
          let base = if kind = Flow.Gsino then None else Some base in
          let config = { Flow.Config.default with Flow.Config.kind; seed } in
          let r = Flow.run ~grid ?base config tech ~sensitivity nl in
          let what = Printf.sprintf "seed %d rate %.1f %s" seed rate (Flow.kind_name kind) in
          Alcotest.(check (list int))
            (what ^ " stats")
            (let a, b, c, d, e = stats in [ a; b; c; d; e ])
            (let a, b, c, d, e = stats_tuple (Option.get r.Flow.refine_stats) in
             [ a; b; c; d; e ]);
          Alcotest.(check int) (what ^ " shields") shields r.Flow.shields;
          Alcotest.(check string) (what ^ " per-panel shields") digest
            (shield_digest r.Flow.phase2))
        (List.filter (fun (s, _, _, _, _, _) -> s = seed) pinned))
    [ 1; 2; 3 ]

(* a fresh copy of the pre-refinement state of [setup], refined on [pool]
   against [bound_v] *)
let refine_fresh ?pool ?(bound_v = tech.Tech.noise_bound_v) () =
  let nl, grid, base = Lazy.force prepared in
  let lsk_model = Tech.lsk_model tech in
  let budget =
    Budget.uniform ~lsk:lsk_model ~noise_v:tech.Tech.noise_bound_v
      ~gcell_um:nl.Netlist.gcell_um nl
  in
  let phase2 =
    Phase2.solve ~grid ~netlist:nl ~routes:base ~kth:(Budget.kth budget)
      ~sensitivity:(Sensitivity.make ~seed:23 ~rate:0.50)
      ~keff:tech.Tech.keff ~mode:Phase2.Min_area ~seed:3 ?pool ()
  in
  let usage =
    Usage.of_routes grid ~gcell_um:nl.Netlist.gcell_um (Array.to_list base)
  in
  Phase2.apply_shields usage phase2;
  let stats =
    Refine.run ~grid ~netlist:nl ~routes:base ~phase2 ~usage ~lsk_model ~bound_v
      ?pool ()
  in
  let audit =
    Noise.audit ~grid ~gcell_um:nl.Netlist.gcell_um ~phase2 ~lsk_model
      ~netlist:nl ~routes:base ~bound_v ()
  in
  (stats, shield_vector phase2, List.filter (fun e -> e.Noise.violating) audit)

let test_jobs_equivalent () =
  let s1, v1, _ = refine_fresh () in
  let s2, v2, _ =
    Eda_exec.with_pool ~jobs:2 (fun pool -> refine_fresh ~pool ())
  in
  Alcotest.(check bool) "jobs=2 stats = jobs=1" true (stats_tuple s1 = stats_tuple s2);
  Alcotest.(check bool) "jobs=2 shields = jobs=1" true (v1 = v2)

let test_residual_matches_audit () =
  (* the residual count comes from the incremental noise cache; under a
     bound too tight for pass 1 to meet everywhere, many panels are
     re-solved and some nets are given up, and a fresh full audit of the
     refined store must still count the same violators *)
  let stats, _, violators = refine_fresh ~bound_v:0.01 () in
  Alcotest.(check bool) "some nets left violating" true
    (stats.Refine.residual_violations > 0);
  Alcotest.(check int) "audit agrees with refine residual"
    (List.length violators) stats.Refine.residual_violations

let suites =
  [
    ( "gsino.refine",
      [
        Alcotest.test_case "pass1 eliminates violations" `Slow test_pass1_eliminates;
        Alcotest.test_case "post violations zero" `Slow test_post_violations_zero;
        Alcotest.test_case "usage stays in sync" `Slow test_usage_sync;
        Alcotest.test_case "layouts capacitive-free" `Slow test_layouts_still_capacitive_free;
        Alcotest.test_case "idempotent" `Slow test_idempotent;
        Alcotest.test_case "stats printable" `Slow test_stats_printable;
        Alcotest.test_case "picks pinned" `Slow test_picks_pinned;
        Alcotest.test_case "jobs=2 equals jobs=1" `Slow test_jobs_equivalent;
        Alcotest.test_case "residual matches audit" `Slow test_residual_matches_audit;
      ] );
  ]
