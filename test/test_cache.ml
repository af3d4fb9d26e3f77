(* Content-addressed panel cache: LRU mechanics, verified lookups, the
   solver's canonical remapping (cache-on ≡ cache-off, DESIGN §10), the
   same identity at flow level, and the annealer's acceptance
   telemetry. *)
open Eda_sino
module Rng = Eda_util.Rng
module Metrics = Eda_obs.Metrics

let k = Keff.default

(* default: no sensitivities, so the shield lower bound is 0 and the
   synthetic zero-shield entries below pass the find cross-check *)
let mk_inst ?(kth = 1.0) ?(sensitive = fun _ _ -> false) n =
  Instance.make
    ~nets:(Array.init n (fun i -> i))
    ~kth:(Array.make n kth) ~sensitive

let sym_sens seed p i j = i <> j && Rng.pair_hash ~seed (min i j) (max i j) < p

let effort0 =
  {
    Cache.instances = 1;
    inserted = 0;
    removed = 0;
    swaps = 0;
    repairs = 0;
    retries = 0;
  }

(* slots arrays are valid solutions: each net exactly once *)
let ident_slots n = Array.init n (fun i -> i)

let find c ~key ~inst = Cache.find c ~params:k ~key ~inst ()

(* ---------------- LRU mechanics ---------------- *)

let test_hit_miss () =
  let c = Cache.create () in
  let inst = mk_inst 3 in
  Alcotest.(check bool) "empty misses" true (find c ~key:"a" ~inst = None);
  Cache.store c ~key:"a" ~inst { Cache.slots = ident_slots 3; effort = effort0 };
  (match find c ~key:"a" ~inst with
  | Some v -> Alcotest.(check bool) "slots round-trip" true (v.Cache.slots = ident_slots 3)
  | None -> Alcotest.fail "stored entry not found");
  Alcotest.(check bool) "other key misses" true (find c ~key:"b" ~inst = None);
  Alcotest.(check int) "length" 1 (Cache.length c)

let test_content_verification () =
  (* same key, different content: the WL signature is not a perfect
     canonical form, so a colliding key must miss, not lie *)
  let c = Cache.create () in
  let inst = mk_inst 3 in
  let other = mk_inst ~kth:2.0 3 in
  Cache.store c ~key:"a" ~inst { Cache.slots = ident_slots 3; effort = effort0 };
  Alcotest.(check bool) "content mismatch misses" true
    (find c ~key:"a" ~inst:other = None)

let test_eviction () =
  let c = Cache.create ~capacity:2 () in
  let inst n = mk_inst n in
  let store key n =
    Cache.store c ~key ~inst:(inst n)
      { Cache.slots = ident_slots n; effort = effort0 }
  in
  store "a" 2;
  store "b" 3;
  (* touch "a" so "b" is the LRU entry *)
  ignore (find c ~key:"a" ~inst:(inst 2));
  store "c" 4;
  Alcotest.(check int) "capacity bound" 2 (Cache.length c);
  Alcotest.(check bool) "LRU evicted" true (find c ~key:"b" ~inst:(inst 3) = None);
  Alcotest.(check bool) "recently-used kept" true
    (find c ~key:"a" ~inst:(inst 2) <> None)

let test_admit () =
  let c = Cache.create () in
  let inst = mk_inst 3 in
  Cache.store c ~key:"a" ~inst
    { Cache.slots = ident_slots 3; effort = { effort0 with Cache.retries = 2 } };
  let admit_le n v = v.Cache.effort.Cache.retries <= n in
  Alcotest.(check bool) "beyond budget misses" true
    (Cache.find c ~params:k ~key:"a" ~inst ~admit:(admit_le 1) () = None);
  Alcotest.(check bool) "entry survives the refusal" true
    (Cache.find c ~params:k ~key:"a" ~inst ~admit:(admit_le 2) () <> None)

let test_bound_reject () =
  (* a fully sensitive clique needs shields; an entry claiming zero
     beats the sound lower bound and must be dropped as corrupt *)
  let n = 6 in
  let inst = mk_inst ~kth:0.05 ~sensitive:(fun i j -> i <> j) n in
  Alcotest.(check bool) "premise: bound is positive" true
    (Bound.shield_lower_bound ~params:k inst > 0);
  let c = Cache.create () in
  Cache.store c ~key:"a" ~inst { Cache.slots = ident_slots n; effort = effort0 };
  Alcotest.(check bool) "bound-beating entry rejected" true
    (find c ~key:"a" ~inst = None);
  Alcotest.(check int) "and dropped" 0 (Cache.length c)

(* ---------------- solver integration ---------------- *)

let test_solve_dispositions () =
  let inst = mk_inst ~sensitive:(sym_sens 3 0.5) 8 in
  let req = Solver.request ~seed:42 () in
  let cache = Cache.create () in
  let s1 = Solver.solve ~cache req inst in
  Alcotest.(check bool) "first solve stored" true
    (s1.Solver.cache = Some Solver.Stored);
  let s2 = Solver.solve ~cache req inst in
  Alcotest.(check bool) "second solve hits" true (s2.Solver.cache = Some Solver.Hit);
  Alcotest.(check int) "hit consumes no attempts" 0 s2.Solver.attempts;
  Alcotest.(check bool) "identical layouts" true
    (Layout.slots s1.Solver.layout = Layout.slots s2.Solver.layout);
  let s3 = Solver.solve req inst in
  Alcotest.(check bool) "no cache, no disposition" true (s3.Solver.cache = None);
  Alcotest.(check bool) "cache-off layout byte-identical" true
    (Layout.slots s1.Solver.layout = Layout.slots s3.Solver.layout)

let test_order_only_not_cached () =
  let inst = mk_inst 5 in
  let cache = Cache.create () in
  let req = Solver.request ~mode:Solver.Order_only ~seed:1 () in
  let s = Solver.solve ~cache req inst in
  Alcotest.(check bool) "order-only bypasses the cache" true
    (s.Solver.cache = None);
  Alcotest.(check int) "nothing stored" 0 (Cache.length cache)

(* ---------------- flow identity ---------------- *)

(* No flow creates a cache, but [Flow.run ?cache] must stay an
   accelerator, never an oracle: a run without a cache, one with a
   fresh cache and a second run replaying from that now-warm cache
   agree on every outcome. *)
let test_flow_identity () =
  let module Flow = Gsino.Flow in
  let tech = Gsino.Tech.default in
  let nl =
    Eda_netlist.Generator.generate ~gcell_um:tech.Gsino.Tech.gcell_um
      ~scale:0.02 ~seed:7 Eda_netlist.Generator.ibm01
  in
  let sensitivity = Eda_netlist.Sensitivity.make ~seed:(7 lxor 0xbeef) ~rate:0.3 in
  let grid, base = Flow.prepare tech nl in
  List.iter
    (fun kind ->
      let config = { Flow.Config.default with Flow.Config.kind; seed = 7 } in
      let outcome ?cache () =
        let r = Flow.run ~grid ~base ?cache config tech ~sensitivity nl in
        (r.Flow.shields, r.Flow.total_wl_um, r.Flow.violations, r.Flow.area)
      in
      let name = Flow.kind_name kind in
      let none = outcome () in
      let hits () = Metrics.counter_value (Metrics.counter "sino.cache_hits") in
      let cache = Cache.create () in
      let fresh = outcome ~cache () in
      let h0 = hits () in
      let warm = outcome ~cache () in
      Alcotest.(check bool) (name ^ ": second run hits the shared cache") true
        (hits () > h0);
      Alcotest.(check bool) (name ^ ": fresh cache ≡ no cache") true (fresh = none);
      Alcotest.(check bool) (name ^ ": shared cache ≡ no cache") true (warm = none))
    [ Flow.Isino; Flow.Gsino ]

(* ---------------- annealer telemetry ---------------- *)

let test_acceptance_ratio_gauge () =
  let inst = mk_inst ~sensitive:(sym_sens 7 0.5) 10 in
  let l = Solver.min_area (Rng.create 3) inst in
  let _ = Solver.anneal (Rng.create 4) inst l in
  let r = Metrics.gauge_value (Metrics.gauge "sino.acceptance_ratio") in
  Alcotest.(check bool) "ratio in [0,1]" true (r >= 0.0 && r <= 1.0)

(* ---------------- properties ---------------- *)

let qcheck_tests =
  let open QCheck in
  [
    (* the tentpole property: a permuted copy of a cached panel hits,
       and the remapped solution is byte-identical to solving the
       permuted panel from scratch with no cache — on top of being
       feasible and GSL0028-clean (never below the shield bound) *)
    Test.make ~name:"permuted panels hit and remap correctly" ~count:40
      (pair (int_range 2 14) (int_range 0 10_000))
      (fun (n, seed) ->
        let kth = Array.init n (fun i -> 0.3 +. Rng.pair_hash ~seed i i) in
        let sensitive = sym_sens (seed lxor 0xc5) 0.5 in
        let inst =
          Instance.make ~nets:(Array.init n (fun i -> i)) ~kth ~sensitive
        in
        let perm = Array.init n (fun i -> i) in
        Rng.shuffle (Rng.create (seed + 1)) perm;
        let inst' =
          Instance.make ~nets:(Array.copy perm)
            ~kth:(Array.map (fun s -> kth.(s)) perm)
            ~sensitive
        in
        let req = Solver.request ~seed:11 () in
        let cache = Cache.create () in
        let first = Solver.solve ~cache req inst in
        let hit = Solver.solve ~cache req inst' in
        let direct = Solver.solve req inst' in
        Layout.slots hit.Solver.layout = Layout.slots direct.Solver.layout
        && ((not first.Solver.acceptable) || hit.Solver.cache = Some Solver.Hit)
        && (not hit.Solver.acceptable
           || Layout.cap_violations hit.Solver.layout = 0
              && Layout.num_shields hit.Solver.layout
                 >= Bound.shield_lower_bound ~params:k inst'));
    Test.make ~name:"canonicalize is a relabeling of the same panel" ~count:60
      (pair (int_range 1 14) (int_range 0 10_000))
      (fun (n, seed) ->
        let inst =
          Instance.make ~nets:(Array.init n (fun i -> i))
            ~kth:(Array.init n (fun i -> 0.2 +. Rng.pair_hash ~seed i i))
            ~sensitive:(sym_sens seed 0.5)
        in
        let c = Instance.canonicalize inst in
        let ok = ref (Instance.size c.Instance.inst = n) in
        for a = 0 to n - 1 do
          if
            Instance.kth c.Instance.inst a
            <> Instance.kth inst c.Instance.perm.(a)
          then ok := false;
          for b = 0 to n - 1 do
            if
              Instance.sens c.Instance.inst a b
              <> Instance.sens inst c.Instance.perm.(a) c.Instance.perm.(b)
            then ok := false
          done
        done;
        !ok && c.Instance.signature = Instance.signature inst);
  ]

let suites =
  [
    ( "cache.lru",
      [
        Alcotest.test_case "hit and miss" `Quick test_hit_miss;
        Alcotest.test_case "content verification" `Quick test_content_verification;
        Alcotest.test_case "eviction order" `Quick test_eviction;
        Alcotest.test_case "admit predicate" `Quick test_admit;
        Alcotest.test_case "bound cross-check" `Quick test_bound_reject;
      ] );
    ( "cache.solver",
      [
        Alcotest.test_case "dispositions and byte-identity" `Quick
          test_solve_dispositions;
        Alcotest.test_case "order-only bypass" `Quick test_order_only_not_cached;
        Alcotest.test_case "acceptance ratio gauge" `Quick
          test_acceptance_ratio_gauge;
      ] );
    ( "cache.flow",
      [
        Alcotest.test_case "with and without a cache agree" `Quick
          test_flow_identity;
      ] );
    ("cache.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
