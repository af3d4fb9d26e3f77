(* The traced run's pipeline: the same per-circuit work as
   [Flow.prepare] / [Flow.run] / [Flow.check], driven by calling each
   layer's public function in the order those entry points do, with a
   span (and the layer's work counts) recorded around every call.

   The result must equal the untraced entry points' result exactly; the
   benchmark compares shields, wire length, violation list and area of
   every traced flow with the untraced run's.  Keep the call order here in step with
   lib/gsino/flow.ml. *)

module Flow = Gsino.Flow
module Tech = Gsino.Tech
module Budget = Gsino.Budget
module Id_router = Gsino.Id_router
module Phase2 = Gsino.Phase2
module Refine = Gsino.Refine
module Noise = Gsino.Noise
module Grid = Eda_grid.Grid
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage
module Netlist = Eda_netlist.Netlist
module Sensitivity = Eda_netlist.Sensitivity
module Metrics = Eda_obs.Metrics
module Cache = Eda_sino.Cache
module Deadline = Eda_guard.Deadline

(* Registry series whose deltas are recorded on a layer's span.  All
   work here runs on the calling domain ([jobs = 1]), so its metrics
   shard holds every count. *)
let router_series = [ "id_router.iterations"; "id_router.reweights" ]

let cache_series =
  [ "sino.cache_hits"; "sino.cache_misses"; "sino.cache_evictions" ]

(* [layer name f] runs [f] in a span carrying its minor words, the
   deltas of the registry [series], and [counts] of its result. *)
let layer ?(series = []) ?(counts = fun _ -> []) name f =
  Span.with_ name (fun sp ->
      let before = if series = [] then None else Some (Metrics.snapshot ()) in
      let mw0 = Gc.minor_words () in
      let v = f () in
      Span.count sp "minor_words" (Gc.minor_words () -. mw0);
      List.iter (fun (k, x) -> Span.count sp k x) (counts v);
      (match before with
      | None -> ()
      | Some s0 ->
          let s1 = Metrics.snapshot () in
          List.iter
            (fun k ->
              Span.count sp k
                (float_of_int (Metrics.counter_total s1 k - Metrics.counter_total s0 k)))
            series);
      v)

let id_router f = layer ~series:router_series "id_router" f

let weights tech =
  { Id_router.alpha = tech.Tech.alpha; beta = tech.Tech.beta; gamma = tech.Tech.gamma }

let base_routes ~pool tech grid netlist =
  id_router (fun () ->
      Id_router.route ~grid ~netlist ~weights:(weights tech)
        ~shield_model:Id_router.No_shields ~pool ())

(* The solved panels of a Phase II store, in key order. *)
let panels phase2 =
  let acc = ref [] in
  Phase2.iter phase2 (fun key s -> acc := (key, s.Phase2.inst) :: !acc);
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

(* [Flow.prepare] with [Iterative_deletion] routing. *)
let prepare ~(config : Flow.Config.t) tech netlist =
  Span.with_ "prepare" @@ fun _ ->
  Eda_exec.with_pool ~jobs:config.jobs @@ fun pool ->
  let grid0 = Tech.grid_for tech netlist in
  let base0 = base_routes ~pool tech grid0 netlist in
  let usage0 =
    Usage.of_routes grid0 ~gcell_um:netlist.Netlist.gcell_um (Array.to_list base0)
  in
  let cap dir =
    max 4 (Flow.demand_quantile usage0 grid0 config.cap_quantile dir)
  in
  let grid =
    Grid.make ~w:(Grid.width grid0) ~h:(Grid.height grid0)
      ~hcap:(cap Eda_grid.Dir.H) ~vcap:(cap Eda_grid.Dir.V)
  in
  (grid, base_routes ~pool tech grid netlist)

(* [Flow.run] for [Iterative_deletion] routing, [Uniform] budgeting, no
   audit and no deadline, with an in-process panel cache: per flow, or
   the caller's shared one (as the daemon passes its warm cache). *)
let run ~grid ?base ?cache (config : Flow.Config.t) tech ~sensitivity netlist =
  Span.with_ ("flow:" ^ Flow.kind_name config.kind) @@ fun _ ->
  let deadline = Deadline.start ~budget_ms:0 in
  Eda_exec.with_pool ~jobs:config.jobs @@ fun pool ->
  let lsk_model = Tech.lsk_model tech in
  let gcell_um = netlist.Netlist.gcell_um in
  let budget =
    layer "budget" (fun () ->
        Budget.uniform ~lsk:lsk_model ~noise_v:tech.Tech.noise_bound_v ~gcell_um
          netlist)
  in
  let t_route = Eda_obs.Clock.now_s () in
  let routes =
    match (config.kind, base) with
    | (Flow.Id_no | Flow.Isino), Some r -> r
    | (Flow.Id_no | Flow.Isino), None -> base_routes ~pool tech grid netlist
    | Flow.Gsino, _ ->
        id_router (fun () ->
            Id_router.route ~grid ~netlist ~weights:(weights tech)
              ~shield_model:
                (Id_router.Per_net
                   {
                     keff = tech.Tech.keff;
                     rate = Sensitivity.rate sensitivity;
                     kth = Budget.kth budget;
                   })
              ~deadline ~pool ())
  in
  let route_s = Eda_obs.Clock.elapsed_s t_route in
  let mode =
    match config.kind with
    | Flow.Id_no -> Phase2.Order_only
    | Flow.Isino | Flow.Gsino -> Phase2.Min_area
  in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let t_sino = Eda_obs.Clock.now_s () in
  let phase2 =
    layer ~series:cache_series
      ~counts:(fun p ->
        let n = ref 0 in
        Phase2.iter p (fun _ _ -> incr n);
        [ ("panels", float_of_int !n) ])
      "phase2" (fun () ->
        Phase2.solve ~grid ~netlist ~routes ~kth:(Budget.kth budget) ~sensitivity
          ~keff:tech.Tech.keff ~mode ~seed:config.seed ~deadline
          ~retries:config.max_region_retries ~on_infeasible:config.on_infeasible
          ~cache ~pool ())
  in
  let sino_s = Eda_obs.Clock.elapsed_s t_sino in
  let usage = Usage.of_routes grid ~gcell_um (Array.to_list routes) in
  Phase2.apply_shields usage phase2;
  let t_refine = Eda_obs.Clock.now_s () in
  let refine_stats =
    match config.kind with
    | Flow.Id_no -> None
    | Flow.Isino | Flow.Gsino ->
        Some
          (layer ~series:cache_series
             ~counts:(fun st ->
               [
                 ("pass1_resolves", float_of_int st.Refine.pass1_resolves);
                 ("pass2_resolves", float_of_int st.pass2_resolves);
                 ("shields_removed", float_of_int st.pass2_shields_removed);
               ])
             "refine" (fun () ->
               Refine.run ~grid ~netlist ~routes ~phase2 ~usage ~lsk_model
                 ~bound_v:tech.Tech.noise_bound_v ~deadline ~pool ()))
  in
  let refine_s =
    match refine_stats with None -> 0.0 | Some _ -> Eda_obs.Clock.elapsed_s t_refine
  in
  let violations =
    layer
      ~counts:(fun _ -> [ ("nets", float_of_int (Netlist.num_nets netlist)) ])
      "noise" (fun () ->
        Noise.violations ~pool ~grid ~gcell_um ~phase2 ~lsk_model ~netlist ~routes
          ~bound_v:tech.Tech.noise_bound_v ())
  in
  let lengths = Array.map (fun r -> Route.length_um r ~gcell_um) routes in
  let total_wl_um = Array.fold_left ( +. ) 0.0 lengths in
  {
    Flow.kind = config.kind;
    netlist;
    grid;
    sensitivity;
    routes;
    budget;
    phase2;
    usage;
    refine_stats;
    violations;
    avg_wl_um =
      (if Array.length lengths = 0 then 0.0
       else total_wl_um /. float_of_int (Array.length lengths));
    total_wl_um;
    area = Usage.expanded_area usage;
    shields = Phase2.total_shields phase2;
    route_s;
    sino_s;
    refine_s;
    deadline_hits = Deadline.hits deadline;
  }

let check tech r = layer "check" (fun () -> Flow.check ~tech r)
