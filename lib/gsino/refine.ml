module Grid = Eda_grid.Grid
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Instance = Eda_sino.Instance
module Layout = Eda_sino.Layout
module Deadline = Eda_guard.Deadline
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace

(* Phase III telemetry — the paper's claim that refinement touches few
   nets is checkable from these counters *)
let m_ripup_rounds = Metrics.counter "refine.ripup_rounds"
let m_p1_fixed = Metrics.counter "refine.pass1_nets_fixed"
let m_p2_removed = Metrics.counter "refine.pass2_shields_removed"
let m_resolves = Metrics.counter "refine.sino_resolves"
let m_reordered = Metrics.counter "refine.nets_reordered"
let g_residual = Metrics.gauge "refine.residual_violations"

type stats = {
  pass1_nets_fixed : int;
  pass1_resolves : int;
  pass2_shields_removed : int;
  pass2_resolves : int;
  residual_violations : int;
}

let members inst = List.init (Instance.size inst) (Instance.net_id inst)
let local_index inst net = List.find_index (( = ) net) (members inst)

(* Length of a net's segment in a given (region, dir), µm. *)
let segment_length ~grid ~gcell_um route (r, d) =
  match List.assoc_opt r (Route.segments grid route d) with
  | Some l -> l *. gcell_um
  | None -> 0.0

(* ---------------- Shared refinement state -------------------------- *)

(* The flow state both passes mutate, plus the per-net worst-sink cache
   (see refine.mli for its invalidation rule). *)
type t = {
  grid : Grid.t;
  netlist : Netlist.t;
  routes : Route.t array;
  phase2 : Phase2.t;
  usage : Usage.t;
  lsk_model : Eda_lsk.Lsk.t;
  gcell_um : float;
  bound_v : float;
  lsk_budget : float;
  deadline : Deadline.t;
  pool : Eda_exec.t option;
  worst : (Eda_geom.Point.t * float * float) array;  (** sink, LSK, noise *)
  dirty : bool array;
}

let worst st i =
  if st.dirty.(i) then begin
    st.worst.(i) <-
      Noise.worst_sink ~grid:st.grid ~gcell_um:st.gcell_um ~phase2:st.phase2
        ~lsk_model:st.lsk_model ~net:st.netlist.Netlist.nets.(i) st.routes.(i);
    st.dirty.(i) <- false
  end;
  st.worst.(i)

(* Bring every entry up to date.  Each index is its own slot and a
   value depends only on the Phase2 store, so the pool cannot change it. *)
let refresh st =
  Eda_exec.parallel_iter ?pool:st.pool ~name:"refine.noise" (Array.length st.worst)
    (fun i -> ignore (worst st i))

let meets st i =
  let _, _, v = worst st i in
  v <= st.bound_v +. 1e-12

(* The only way refinement changes a panel: store it, mirror its shield
   count into the usage accounting, and dirty its members (re-bounding a
   panel never changes its net set). *)
let install st ((r, d) as key) soln =
  Phase2.replace st.phase2 key soln;
  Usage.set_shields st.usage r d (Layout.num_shields soln.Phase2.layout);
  List.iter (fun j -> st.dirty.(j) <- true) (members soln.Phase2.inst)

(* ---------------- Pass 1: eliminate violations --------------------- *)

let pass1 st =
  let fixes = ref 0 and resolves = ref 0 in
  let rounds = ref 0 in
  let given_up = Array.make (Array.length st.worst) false in
  let continue_outer = ref true in
  (* checkpoint: each round rip-ups exactly one net and re-solves its
     regions through Phase2.replace, so the table is consistent between
     rounds; stopping early just leaves more residual violations *)
  while !continue_outer && not (Deadline.check st.deadline ~phase:"refine") do
    Metrics.incr m_ripup_rounds;
    incr rounds;
    Eda_obs.Progress.tick ~items_done:!rounds ();
    (* the worst violator not given up: noise descending, ties to the
       higher net id, as Noise.violations orders them *)
    refresh st;
    let pick = ref None in
    Array.iteri
      (fun i (_, _, v) ->
        match !pick with
        | _ when given_up.(i) || meets st i -> ()
        | Some (_, best) when v < best -> ()
        | _ -> pick := Some (i, v))
      st.worst;
    match !pick with
    | None -> continue_outer := false
    | Some (i, _) ->
        let net = st.netlist.Netlist.nets.(i) in
        let route = st.routes.(i) in
        let resolves0 = !resolves in
        let n_keys = List.length (Phase2.regions_of_net st.phase2 i) in
        let inner_guard = ref (4 * max 10 n_keys) in
        let fixed = ref false and exhausted = ref false in
        while
          (not !fixed) && (not !exhausted) && !inner_guard > 0
          && not (Deadline.expired st.deadline)
        do
          decr inner_guard;
          (* least congested region on the net's route whose bound for
             this net still has room to tighten.  The Kth reduction is
             sized from the net's remaining LSK excess (the continuous
             counterpart of the paper's one-shield-at-a-time Formula-(3)
             step; see DESIGN.md). *)
          let sink, lsk_now, _ = worst st i in
          let excess = lsk_now -. st.lsk_budget in
          if excess <= 0.0 then fixed := true
          else begin
            let grid = st.grid in
            (* only the regions on the path to the worst sink contribute
               to its LSK; tightening elsewhere cannot help *)
            let keys =
              Route.path_edges grid route ~source:net.Net.source ~sink
              |> List.concat_map (fun e ->
                     let d = Grid.edge_dir grid e in
                     let a, b = Grid.edge_ends grid e in
                     [ (Grid.region_id grid a, d); (Grid.region_id grid b, d) ])
              |> List.sort_uniq compare
              |> List.sort (fun ((ra, da) as ka) ((rb, db) as kb) ->
                     match
                       compare
                         (Usage.utilization st.usage ra da)
                         (Usage.utilization st.usage rb db)
                     with
                     | 0 -> compare ka kb
                     | c -> c)
            in
            let rec try_keys = function
              | [] -> exhausted := true
              | key :: rest -> (
                  match Phase2.find st.phase2 key with
                  | None -> try_keys rest
                  | Some soln -> (
                      match local_index soln.Phase2.inst i with
                      | None -> try_keys rest
                      | Some li ->
                          let keff = Phase2.keff st.phase2 in
                          let k_now = Layout.k_of soln.Phase2.layout keff li in
                          let len =
                            segment_length ~grid ~gcell_um:st.gcell_um route key
                          in
                          if len <= 0.0 || k_now < 0.025 then try_keys rest
                          else begin
                            (* reduce by what the net still needs, but at
                               most one shield's worth per step (a shield
                               damps residual coupling by shield_block) *)
                            let dk = 1.15 *. excess /. len in
                            let one_shield =
                              k_now *. (1.0 -. keff.Eda_sino.Keff.shield_block)
                            in
                            let target =
                              Float.max 0.02 (k_now -. Float.min dk one_shield)
                            in
                            let inst' = Instance.with_kth soln.Phase2.inst li target in
                            let soln' =
                              Phase2.resolve ~deadline:st.deadline ~net:i
                                ~pass:"pass1" st.phase2 key inst'
                            in
                            incr resolves;
                            Metrics.incr m_resolves;
                            Metrics.add m_reordered (Instance.size inst');
                            install st key soln';
                            if meets st i then fixed := true
                          end))
            in
            try_keys keys
          end
        done;
        let ok = meets st i in
        if ok then incr fixes else given_up.(i) <- true;
        Eda_obs.Journal.record "net.refine"
          [ ("net", string_of_int i); ("pass", "pass1") ]
          ~data:[ ("resolves", float_of_int (!resolves - resolves0)) ]
          ~outcome:(if ok then "fixed" else "gave_up")
  done;
  (!fixes, !resolves)

(* ---------------- Pass 2: reduce congestion ------------------------ *)

(* Shielded, not-yet-attempted panels as (utilization, key); the minimum
   is the most congested panel, ties broken on the key so the pick never
   depends on hash-table order. *)
module Worklist = Set.Make (struct
  type t = float * Phase2.key

  let compare (ua, ka) (ub, kb) =
    match Float.compare ub ua with 0 -> compare ka kb | c -> c
end)

let pass2 st =
  let removed = ref 0 and resolves = ref 0 in
  let entry ((r, d) as key) = (Usage.utilization st.usage r d, key) in
  let work = ref Worklist.empty and n_keys = ref 0 in
  Phase2.iter st.phase2 (fun key soln ->
      incr n_keys;
      if Layout.num_shields soln.Phase2.layout > 0 then
        work := Worklist.add (entry key) !work);
  let resolve_budget = 25 * max 1 !n_keys in
  (* checkpoint: pass 2 is pure optimisation (shield removal with a
     revert-on-violation guard), so any round boundary is a safe stop *)
  while
    (not (Worklist.is_empty !work))
    && !resolves < resolve_budget
    && not (Deadline.check st.deadline ~phase:"refine")
  do
    let ((u, key) as e) = Worklist.min_elt !work in
    work := Worklist.remove e !work;
    (* only the picked panel's shields change in this pass, so no entry
       can go stale; a stale one would silently reorder the picks *)
    assert (Float.equal u (fst (entry key)));
    let soln = Option.get (Phase2.find st.phase2 key) in
    let inst = soln.Phase2.inst in
    (* per-net LSK slack, converted into a K allowance here *)
    let slack li =
      let gid = Instance.net_id inst li in
      let _, lsk_worst, _ = worst st gid in
      let len =
        segment_length ~grid:st.grid ~gcell_um:st.gcell_um st.routes.(gid) key
      in
      if len <= 0.0 then 0.0
      else Float.max 0.0 ((st.lsk_budget -. lsk_worst) /. len)
    in
    let order =
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (List.init (Instance.size inst) (fun li -> (li, slack li)))
    in
    let shields_before = Layout.num_shields soln.Phase2.layout in
    (* relax bounds cumulatively, largest slack first, re-running SINO
       after each grant until a shield disappears *)
    let rec relax inst_cur = function
      | [] -> None
      | (li, s) :: rest ->
          if s <= 1e-9 then None
          else begin
            let k_now = Layout.k_of soln.Phase2.layout (Phase2.keff st.phase2) li in
            let new_kth = Float.max (Instance.kth inst_cur li) (k_now +. (0.9 *. s)) in
            let inst' = Instance.with_kth inst_cur li new_kth in
            let soln' =
              Phase2.resolve ~deadline:st.deadline
                ~net:(Instance.net_id inst_cur li)
                ~pass:"pass2" st.phase2 key inst'
            in
            incr resolves;
            Metrics.incr m_resolves;
            Metrics.add m_reordered (Instance.size inst');
            if Layout.num_shields soln'.Phase2.layout < shields_before then
              Some soln'
            else relax inst' rest
          end
    in
    match relax inst order with
    | None -> ()
    | Some soln' ->
        (* accept only if no net in this region starts violating *)
        install st key soln';
        if List.for_all (meets st) (members inst) then begin
          removed := !removed + (shields_before - Layout.num_shields soln'.Phase2.layout);
          if Layout.num_shields soln'.Phase2.layout > 0 then
            work := Worklist.add (entry key) !work
        end
        else install st key soln
  done;
  (!removed, !resolves)

let run ~grid ~netlist ~routes ~phase2 ~usage ~lsk_model ~bound_v
    ?(deadline = Deadline.none) ?pool () =
  let n = Array.length netlist.Netlist.nets in
  let st =
    { grid; netlist; routes; phase2; usage; lsk_model; bound_v; deadline; pool;
      gcell_um = Usage.gcell_um usage;
      lsk_budget = Eda_lsk.Lsk.lsk_bound lsk_model ~noise:bound_v;
      worst = Array.make n (Eda_geom.Point.make 0 0, 0.0, 0.0);
      dirty = Array.make n true }
  in
  let p1_fixed, p1_res = Trace.span "refine.pass1" (fun () -> pass1 st) in
  let p2_removed, p2_res = Trace.span "refine.pass2" (fun () -> pass2 st) in
  refresh st;
  let residual = List.length (List.filter (fun i -> not (meets st i)) (List.init n Fun.id)) in
  Metrics.add m_p1_fixed p1_fixed;
  Metrics.add m_p2_removed p2_removed;
  Metrics.set g_residual (float_of_int residual);
  {
    pass1_nets_fixed = p1_fixed;
    pass1_resolves = p1_res;
    pass2_shields_removed = p2_removed;
    pass2_resolves = p2_res;
    residual_violations = residual;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "phase3: pass1 fixed %d nets (%d SINO re-runs); pass2 removed %d shields (%d re-runs); residual violations %d"
    s.pass1_nets_fixed s.pass1_resolves s.pass2_shields_removed s.pass2_resolves
    s.residual_violations
