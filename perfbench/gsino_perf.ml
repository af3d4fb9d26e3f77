(* gsino_perf — the repository benchmark program.

   One process runs one workload on inputs generated from --seed and
   prints, as the last line of stdout, one JSON object with the keys
   correct / attempted / failed / metrics.  perfbench/run.py builds this
   program, repeats the set-up in separate processes for setup_s, and is
   the command to run; see perfbench/README.md.

   --trace 0 measures the end-to-end metrics through the entry points a
   user calls (Flow.prepare / Flow.run / Flow.check, or the daemon via
   Eda_serve.Server and Eda_serve.Client).  --trace 1 runs each operation
   twice, back to back: once through those entry points and once layer by
   layer with spans (Pipeline).  It reports the per-layer metrics, and the
   traced outputs must equal the untraced ones exactly. *)

module Flow = Gsino.Flow
module Tech = Gsino.Tech
module Netlist = Eda_netlist.Netlist
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Io = Eda_netlist.Io
module Diag = Eda_check.Diag
module Json = Eda_obs.Json
module Clock = Eda_obs.Clock
module Cache = Eda_sino.Cache
module Solver = Eda_sino.Solver
module Protocol = Eda_serve.Protocol
module Server = Eda_serve.Server
module Client = Eda_serve.Client

let tech = Tech.default
let now = Clock.now_s
let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let out_dir = ".bench_out"

(* ------------------------------ numbers ------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* nearest-rank percentile, q in (0, 1] *)
let percentile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum xs = List.fold_left ( +. ) 0.0 xs

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* VmHWM of this process, MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

let ensure_dir dir = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* ------------------------------ outcomes ----------------------------- *)

(* What a flow produced, in the form two runs are compared in (exact
   shields, wire length, violation list and area), and the output checks
   it failed. *)
type outcome = {
  kind : Flow.kind;
  shields : int;
  total_wl_um : float;
  violations : (int * float) list;
  area : float * float * float;
  problems : string list;  (** failed output checks; [] = passed *)
}

let outcome (r : Flow.result) diags =
  let problems =
    List.concat
      [
        (if Flow.degraded r then [ "degraded" ] else []);
        List.filter_map
          (fun d ->
            if d.Diag.severity = Diag.Error then Some ("check: " ^ Diag.to_line d)
            else None)
          diags;
        (match (r.kind, r.violations) with
        | Flow.Id_no, _ | _, [] -> []
        | _, v -> [ Printf.sprintf "%d residual violations" (List.length v) ]);
      ]
  in
  {
    kind = r.kind;
    shields = r.shields;
    total_wl_um = r.total_wl_um;
    violations = r.violations;
    area = r.area;
    problems;
  }

let same_output a b =
  a.kind = b.kind && a.shields = b.shields && a.total_wl_um = b.total_wl_um
  && a.violations = b.violations && a.area = b.area

let same_outputs xs ys = List.length xs = List.length ys && List.for_all2 same_output xs ys
let is_sino o = match o.kind with Flow.Id_no -> false | Flow.Isino | Flow.Gsino -> true

(* Sums over one round: shields of iSINO+GSINO, wire length of every
   flow, iSINO+GSINO residual violations, and the summed GSINO routing
   area over the summed ID+NO area. *)
type quality = { q_shields : int; q_wl : float; q_residual : int; q_area_pct : float }

let quality outs =
  let area kind =
    sum
      (List.filter_map
         (fun o ->
           let _, _, a = o.area in
           if o.kind = kind then Some a else None)
         outs)
  in
  {
    q_shields = List.fold_left (fun a o -> if is_sino o then a + o.shields else a) 0 outs;
    q_wl = sum (List.map (fun o -> o.total_wl_um) outs);
    q_residual =
      List.fold_left
        (fun a o -> if is_sino o then a + List.length o.violations else a)
        0 outs;
    q_area_pct =
      (let base = area Flow.Id_no and g = area Flow.Gsino in
       if base = 0.0 || g = 0.0 then 0.0 else 100.0 *. (ratio g base -. 1.0));
  }

let report_problems label problems =
  List.iter (fun p -> log "%s: %s" label p) problems

(* ------------------------------ workloads ---------------------------- *)

type circuit = {
  netlist : Netlist.t;
  sensitivity : Sensitivity.t;
  kinds : Flow.kind list;
  cseed : int;
}

(* The circuits one round runs: four ibm04 instances, from seeds [seed],
   [seed + 1000003], ..., so that a round's time depends less on one
   seed's instance. *)
let batch_circuits seed =
  List.init 4 (fun i ->
      let seed = seed + (i * 1_000_003) in
      {
        netlist =
          Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed
            Generator.ibm04;
        sensitivity = Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate:0.5;
        kinds = Flow.[ Id_no; Isino; Gsino ];
        cseed = seed;
      })

let config c kind = { Flow.Config.default with Flow.Config.kind; seed = c.cseed; jobs = 1 }

(* ID+NO and iSINO share the prepared base routing; GSINO re-routes. *)
let base_for kind base = match kind with Flow.Gsino -> None | _ -> Some base

(* One circuit's job, as [gsino_run run] does it: prepare once, then
   every flow and its check.  Each step (the prepare, or one flow with
   its check) is timed on its own.  A raised error fails every flow not
   yet finished. *)
let run_job c =
  let outs = ref [] and steps = ref [] in
  let step f =
    let v, dt = timed f in
    steps := dt :: !steps;
    v
  in
  (try
     let grid, base =
       step (fun () -> Flow.prepare ~config:(config c Flow.Id_no) tech c.netlist)
     in
     List.iter
       (fun kind ->
         let o =
           step (fun () ->
               let r =
                 Flow.run ~grid ?base:(base_for kind base) (config c kind) tech
                   ~sensitivity:c.sensitivity c.netlist
               in
               outcome r (Flow.check ~tech r))
         in
         outs := o :: !outs)
       c.kinds
   with e -> log "job %s failed: %s" c.netlist.Netlist.name (Printexc.to_string e));
  let outs = List.rev !outs in
  (outs, List.length c.kinds - List.length outs, List.rev !steps)

(* ---------------------------- serve-warm ----------------------------- *)

(* The fixed pool: 8 ibm01 netlists at scale 0.02, from 8 seeds, at
   rates 0.3 and 0.5 in turn, routed as GSINO.  Eight distinct netlists
   (not four at two rates each) make a run's time depend less on the
   seed; eight requests keep the warm cache below its capacity.  The
   flow seed is the netlist's seed, as [gsino_serve route -c ibm01
   --seed s] sends it. *)
let serve_pool seed =
  Array.init 8 (fun i ->
      let s = (seed * 8) + i in
      let text =
        Io.to_string
          (Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:s
             Generator.ibm01)
      in
      Protocol.Route
        {
          netlist = text;
          options =
            {
              Protocol.default_options with
              kind = Flow.Gsino;
              seed = s;
              rate = (if i mod 2 = 0 then 0.3 else 0.5);
            };
        })

(* One pool request in-process, in the daemon's sequence (prepare on the
   GSINO config, sensitivity from the flow seed, run on the given warm
   cache, check); through the Pipeline when [traced]. *)
let route_in_process ~traced ~cache = function
  | Protocol.Ping | Protocol.Stats -> invalid_arg "route_in_process"
  | Protocol.Route { netlist = text; options = o } ->
      let netlist = Io.of_string text in
      let cfg kind = { Flow.Config.default with Flow.Config.kind; seed = o.seed; jobs = 1 } in
      let sensitivity = Sensitivity.make ~seed:(o.seed lxor 0xbeef) ~rate:o.rate in
      if traced then
        Span.with_ "request" (fun _ ->
            let grid, base = Pipeline.prepare ~config:(cfg Flow.Gsino) tech netlist in
            let r = Pipeline.run ~grid ~base ~cache (cfg o.kind) tech ~sensitivity netlist in
            (r, Pipeline.check tech r))
      else begin
        let grid, base = Flow.prepare ~config:(cfg Flow.Gsino) tech netlist in
        let r = Flow.run ~grid ~base ~cache (cfg o.kind) tech ~sensitivity netlist in
        (r, Flow.check ~tech r)
      end

(* A served summary with the phase seconds cut out: they vary from run
   to run; everything else must match the in-process flow. *)
let summary_key s =
  let pat = " (route " in
  let n = String.length s and m = String.length pat in
  let rec find i =
    if i + m > n then None else if String.sub s i m = pat then Some i else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> (
      match String.index_from_opt s i ')' with
      | Some j -> String.sub s 0 i ^ String.sub s (j + 1) (n - j - 1)
      | None -> s)

(* What a served response must equal, and the in-process flow's own
   failed checks, which the served copy shares. *)
let expected_response (r, diags) =
  ( (if Flow.degraded r then "degraded" else "ok"),
    summary_key (Format.asprintf "%a" Flow.pp_summary r),
    List.map Diag.to_line diags,
    (outcome r diags).problems )

type daemon = { server : Server.t; sock : string; dir : string; start_s : float }

(* The socket goes in a fresh directory, relative to the working
   directory so that the path stays short. *)
let start_daemon () =
  ensure_dir out_dir;
  let rec fresh k =
    let dir = Printf.sprintf "%s/serve-%d-%d" out_dir (Unix.getpid ()) k in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh (k + 1)
  in
  let dir = fresh 0 in
  let sock = dir ^ "/gsino.sock" in
  let t0 = now () in
  let server =
    Server.start { Server.default_config with socket = sock; workers = 2; jobs = 1 }
  in
  let rec ping tries =
    match Client.request ~timeout_s:10.0 sock Protocol.Ping with
    | Protocol.Pong -> ()
    | _ -> failwith "daemon answered ping with something else"
    | exception (Eda_guard.Error.Error _ as e) ->
        if tries = 0 then raise e
        else begin
          Unix.sleepf 0.01;
          ping (tries - 1)
        end
  in
  ping 1000;
  { server; sock; dir; start_s = now () -. t0 }

let stop_daemon d =
  Server.drain d.server;
  Server.wait d.server;
  try Unix.rmdir d.dir with Unix.Unix_error (_, _, _) -> ()

(* The final [Stats] reply: errors, rejects and disconnects must all be
   0. *)
let final_stats d =
  match Client.request ~timeout_s:10.0 d.sock Protocol.Stats with
  | Protocol.Stats_reply s ->
      let rejected = List.fold_left (fun a (_, n) -> a + n) 0 s.rejected in
      log "serve stats: served %d, errors %d, rejected %d, disconnects %d, cache_len %d"
        s.served s.errors rejected s.disconnects s.cache_len;
      let problems =
        List.concat
          [
            (if s.errors <> 0 then [ "stats: errors" ] else []);
            (if rejected <> 0 then [ "stats: rejected" ] else []);
            (if s.disconnects <> 0 then [ "stats: disconnects" ] else []);
          ]
      in
      report_problems "daemon" problems;
      (s, rejected, problems)
  | _ -> failwith "daemon answered stats with something else"

(* Two closed-loop clients in this process: each sends its next request
   only after the previous response arrived.  Requests cycle through the
   pool until [until issued elapsed] holds.  Returns, in request order,
   each request's response and latency (send to full response), and the
   times, from the start, at which responses completed, in order. *)
let drive d pool ~until =
  let mu = Mutex.create () in
  let issued = ref 0 and results = ref [] and completed = ref [] in
  let t0 = now () in
  let next () =
    Mutex.protect mu (fun () ->
        if until !issued (now () -. t0) then None
        else begin
          incr issued;
          Some (!issued - 1)
        end)
  in
  let send req =
    match Client.connect d.sock with
    | exception e -> Error (Printexc.to_string e)
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match timed (fun () -> Client.call ~timeout_s:120.0 fd req) with
            | r -> Ok r
            | exception e -> Error (Printexc.to_string e))
  in
  let rec client () =
    match next () with
    | None -> ()
    | Some i ->
        let res = send pool.(i mod Array.length pool) in
        Mutex.protect mu (fun () ->
            results := (i, res) :: !results;
            completed := (now () -. t0) :: !completed);
        client ()
  in
  let threads = List.init 2 (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  (List.sort (fun (a, _) (b, _) -> compare a b) !results, List.rev !completed)

(* Per served request: its latency (infinite when it failed) and its
   failed checks. *)
let judge_served expected results =
  List.map
    (fun (i, res) ->
      let problems, lat =
        match res with
        | Error msg -> ([ "request failed: " ^ msg ], infinity)
        | Ok (Protocol.Result { status; summary; findings; _ }, lat) ->
            let want_status, want_summary, want_findings, shared =
              expected.(i mod Array.length expected)
            in
            ( List.concat
                [
                  shared;
                  (if status <> want_status then [ "status " ^ status ] else []);
                  (if summary_key summary <> want_summary then
                     [ "summary differs: " ^ summary ]
                   else []);
                  (if findings <> want_findings then [ "findings differ" ] else []);
                ],
              lat )
        | Ok (Protocol.Err { message; _ }, _) -> ([ "error: " ^ message ], infinity)
        | Ok ((Protocol.Pong | Protocol.Stats_reply _), _) ->
            ([ "wrong response kind" ], infinity)
      in
      report_problems "request" problems;
      ((if problems = [] then lat else infinity), problems))
    results

(* ------------------------------ set-up ------------------------------- *)

type inputs = Batch of circuit list | Served of Protocol.request array * daemon

(* Generate the inputs, force the LSK table (and the other shared models
   every flow reads), and for serve-warm start the daemon. *)
let setup workload seed =
  let generated =
    Span.with_ "netlist" (fun _ ->
        match workload with
        | "serve-warm" -> Either.Right (serve_pool seed)
        | _ -> Either.Left (batch_circuits seed))
  in
  Span.with_ "lsk" (fun _ -> ignore (Flow.analyze_config tech));
  match generated with
  | Either.Left circuits -> Batch circuits
  | Either.Right pool -> Served (pool, start_daemon ())

(* ------------------------------ results ------------------------------ *)

let emit ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit_, v) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit_) ]))
                   metrics) );
          ]))

let end_to_end ?(peak_mb = peak_rss_mb ()) ~setup_s ~wall_s ~latencies ~total_wl () =
  [
    ("setup_s", "s", setup_s);
    ("wall_s", "s", wall_s);
    ("latency_p50_ms", "ms", 1000.0 *. median latencies);
    ("latency_p90_ms", "ms", 1000.0 *. percentile 0.9 latencies);
    ("peak_rss_mb", "MiB", peak_mb);
    ("total_wl_um", "um", total_wl);
  ]

(* ------------------------- end-to-end runs --------------------------- *)

(* A round runs every circuit's job once.  A run makes at least
   [min_rounds] rounds, then more while another round is expected to end
   within [seconds].  Every round must reproduce the first round's
   outputs, so the rounds repeat the same work.  A circuit's latency is
   the sum over its steps of each step's fastest time over the rounds:
   the shared host has spells, seconds to minutes long, in which it runs
   everything up to 1.6x slower, and the fastest repeat of a step is the
   one those spells disturbed least.  wall_s is the sum of the circuits'
   latencies, the time of one round. *)
let min_rounds = 3

let batch_run circuits ~seconds ~setup_s =
  let t_start = now () in
  let rec rounds k acc =
    let acc = List.map run_job circuits :: acc in
    let elapsed = now () -. t_start in
    let next_end = elapsed *. float_of_int (k + 2) /. float_of_int (k + 1) in
    if k + 1 < min_rounds || next_end <= seconds then rounds (k + 1) acc
    else List.rev acc
  in
  let all = rounds 0 [] in
  let first = List.hd all in
  let failed = ref 0 and attempted = ref 0 in
  List.iteri
    (fun k round ->
      List.iter2
        (fun (outs, raised, _) (outs0, _, _) ->
          let repeat_ok = same_outputs outs outs0 in
          if not repeat_ok then log "round %d: outputs differ from round 0" k;
          attempted := !attempted + List.length outs + raised;
          failed := !failed + raised;
          List.iter
            (fun o ->
              report_problems (Flow.kind_name o.kind) o.problems;
              if o.problems <> [] || not repeat_ok then incr failed)
            outs)
        round first;
      log "round %d: %.3fs" k (sum (List.concat_map (fun (_, _, ts) -> ts) round)))
    all;
  (* per circuit, per step, the step's times over the rounds *)
  let step_times =
    List.mapi
      (fun i c ->
        let jobs = List.map (fun round -> List.nth round i) all in
        if List.exists (fun (_, raised, _) -> raised > 0) jobs then None
        else
          Some
            (List.init
               (1 + List.length c.kinds)
               (fun s -> List.map (fun (_, _, ts) -> List.nth ts s) jobs)))
      circuits
  in
  let latency pick = function
    | None -> infinity
    | Some steps -> sum (List.map pick steps)
  in
  let fastest = List.fold_left min infinity in
  let latencies = List.map (latency fastest) step_times in
  let q = quality (List.concat_map (fun (outs, _, _) -> outs) first) in
  log "%d rounds: %.3fs from fastest steps, %.3fs from median steps" (List.length all)
    (sum latencies)
    (sum (List.map (latency median) step_times));
  log "shields %d, total WL %.1f um, residual %d, area overhead %.2f%%" q.q_shields q.q_wl
    q.q_residual q.q_area_pct;
  ( !failed = 0 && q.q_residual = 0,
    !attempted,
    !failed,
    end_to_end ~setup_s ~wall_s:(sum latencies) ~latencies ~total_wl:q.q_wl () )

let cycle_len = 8

(* At least 100 timed requests, so that 10 samples lie beyond p90. *)
let min_requests = 100

(* Seconds per [cycle_len] requests: the median, over consecutive
   windows of [cycle_len] completions, of the time each window took. *)
let cycle_seconds completed =
  let t = Array.of_list (0.0 :: completed) in
  median
    (List.init ((Array.length t - 1) / cycle_len) (fun k ->
         t.((k + 1) * cycle_len) -. t.(k * cycle_len)))

(* One untimed cycle warms the daemon's panel cache; then the timed
   requests.  Every served request, the warm-up ones included, is
   compared with one in-process cycle through the pool, run after the
   daemon has stopped. *)
let serve_run pool ~seconds ~setup_s d =
  let warmup, _ = drive d pool ~until:(fun n _ -> n >= cycle_len) in
  let results, completed =
    drive d pool ~until:(fun n dt -> n >= min_requests && dt >= seconds)
  in
  let peak_mb = peak_rss_mb () in
  let _, _, stats_bad = final_stats d in
  stop_daemon d;
  let cache = Cache.create () in
  let reference = Array.map (route_in_process ~traced:false ~cache) pool in
  let expected = Array.map expected_response reference in
  let judged = judge_served expected results in
  let warm_failed =
    List.length (List.filter (fun (_, p) -> p <> []) (judge_served expected warmup))
  in
  let failed = warm_failed + List.length (List.filter (fun (_, p) -> p <> []) judged) in
  let n = List.length results in
  let q = quality (Array.to_list (Array.map (fun (r, d) -> outcome r d) reference)) in
  log "served %d + %d requests in %.3fs; shields %d, total WL %.1f um"
    (List.length warmup) n
    (List.nth completed (n - 1))
    q.q_shields q.q_wl;
  ( failed = 0 && stats_bad = [],
    List.length warmup + n,
    failed,
    end_to_end ~peak_mb ~setup_s ~wall_s:(cycle_seconds completed)
      ~latencies:(List.map fst judged) ~total_wl:q.q_wl () )

(* --------------------------- per-layer run --------------------------- *)

(* [paired k untraced traced] runs both back to back, the untraced one
   first when [k] is even, and returns each result with its time.
   Alternating the order spreads process warm-up and machine drift
   evenly over the two sides. *)
let paired k untraced traced =
  if k mod 2 = 0 then
    let u = timed untraced in
    (u, timed traced)
  else
    let t = timed traced in
    (timed untraced, t)

let solver_sample = 400

(* Cold and cache-hit solve time per panel (median of 3 sweeps), on up
   to [solver_sample] panels captured from a finished flow with
   [Phase2.iter]. *)
let solver_bench ~mode ~seed (r : Flow.result) =
  let panels =
    List.filteri (fun i _ -> i < solver_sample) (List.map snd (Pipeline.panels r.phase2))
  in
  let n = float_of_int (max 1 (List.length panels)) in
  let req = Solver.request ~mode ~params:tech.Tech.keff ~seed () in
  let per_panel_us solve =
    median
      (List.init 3 (fun _ -> snd (timed (fun () -> List.iter solve panels)) /. n *. 1e6))
  in
  let cold = per_panel_us (fun inst -> ignore (Solver.solve req inst)) in
  let cache = Cache.create () in
  List.iter (fun inst -> ignore (Solver.solve ~cache req inst)) panels;
  let hit = per_panel_us (fun inst -> ignore (Solver.solve ~cache req inst)) in
  (cold, hit)

(* Everything a traced run measured besides the spans. *)
type traced = {
  untraced_s : float;  (** summed time of the untraced operations *)
  traced_s : float;  (** summed time of their traced twins *)
  solver : float * float;  (** cold, hit µs per panel *)
  entries : int;  (** panel cache entries when the flows ended *)
  serve : (string * string * float) list;
  q : quality;
  failed_pct : float;
}

let layer_metrics m =
  let t = Span.by_name () in
  let rt = t "id_router" and p2 = t "phase2" and rf = t "refine" and nz = t "noise" in
  let c k = Span.sum p2 k +. Span.sum rf k in
  let hits = c "sino.cache_hits" and misses = c "sino.cache_misses" in
  let pops = Span.sum rt "id_router.iterations" in
  let reweights = Span.sum rt "id_router.reweights" in
  let panels = Span.sum p2 "panels" in
  let pass2 = Span.sum rf "pass2_resolves" and removed = Span.sum rf "shields_removed" in
  let nets = Span.sum nz "nets" in
  let cold_us, hit_us = m.solver in
  [
    ("netlist.generate_s", "s", (t "netlist").total_s);
    ("lsk.table_s", "s", (t "lsk").total_s);
    ("prepare.s", "s", (t "prepare").total_s);
    ("prepare.self_s", "s", (t "prepare").self_s);
    ("id_router.s", "s", rt.total_s);
    ("id_router.calls", "count", float_of_int rt.calls);
    ("id_router.pops", "count", pops);
    ("id_router.reweights", "count", reweights);
    ("id_router.reweight_share", "ratio", ratio reweights pops);
    ("id_router.minor_mwords", "Mwords", Span.sum rt "minor_words" /. 1e6);
    ("phase2.s", "s", p2.total_s);
    ("phase2.panels", "count", panels);
    ("phase2.panel_us", "us", ratio p2.total_s panels *. 1e6);
    ("solver.cold_us", "us", cold_us);
    ("solver.hit_us", "us", hit_us);
    ("cache.payoff", "ratio", ratio hit_us cold_us);
    ("cache.lookups", "count", hits +. misses);
    ("cache.hit_rate", "ratio", ratio hits (hits +. misses));
    ("cache.evictions", "count", c "sino.cache_evictions");
    ("cache.entries", "count", float_of_int m.entries);
    ("refine.s", "s", rf.total_s);
    ("refine.pass1_resolves", "count", Span.sum rf "pass1_resolves");
    ("refine.pass2_resolves", "count", pass2);
    ("refine.shields_removed", "count", removed);
    ("refine.pass2_yield", "ratio", ratio removed pass2);
    ("refine.minor_mwords", "Mwords", Span.sum rf "minor_words" /. 1e6);
    ("noise.s", "s", nz.total_s);
    ("noise.nets", "count", nets);
    ("noise.net_us", "us", ratio nz.total_s nets *. 1e6);
    ("check.s", "s", (t "check").total_s);
  ]
  @ m.serve
  @ [
      ("trace.overhead_pct", "%", 100.0 *. (ratio m.traced_s m.untraced_s -. 1.0));
      ("shields", "count", float_of_int m.q.q_shields);
      ("area_overhead_pct", "%", m.q.q_area_pct);
      ("residual_violations", "count", float_of_int m.q.q_residual);
      ("failed_pct", "%", m.failed_pct);
    ]

(* Spans, metrics and each span name's share of the traced time, written
   once the run has ended. *)
let write_trace ~workload ~seed ~traced_s metrics =
  ensure_dir out_dir;
  let t = Span.by_name () in
  let shares =
    List.sort_uniq compare (List.map (fun s -> s.Span.name) (Span.spans ()))
    |> List.filter (fun name -> name <> "netlist" && name <> "lsk")
    |> List.map (fun name -> (name, Json.Float ((t name).Span.self_s /. traced_s)))
  in
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir workload seed in
  Json.write_file path
    (Json.Obj
       [
         ("workload", Json.Str workload);
         ("seed", Json.Int seed);
         ("metrics", Json.Obj (List.map (fun (n, _, v) -> (n, Json.Float v)) metrics));
         ("self_share", Json.Obj shares);
         ("spans", Span.to_json ());
       ]);
  log "trace written to %s" path

(* The serve layer does not run in the batch workloads. *)
let no_serve =
  [
    ("serve.start_s", "s", 0.0);
    ("serve.codec_us", "us", 0.0);
    ("serve.ping_ms", "ms", 0.0);
    ("serve.overhead_ms", "ms", 0.0);
    ("serve.rejected", "count", 0.0);
    ("serve.errors", "count", 0.0);
  ]

let pct part whole = 100.0 *. ratio (float_of_int part) (float_of_int whole)

(* Every circuit's job, each prepare and each flow paired with its
   traced twin (the twin uses the traced prepare's grid and routes). *)
let batch_traced ~seed circuits =
  let k = ref 0 and untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let pair untraced traced =
    let (u, us), (t, ts) = paired !k untraced traced in
    incr k;
    untraced_s := !untraced_s +. us;
    traced_s := !traced_s +. ts;
    (u, t)
  in
  let flows =
    List.concat_map
      (fun c ->
        let (grid, base), (tgrid, tbase) =
          pair
            (fun () -> Flow.prepare ~config:(config c Flow.Id_no) tech c.netlist)
            (fun () -> Pipeline.prepare ~config:(config c Flow.Id_no) tech c.netlist)
        in
        List.map
          (fun kind ->
            pair
              (fun () ->
                let r =
                  Flow.run ~grid ?base:(base_for kind base) (config c kind) tech
                    ~sensitivity:c.sensitivity c.netlist
                in
                outcome r (Flow.check ~tech r))
              (fun () ->
                let cache = Cache.create () in
                let r =
                  Pipeline.run ~grid:tgrid ?base:(base_for kind tbase) ~cache
                    (config c kind) tech ~sensitivity:c.sensitivity c.netlist
                in
                (outcome r (Pipeline.check tech r), r, Cache.length cache)))
          c.kinds)
      circuits
  in
  let outs = List.map fst flows and touts = List.map (fun (_, (o, _, _)) -> o) flows in
  let reproduced = same_outputs outs touts in
  if not reproduced then log "traced outputs differ from the untraced run";
  List.iter (fun o -> report_problems (Flow.kind_name o.kind) o.problems) outs;
  let failed = List.length (List.filter (fun o -> o.problems <> []) outs) in
  let _, (_, last, _) = List.nth flows (List.length flows - 1) in
  let mode =
    match last.Flow.kind with Flow.Id_no -> Solver.Order_only | _ -> Solver.Min_area
  in
  let q = quality outs in
  ( reproduced && failed = 0 && q.q_residual = 0,
    List.length outs,
    failed,
    {
      untraced_s = !untraced_s;
      traced_s = !traced_s;
      solver = solver_bench ~mode ~seed last;
      entries = List.fold_left (fun a (_, (_, _, n)) -> a + n) 0 flows;
      serve = no_serve;
      q;
      failed_pct = pct failed (List.length outs);
    } )

(* Three cycles through the daemon, then two cycles in-process with each
   request paired with its traced twin; each side has its own warm
   cache, as the daemon has. *)
let serve_traced pool d =
  let pings =
    List.init 20 (fun _ ->
        snd (timed (fun () -> Client.request ~timeout_s:10.0 d.sock Protocol.Ping)) *. 1000.0)
  in
  let results, _ = drive d pool ~until:(fun n _ -> n >= 3 * cycle_len) in
  let stats, rejected, stats_bad = final_stats d in
  stop_daemon d;
  let cache = Cache.create () and tcache = Cache.create () in
  let pairs =
    List.init (2 * cycle_len) (fun i ->
        let req = pool.(i mod cycle_len) in
        paired i
          (fun () -> route_in_process ~traced:false ~cache req)
          (fun () -> route_in_process ~traced:true ~cache:tcache req))
  in
  let outs = List.map (fun (((r, d), _), _) -> outcome r d) pairs in
  let touts = List.map (fun (_, ((r, d), _)) -> outcome r d) pairs in
  let reproduced = same_outputs outs touts in
  if not reproduced then log "traced outputs differ from the untraced run";
  let expected =
    Array.init cycle_len (fun i -> expected_response (fst (fst (List.nth pairs i))))
  in
  let judged = judge_served expected results in
  let failed =
    List.length (List.filter (fun (_, p) -> p <> []) judged)
    + List.length (List.filter (fun o -> o.problems <> []) outs)
  in
  let attempted = List.length judged + List.length outs in
  let q = quality (List.filteri (fun i _ -> i < cycle_len) outs) in
  let (last, _), _ = snd (List.nth pairs (List.length pairs - 1)) in
  let codec_us =
    let resp = match results with (_, Ok (r, _)) :: _ -> r | _ -> Protocol.Pong in
    let reps = 50 in
    let _, s =
      timed (fun () ->
          for _ = 1 to reps do
            ignore
              (Protocol.request_of_string (Json.to_string (Protocol.request_to_json pool.(0))));
            ignore
              (Protocol.response_of_string (Json.to_string (Protocol.response_to_json resp)))
          done)
    in
    s /. float_of_int reps *. 1e6
  in
  let in_process_s = List.map (fun ((_, s), _) -> s) pairs in
  ( reproduced && failed = 0 && stats_bad = [] && q.q_residual = 0,
    attempted,
    failed,
    {
      untraced_s = sum in_process_s;
      traced_s = sum (List.map (fun (_, (_, s)) -> s) pairs);
      solver =
        (match pool.(cycle_len - 1) with
        | Protocol.Route { options; _ } ->
            solver_bench ~mode:Solver.Min_area ~seed:options.seed last
        | Protocol.Ping | Protocol.Stats -> (nan, nan));
      entries = Cache.length tcache;
      serve =
        [
          ("serve.start_s", "s", d.start_s);
          ("serve.codec_us", "us", codec_us);
          ("serve.ping_ms", "ms", median pings);
          ( "serve.overhead_ms",
            "ms",
            1000.0 *. (median (List.map fst judged) -. median in_process_s) );
          ("serve.rejected", "count", float_of_int rejected);
          ("serve.errors", "count", float_of_int stats.Protocol.errors);
        ];
      q;
      failed_pct = pct failed attempted;
    } )

(* -------------------------------- main ------------------------------- *)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tables-ibm04 | serve-warm");
      ("--seed", Arg.Set_int seed, "N input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--setup-only", Arg.Set setup_only, " time the set-up only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gsino_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--setup-only]";
  let workload = !workload and seed = !seed and seconds = !seconds in
  if not (List.mem workload [ "tables-ibm04"; "serve-warm" ]) then begin
    prerr_endline ("unknown workload: " ^ workload);
    exit 2
  end;
  let inputs, setup_s = timed (fun () -> setup workload seed) in
  if !setup_only then begin
    (match inputs with Served (_, d) -> stop_daemon d | Batch _ -> ());
    print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Float setup_s) ]));
    exit 0
  end;
  log "%s seed %d: set-up %.3fs" workload seed setup_s;
  let correct, attempted, failed, metrics =
    match (inputs, !trace) with
    | Batch circuits, 0 -> batch_run circuits ~seconds ~setup_s
    | Served (pool, d), 0 -> serve_run pool ~seconds ~setup_s d
    | _ ->
        let correct, attempted, failed, m =
          match inputs with
          | Batch circuits -> batch_traced ~seed circuits
          | Served (pool, d) -> serve_traced pool d
        in
        let metrics = layer_metrics m in
        write_trace ~workload ~seed ~traced_s:m.traced_s metrics;
        (correct, attempted, failed, metrics)
  in
  emit ~correct ~attempted ~failed metrics
