module Json = Eda_obs.Json
module Error = Eda_guard.Error

type artifact = Report | Metrics | Journal | Trace

type t = {
  kind : Flow.kind;
  router : Flow.router;
  budgeting : Flow.budgeting;
  seed : int;
  rate : float;
  deadline_ms : int;
  artifacts : artifact list;
}

(* the flow's own defaults, plus the paper's lower sensitivity rate *)
let default =
  let { Flow.Config.kind; router; budgeting; seed; deadline_ms; _ } =
    Flow.Config.default
  in
  { kind; router; budgeting; seed; rate = 0.30; deadline_ms; artifacts = [] }

let kind_names =
  [ ("id-no", Flow.Id_no); ("isino", Flow.Isino); ("gsino", Flow.Gsino) ]

let router_names = [ ("id", Flow.Iterative_deletion); ("nc", Flow.Negotiated) ]

let budgeting_names =
  [ ("uniform", Flow.Uniform); ("route-aware", Flow.Route_aware) ]

let artifact_names =
  [ ("report", Report); ("metrics", Metrics); ("journal", Journal);
    ("trace", Trace) ]

let name table v = fst (List.find (fun (_, x) -> x = v) table)

(* ------------------------------ codec ------------------------------- *)

let to_json o =
  let str table v = Json.Str (name table v) in
  Json.Obj
    [
      ("flow", str kind_names o.kind);
      ("router", str router_names o.router);
      ("budgeting", str budgeting_names o.budgeting);
      ("seed", Json.Int o.seed);
      ("rate", Json.Float o.rate);
      ("deadline_ms", Json.Int o.deadline_ms);
      ("artifacts", Json.List (List.map (str artifact_names) o.artifacts));
    ]

let named what table v =
  let s = Json.get_string what v in
  match List.assoc_opt s table with
  | Some x -> x
  | None -> Json.decode_error "%s: unknown value %S" what s

let field o (k, v) =
  let what = "options." ^ k in
  match k with
  | "flow" -> { o with kind = named what kind_names v }
  | "router" -> { o with router = named what router_names v }
  | "budgeting" -> { o with budgeting = named what budgeting_names v }
  | "seed" -> { o with seed = Json.get_int what v }
  | "rate" -> { o with rate = Json.get_number what v }
  | "deadline_ms" -> { o with deadline_ms = Json.get_int what v }
  | "artifacts" ->
      let l = Json.get_list what v in
      { o with artifacts = List.map (named what artifact_names) l }
  | k -> Json.decode_error "options: unknown field %S" k

let of_json j =
  try Ok (List.fold_left field default (Json.get_obj "options" j))
  with Json.Decode_error detail ->
    Error (Error.Frame { what = "bad-schema"; detail })

(* ------------------------------ running ----------------------------- *)

let to_config ~jobs o =
  {
    Flow.Config.default with
    Flow.Config.kind = o.kind;
    router = o.router;
    budgeting = o.budgeting;
    seed = o.seed;
    deadline_ms = o.deadline_ms;
    jobs;
  }

(* the one derivation of the sensitivity seed from the flow seed *)
let sensitivity o =
  Eda_netlist.Sensitivity.make ~seed:(o.seed lxor 0xbeef) ~rate:o.rate

let route ?pool ?deadline ?kinds ~config tech o netlist f =
  let grid, base =
    Flow.prepare ~config:{ config with Flow.Config.kind = Flow.Gsino } ?pool tech
      netlist
  in
  let sensitivity = sensitivity o in
  List.map
    (fun kind ->
      let r =
        Flow.run ~grid ~base ?pool ?deadline
          { config with Flow.Config.kind } tech ~sensitivity netlist
      in
      f r (Flow.check ~tech r))
    (Option.value kinds ~default:[ o.kind ])
