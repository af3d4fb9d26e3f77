type scalar = { kind : string; value : float }

let scalar_of = function
  | Metrics.Counter c -> { kind = "counter"; value = float_of_int c }
  | Metrics.Gauge g -> { kind = "gauge"; value = g }
  | Metrics.Histogram h -> { kind = "histogram"; value = float_of_int h.Metrics.count }

type change =
  | Added of scalar
  | Removed of scalar
  | Changed of { kind : string; before : float; after : float }
  | Unchanged of scalar

type entry = { name : string; labels : Metrics.labels; change : change }

let delta = function
  | Added s -> s.value
  | Removed s -> -.s.value
  | Changed { before; after; _ } -> after -. before
  | Unchanged _ -> 0.0

let rel_delta = function
  | Added _ | Removed _ -> None
  | Unchanged _ -> Some 0.0
  | Changed { before; after; _ } ->
      if before = 0.0 then None else Some ((after -. before) /. Float.abs before)

let changed e = match e.change with Unchanged _ -> false | Added _ | Removed _ | Changed _ -> true

(* Merge-join on the sorted (name, labels) keys of the two snapshots. *)
let diff before after =
  let key (n, l, _) = (n, l) in
  let rec go acc before after =
    match (before, after) with
    | [], [] -> List.rev acc
    | ((n, l, v) :: rest), [] ->
        go ({ name = n; labels = l; change = Removed (scalar_of v) } :: acc) rest []
    | [], ((n, l, v) :: rest) ->
        go ({ name = n; labels = l; change = Added (scalar_of v) } :: acc) [] rest
    | (((bn, bl, bv) as b) :: brest), (((an, al, av) as a) :: arest) ->
        let c = compare (key b) (key a) in
        if c < 0 then
          go ({ name = bn; labels = bl; change = Removed (scalar_of bv) } :: acc) brest after
        else if c > 0 then
          go ({ name = an; labels = al; change = Added (scalar_of av) } :: acc) before arest
        else begin
          let sb = scalar_of bv and sa = scalar_of av in
          let kind = if sb.kind = sa.kind then sb.kind else sb.kind ^ "->" ^ sa.kind in
          let change =
            if sb.kind = sa.kind && sb.value = sa.value then Unchanged sa
            else Changed { kind; before = sb.value; after = sa.value }
          in
          go ({ name = an; labels = al; change } :: acc) brest arest
        end
  in
  go [] (Metrics.entries before) (Metrics.entries after)

(* ------------------------------ policy ------------------------------ *)

type direction = Up | Down | Any_change

type tolerance = {
  metric : string;
  max_abs : float option;
  max_rel : float option;
  direction : direction;
}

type policy = { tolerances : tolerance list; exclude : string list }

(* [exclude] prefixes drop whole metric families (prof., gc., exec.)
   from both the rendered diff and the gate: these series are wall-clock
   or scheduling shaped, so their drift is noise, and hiding them keeps
   the CI diff output signal-only. *)
let excluded policy name =
  List.exists (fun p -> String.starts_with ~prefix:p name) policy.exclude

let apply_exclude policy entries =
  List.filter (fun e -> not (excluded policy e.name)) entries

(* A strict {!Json} reader failing with this module's own message, so
   the documented gsino_diff error texts stay as they are; [field] reads
   an optional member with it. *)
let read get msg v =
  try get msg v with Json.Decode_error _ -> Json.decode_error "%s" msg

let field key o get msg = Option.map (read get msg) (Json.member key o)

let required key o get msg =
  match field key o get msg with Some v -> v | None -> Json.decode_error "%s" msg

let policy_of_json j =
  let fail msg = Json.decode_error "%s" msg in
  let tolerance t =
    let metric =
      required "metric" t Json.get_string
        "tolerance entry: missing string field 'metric'"
    in
    let num key =
      field key t Json.get_number (metric ^ ": " ^ key ^ " must be a number")
    in
    let max_abs = num "max_abs" in
    let max_rel = num "max_rel" in
    let dir_msg = metric ^ ": direction must be up|down|both" in
    let direction =
      match field "direction" t Json.get_string dir_msg with
      | Some "up" | None -> Up
      | Some "down" -> Down
      | Some "both" -> Any_change
      | Some _ -> fail dir_msg
    in
    { metric; max_abs; max_rel; direction }
  in
  match
    (match
       required "schema" j Json.get_string
         "policy: missing schema (want gsino-diff-policy-v1)"
     with
    | "gsino-diff-policy-v1" -> ()
    | s -> fail ("unsupported policy schema " ^ s));
    let tolerances =
      required "tolerances" j Json.get_list "policy: missing 'tolerances' list"
      |> List.map tolerance
    in
    let exclude =
      field "exclude" j Json.get_list "policy: exclude must be a list of name prefixes"
      |> Option.value ~default:[]
      |> List.map (read Json.get_string "policy: exclude entries must be strings")
    in
    { tolerances; exclude }
  with
  | policy -> Ok policy
  | exception Json.Decode_error msg -> Error msg

let load_policy path =
  match Json.read_file path with
  | Error msg -> Error (path ^ ": " ^ msg)
  | Ok j -> (
      match policy_of_json j with
      | Ok p -> Ok p
      | Error msg -> Error (path ^ ": " ^ msg))

type breach = { entry : entry option; tolerance : tolerance; reason : string }

let check policy entries =
  let check_one tol =
    let matching = List.filter (fun e -> e.name = tol.metric) entries in
    if matching = [] then
      [
        {
          entry = None;
          tolerance = tol;
          reason = "guarded metric absent from both snapshots";
        };
      ]
    else
      List.filter_map
        (fun e ->
          match e.change with
          | Unchanged _ -> None
          | Added _ ->
              Some
                { entry = Some e; tolerance = tol; reason = "series only in current" }
          | Removed _ ->
              Some
                {
                  entry = Some e;
                  tolerance = tol;
                  reason = "series missing from current";
                }
          | Changed { before; after; _ } ->
              let d = after -. before in
              let in_guarded_direction =
                match tol.direction with
                | Up -> d > 0.0
                | Down -> d < 0.0
                | Any_change -> true
              in
              if not in_guarded_direction then None
              else begin
                let abs_ok =
                  match tol.max_abs with
                  | Some m -> Float.abs d <= m
                  | None -> false
                in
                let rel_ok =
                  match tol.max_rel with
                  | Some m -> before <> 0.0 && Float.abs (d /. before) <= m
                  | None -> false
                in
                if abs_ok || rel_ok then None
                else begin
                  let describe =
                    match (tol.max_abs, tol.max_rel) with
                    | None, None -> "no drift allowed"
                    | Some a, None -> Printf.sprintf "max_abs %g exceeded" a
                    | None, Some r ->
                        Printf.sprintf "max_rel %g%% exceeded" (100.0 *. r)
                    | Some a, Some r ->
                        Printf.sprintf "max_abs %g and max_rel %g%% exceeded" a
                          (100.0 *. r)
                  in
                  Some
                    {
                      entry = Some e;
                      tolerance = tol;
                      reason =
                        Printf.sprintf "%+g (%s -> %s): %s" d
                          (Printf.sprintf "%g" before)
                          (Printf.sprintf "%g" after)
                          describe;
                    }
                end
              end)
        matching
  in
  List.concat_map check_one policy.tolerances

(* ---------------------------- rendering ----------------------------- *)

let series_name name labels =
  match labels with
  | [] -> name
  | l ->
      name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let pp_entry fmt e =
  let id = series_name e.name e.labels in
  match e.change with
  | Added s -> Format.fprintf fmt "+ %-44s %-9s %14s %14g" id s.kind "-" s.value
  | Removed s -> Format.fprintf fmt "- %-44s %-9s %14g %14s" id s.kind s.value "-"
  | Unchanged s ->
      Format.fprintf fmt "  %-44s %-9s %14g %14g" id s.kind s.value s.value
  | Changed { kind; before; after } ->
      let rel =
        if before = 0.0 then "    n/a"
        else Printf.sprintf "%+6.1f%%" (100.0 *. ((after -. before) /. Float.abs before))
      in
      Format.fprintf fmt "~ %-44s %-9s %14g %14g %+14g %s" id kind before after
        (after -. before) rel

let pp_breach fmt b =
  match b.entry with
  | None -> Format.fprintf fmt "%s: %s" b.tolerance.metric b.reason
  | Some e -> Format.fprintf fmt "%s: %s" (series_name e.name e.labels) b.reason

(* ------------------------------ history ----------------------------- *)

module History = struct
  type entry = {
    ts : float;
    meta : (string * string) list;
    snapshot : Metrics.snapshot;
  }

  let meta_string = function
    | Json.Str s -> s
    | Json.Int i -> string_of_int i
    | Json.Float f -> Printf.sprintf "%g" f
    | Json.Bool b -> string_of_bool b
    | Json.Null | Json.List _ | Json.Obj _ -> "?"

  let entry_of_json j =
    match
      let ts =
        required "ts" j Json.get_number "history entry: missing numeric 'ts'"
      in
      (* [ts] was found, so [j] is an object *)
      let meta =
        Json.get_obj "history entry" j
        |> List.filter_map (fun (k, v) ->
               match k with
               | "schema" | "ts" | "snapshot" -> None
               | _ -> Some (k, meta_string v))
      in
      let snapshot =
        match Json.member "snapshot" j with
        | None -> Json.decode_error "history entry: missing 'snapshot'"
        | Some s -> (
            match Metrics.of_json s with
            | Ok snapshot -> snapshot
            | Error e -> Json.decode_error "%s" e)
      in
      { ts; meta; snapshot }
    with
    | entry -> Ok entry
    | exception Json.Decode_error msg -> Error msg

  (* JSONL, one snapshot per line, oldest first (bench appends). *)
  let load path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | contents ->
        let lines = String.split_on_char '\n' contents in
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest ->
              let line = String.trim line in
              if line = "" then go (i + 1) acc rest
              else begin
                match Json.of_string line with
                | Error e ->
                    Error (Printf.sprintf "%s:%d: %s" path i e)
                | Ok j -> (
                    match entry_of_json j with
                    | Error e ->
                        Error (Printf.sprintf "%s:%d: %s" path i e)
                    | Ok entry -> go (i + 1) (entry :: acc) rest)
              end
        in
        go 1 [] lines

  type trend = {
    name : string;
    n : int;  (** snapshots the series appears in *)
    first : float;
    last : float;
    lo : float;
    hi : float;
  }

  (* One scalar per (snapshot, name): series summed across label sets,
     so e.g. flow.phase_seconds trends as total flow time. *)
  let scalar_by_name snap =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (name, _labels, v) ->
        let s = (scalar_of v).value in
        Hashtbl.replace tbl name
          (s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name)))
      (Metrics.entries snap);
    tbl

  let trends entries =
    let acc : (string, trend) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun e ->
        Hashtbl.iter
          (fun name v ->
            match Hashtbl.find_opt acc name with
            | None ->
                Hashtbl.replace acc name
                  { name; n = 1; first = v; last = v; lo = v; hi = v }
            | Some t ->
                Hashtbl.replace acc name
                  {
                    t with
                    n = t.n + 1;
                    last = v;
                    lo = Float.min t.lo v;
                    hi = Float.max t.hi v;
                  })
          (scalar_by_name e.snapshot))
      entries;
    Hashtbl.fold (fun _ t l -> t :: l) acc []
    |> List.sort (fun a b -> compare a.name b.name)

  let pp_trend fmt t =
    (* drift needs two snapshots and a finite, non-zero start: a
       single-snapshot history (bench's first run) or a NaN/inf series
       must render "n/a", never NaN% or a division by zero *)
    let rel =
      if t.n < 2 || t.first = 0.0 || not (Float.is_finite t.first) then
        "    n/a"
      else
        let pct = 100.0 *. ((t.last -. t.first) /. Float.abs t.first) in
        if Float.is_finite pct then Printf.sprintf "%+6.1f%%" pct
        else "    n/a"
    in
    Format.fprintf fmt "%-44s %3d %14g %14g %s %14g %14g" t.name t.n t.first
      t.last rel t.lo t.hi
end
