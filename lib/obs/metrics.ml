type labels = (string * string) list

let n_buckets = 64

(* bucket i covers [2^(i-16), 2^(i-15)); <=0 underflows to 0 *)
let bucket_of v =
  if v <= 0.0 || not (Float.is_finite v) then if v > 0.0 then n_buckets - 1 else 0
  else begin
    let _, e = Float.frexp v in
    (* v in [2^(e-1), 2^e) *)
    min (n_buckets - 1) (max 0 (e + 15))
  end

type counter_cell = { mutable c : int }
type gauge_cell = { mutable g : float }

type histogram_cell = {
  mutable count : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  buckets : int array;
}

type instrument = C of counter_cell | G of gauge_cell | H of histogram_cell

(* Sharding: every domain owns a private registry of cells, reached
   through domain-local storage, so recording never shares a mutable cell
   across domains.  An instrument handle is the DLS key of its cell; the
   first touch from a domain materialises (and registers) that domain's
   cell.  [snapshot]/[reset] act on the calling domain's shard only, and
   worker shards are folded back with {!absorb} (see the .mli for the
   contract). *)
let registry_key : (string * labels, instrument) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key

(* Every cell this domain has ever materialised, including ones [rebase]
   dropped from the visible registry.  Needed so rebasing can zero cells
   that are currently invisible — otherwise a value recorded by request
   N would bleed into request N+2's export when the instrument is
   re-registered. *)
let materialized_key : (string * labels, instrument) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let materialized () = Domain.DLS.get materialized_key

type counter = counter_cell Domain.DLS.key
type gauge = gauge_cell Domain.DLS.key
type histogram = histogram_cell Domain.DLS.key

type handle = KC of counter | KG of gauge | KH of histogram

(* Process-global (name, labels) -> handle table, so registration stays
   idempotent across domains: each pair has exactly one DLS key.  The
   mutex guards registration only — recording goes straight to the
   domain-local cell and never takes it. *)
let handles : (string * labels, handle) Hashtbl.t = Hashtbl.create 64
let handles_mu = Mutex.create ()

let norm_labels labels =
  let l = List.sort_uniq compare labels in
  if List.length l <> List.length (List.sort_uniq (fun (a, _) (b, _) -> compare a b) l)
  then invalid_arg "Metrics: duplicate label key";
  l

let register key find make =
  Mutex.protect handles_mu (fun () ->
      match Hashtbl.find_opt handles key with
      | Some existing -> find existing
      | None ->
          let h = make key in
          Hashtbl.replace handles key h;
          find h)

let new_cell_key key wrap cell_of =
  Domain.DLS.new_key (fun () ->
      let cell = cell_of () in
      Hashtbl.replace (registry ()) key (wrap cell);
      Hashtbl.replace (materialized ()) key (wrap cell);
      cell)

(* (Re-)install this domain's cell in the visible registry.  The DLS
   initialiser above only runs on first materialisation; after a
   [rebase] dropped the key, the next registration call must make the
   existing cell visible again or later bumps would never export. *)
let reinstall key inst =
  let reg = registry () in
  if not (Hashtbl.mem reg key) then Hashtbl.replace reg key inst

let metric_key ?(labels = []) name =
  if name = "" then invalid_arg "Metrics: empty metric name";
  (name, norm_labels labels)

let counter ?labels name =
  let key = metric_key ?labels name in
  let k =
    register key
      (function
        | KC c -> c
        | KG _ | KH _ ->
            invalid_arg
              ("Metrics.counter: " ^ name ^ " registered with another kind"))
      (fun key -> KC (new_cell_key key (fun c -> C c) (fun () -> { c = 0 })))
  in
  (* materialise this domain's cell eagerly so the instrument shows up in
     snapshots at value zero even if never bumped *)
  reinstall key (C (Domain.DLS.get k));
  k

let gauge ?labels name =
  let key = metric_key ?labels name in
  let k =
    register key
      (function
        | KG g -> g
        | KC _ | KH _ ->
            invalid_arg
              ("Metrics.gauge: " ^ name ^ " registered with another kind"))
      (fun key -> KG (new_cell_key key (fun g -> G g) (fun () -> { g = 0.0 })))
  in
  reinstall key (G (Domain.DLS.get k));
  k

let histogram ?labels name =
  let key = metric_key ?labels name in
  let k =
    register key
      (function
        | KH h -> h
        | KC _ | KG _ ->
            invalid_arg
              ("Metrics.histogram: " ^ name ^ " registered with another kind"))
      (fun key ->
        KH
          (new_cell_key key
             (fun h -> H h)
             (fun () ->
               {
                 count = 0;
                 sum = 0.0;
                 mn = infinity;
                 mx = neg_infinity;
                 buckets = Array.make n_buckets 0;
               })))
  in
  reinstall key (H (Domain.DLS.get k));
  k

let incr k =
  let c = Domain.DLS.get k in
  c.c <- c.c + 1

let add k n =
  let c = Domain.DLS.get k in
  c.c <- c.c + n

let counter_value k = (Domain.DLS.get k).c

let set k v =
  let g = Domain.DLS.get k in
  g.g <- v

let accum k v =
  let g = Domain.DLS.get k in
  g.g <- g.g +. v

let gauge_value k = (Domain.DLS.get k).g

let observe k v =
  let h = Domain.DLS.get k in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.mn then h.mn <- v;
  if v > h.mx then h.mx <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (int * int) list;
}

let summary_of_cell (h : histogram_cell) =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
  done;
  { count = h.count; sum = h.sum; min = h.mn; max = h.mx; buckets = !buckets }

let histogram_summary (k : histogram) = summary_of_cell (Domain.DLS.get k)

let histogram_mean s =
  if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

(* bucket i covers [2^(i-16), 2^(i-15)) — see bucket_of *)
let bucket_lo i = Float.ldexp 1.0 (i - 16)
let bucket_hi i = Float.ldexp 1.0 (i - 15)

let quantile s q =
  if s.count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int s.count in
    let rec go cum = function
      | [] -> s.max
      | (i, c) :: rest ->
          let cum' = cum +. float_of_int c in
          if cum' >= rank || rest = [] then begin
            let lo = bucket_lo i and hi = bucket_hi i in
            let frac =
              if c = 0 then 0.0
              else Float.max 0.0 (Float.min 1.0 ((rank -. cum) /. float_of_int c))
            in
            Float.max s.min (Float.min s.max (lo +. ((hi -. lo) *. frac)))
          end
          else go cum' rest
    in
    go 0.0 s.buckets
  end

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

type snapshot = (string * labels * value) list

let snapshot () =
  Hashtbl.fold
    (fun (name, labels) inst acc ->
      let v =
        match inst with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h -> Histogram (summary_of_cell h)
      in
      (name, labels, v) :: acc)
    (registry ()) []
  |> List.sort compare

let entries s = s

let find ?(labels = []) s name =
  let labels = norm_labels labels in
  List.find_map
    (fun (n, l, v) -> if n = name && l = labels then Some v else None)
    s

let counter_total s name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with Counter c when n = name -> acc + c | Counter _ | Gauge _ | Histogram _ -> acc)
    0 s

let merge_value a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge _, Gauge y -> Gauge y
  | Histogram x, Histogram y ->
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (i, c) ->
          Hashtbl.replace tbl i (c + Option.value (Hashtbl.find_opt tbl i) ~default:0))
        (x.buckets @ y.buckets);
      let buckets =
        Hashtbl.fold (fun i c acc -> (i, c) :: acc) tbl [] |> List.sort compare
      in
      Histogram
        {
          count = x.count + y.count;
          sum = x.sum +. y.sum;
          min = Float.min x.min y.min;
          max = Float.max x.max y.max;
          buckets;
        }
  | (Counter _ | Gauge _ | Histogram _), _ ->
      invalid_arg "Metrics.merge: metric kind mismatch"

let merge a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, l, v) -> Hashtbl.replace tbl (n, l) v) a;
  List.iter
    (fun (n, l, v) ->
      match Hashtbl.find_opt tbl (n, l) with
      | None -> Hashtbl.replace tbl (n, l) v
      | Some prev -> Hashtbl.replace tbl (n, l) (merge_value prev v))
    b;
  Hashtbl.fold (fun (n, l) v acc -> (n, l, v) :: acc) tbl [] |> List.sort compare

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let value_fields = function
  | Counter c -> [ ("kind", Json.Str "counter"); ("value", Json.Int c) ]
  | Gauge g -> [ ("kind", Json.Str "gauge"); ("value", Json.Float g) ]
  | Histogram h ->
      [
        ("kind", Json.Str "histogram");
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", if h.count = 0 then Json.Null else Json.Float h.min);
        ("max", if h.count = 0 then Json.Null else Json.Float h.max);
        ( "buckets",
          Json.List
            (List.map
               (fun (i, c) ->
                 Json.Obj
                   [
                     (* upper bound of the bucket, for Prometheus-style "le" *)
                     ("le", Json.Float (bucket_hi i));
                     ("count", Json.Int c);
                   ])
               h.buckets) );
      ]

let to_json s =
  Json.Obj
    [
      ("schema", Json.Str "gsino-metrics-v1");
      ( "metrics",
        Json.List
          (List.map
             (fun (name, labels, v) ->
               Json.Obj
                 (("name", Json.Str name)
                 :: ("labels", labels_json labels)
                 :: value_fields v))
             s) );
    ]

let write_json path s = Json.write_file path (to_json s)

(* ------------------------- snapshot loading ------------------------- *)

let of_json j =
  let fail = Json.decode_error in
  let str = Json.get_string and num = Json.get_number and int = Json.get_int in
  let field what o key =
    match Json.member key o with
    | Some v -> v
    | None -> fail "%s: missing field %s" what key
  in
  (* invert the "le" upper bound back to the log2 bucket index *)
  let bucket_of_le le =
    if le <= 0.0 || not (Float.is_finite le) then fail "bucket le %g out of range" le;
    let i = int_of_float (Float.round (Float.log le /. Float.log 2.0)) + 15 in
    if i < 0 || i >= n_buckets || Float.abs (bucket_hi i -. le) > 1e-9 *. le then
      fail "bucket le %g is not a power of two in range" le;
    i
  in
  let labels_of what = function
    | Json.Obj fields ->
        norm_labels (List.map (fun (k, v) -> (k, str (what ^ ".labels") v)) fields)
    | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _
    | Json.List _ ->
        fail "%s: labels must be an object" what
  in
  let entry_of j =
    let name = str "metric name" (field "metric" j "name") in
    let labels = labels_of name (field name j "labels") in
    let v =
      match str (name ^ ".kind") (field name j "kind") with
      | "counter" -> Counter (int (name ^ ".value") (field name j "value"))
      | "gauge" -> Gauge (num (name ^ ".value") (field name j "value"))
      | "histogram" ->
          let count = int (name ^ ".count") (field name j "count") in
          let sum = num (name ^ ".sum") (field name j "sum") in
          let bound what default =
            match field name j what with
            | Json.Null -> default
            | (Json.Int _ | Json.Float _) as v -> num (name ^ "." ^ what) v
            | Json.Bool _ | Json.Str _ | Json.List _ | Json.Obj _ ->
                fail "%s.%s: expected number or null" name what
          in
          let buckets =
            Json.get_list (name ^ ".buckets") (field name j "buckets")
            |> List.map (fun b ->
                   ( bucket_of_le (num (name ^ ".le") (field name b "le")),
                     int (name ^ ".bucket count") (field name b "count") ))
            |> List.sort compare
          in
          Histogram
            {
              count;
              sum;
              min = bound "min" infinity;
              max = bound "max" neg_infinity;
              buckets;
            }
      | kind -> fail "%s: unknown metric kind %s" name kind
    in
    (name, labels, v)
  in
  match
    (match str "schema" (field "snapshot" j "schema") with
    | "gsino-metrics-v1" -> ()
    | schema -> fail "unsupported schema %s (want gsino-metrics-v1)" schema);
    Json.get_list "metrics" (field "snapshot" j "metrics")
    |> List.map entry_of |> List.sort compare
  with
  | entries -> Ok entries
  | exception Json.Decode_error msg -> Error msg

let read_json path =
  match Json.read_file path with
  | Error msg -> Error (path ^ ": " ^ msg)
  | Ok j -> (
      match of_json j with
      | Ok s -> Ok s
      | Error msg -> Error (path ^ ": " ^ msg))

let reset () =
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | C c -> c.c <- 0
      | G g -> g.g <- 0.0
      | H h ->
          h.count <- 0;
          h.sum <- 0.0;
          h.mn <- infinity;
          h.mx <- neg_infinity;
          Array.fill h.buckets 0 n_buckets 0)
    (registry ())

(* --------------------- request-scoped rebasing ----------------------- *)

let registered () =
  Mutex.protect handles_mu (fun () ->
      Hashtbl.fold (fun key _ acc -> key :: acc) handles [])
  |> List.sort compare

let zero_cell = function
  | C c -> c.c <- 0
  | G g -> g.g <- 0.0
  | H h ->
      h.count <- 0;
      h.sum <- 0.0;
      h.mn <- infinity;
      h.mx <- neg_infinity;
      Array.fill h.buckets 0 n_buckets 0

let rebase keys =
  let reg = registry () in
  Hashtbl.reset reg;
  (* zero every cell this domain ever materialised — including cells a
     previous rebase made invisible — so no prior request's value can
     bleed into this one when an instrument is lazily re-registered *)
  Hashtbl.iter (fun _ inst -> zero_cell inst) (materialized ());
  List.iter
    (fun key ->
      let handle =
        Mutex.protect handles_mu (fun () -> Hashtbl.find_opt handles key)
      in
      match handle with
      | None -> () (* unregistered key: nothing to materialise *)
      | Some h ->
          (* DLS cells are per-domain singletons: re-getting returns the
             same cell this domain always writes through, so after
             re-registering it here every later bump lands in a cell the
             next snapshot sees *)
          let inst =
            match h with
            | KC k -> C (Domain.DLS.get k)
            | KG k -> G (Domain.DLS.get k)
            | KH k -> H (Domain.DLS.get k)
          in
          zero_cell inst;
          Hashtbl.replace reg key inst)
    keys

(* ------------------------- shard absorption ------------------------- *)

(* Absorption mutates only the calling domain's DLS cells, so absorbs on
   distinct domains never share state and may run concurrently (the serve
   daemon's request workers each coordinate their own pool).  The hazard
   is two absorbs interleaving on the *same* shard — two sys-threads of
   one domain — which this per-domain flag rejects loudly. *)
let absorbing_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let absorb (s : snapshot) =
  let busy = Domain.DLS.get absorbing_key in
  if !busy then
    invalid_arg "Metrics.absorb: concurrent merge (sharding contract violated)";
  busy := true;
  Fun.protect
    ~finally:(fun () -> busy := false)
    (fun () ->
      List.iter
        (fun (name, labels, v) ->
          (* a zero-valued contribution is numerically a no-op; skipping
             it also skips the registration side effect, so an instrument
             a *previous* request materialised on a pool worker does not
             reappear (at zero) in a later request's export *)
          match v with
          | Counter 0 -> ()
          | Counter n -> add (counter ~labels name) n
          | Gauge 0.0 -> ()
          | Gauge g -> accum (gauge ~labels name) g
          | Histogram { count = 0; _ } -> ()
          | Histogram hs ->
              let cell = Domain.DLS.get (histogram ~labels name) in
              cell.count <- cell.count + hs.count;
              cell.sum <- cell.sum +. hs.sum;
              if hs.min < cell.mn then cell.mn <- hs.min;
              if hs.max > cell.mx then cell.mx <- hs.max;
              List.iter
                (fun (i, c) -> cell.buckets.(i) <- cell.buckets.(i) + c)
                hs.buckets)
        s)
