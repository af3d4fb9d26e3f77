(* In-memory span recorder for the traced run.  Spans are opened and
   closed around calls into the program's layers from this directory's
   code only; nothing is recorded inside lib/.  One domain records (the
   traced run is sequential), spans are kept in memory and written out
   once, when the run ends. *)

module Clock = Eda_obs.Clock
module Json = Eda_obs.Json

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start_s : float;
  mutable stop_s : float;
  mutable counts : (string * float) list;
      (** work counts measured at this span's boundaries *)
}

let recorded : t list ref = ref []
let open_spans : t list ref = ref []
let next_id = ref 0

(* [with_ name f] runs [f sp] inside a new child of the innermost open
   span. *)
let with_ name f =
  let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
  let sp =
    { id = !next_id; parent; name; start_s = Clock.now_s (); stop_s = nan; counts = [] }
  in
  incr next_id;
  open_spans := sp :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      sp.stop_s <- Clock.now_s ();
      open_spans := List.tl !open_spans;
      recorded := sp :: !recorded)
    (fun () -> f sp)

let count sp key v = sp.counts <- (key, v) :: sp.counts
let duration sp = sp.stop_s -. sp.start_s

let spans () = List.sort (fun a b -> compare a.id b.id) !recorded

(* Self time: the span's duration minus the part of it that its direct
   children cover (the union of their intervals). *)
let self_times all =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (c.start_s, c.stop_s))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = Float.max a upto in
            if b > a then (acc +. (b -. a), b) else (acc, upto))
          (0.0, neg_infinity) kids
      in
      (s, duration s -. covered))
    all

type totals = { calls : int; total_s : float; self_s : float; sums : (string * float) list }

let empty = { calls = 0; total_s = 0.0; self_s = 0.0; sums = [] }

(* Per-name totals over every recorded span: call count, summed
   duration, summed self time and summed counts. *)
let by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let t = Option.value (Hashtbl.find_opt tbl s.name) ~default:empty in
      let sums =
        List.fold_left
          (fun acc (k, v) ->
            let prev = Option.value (List.assoc_opt k acc) ~default:0.0 in
            (k, prev +. v) :: List.remove_assoc k acc)
          t.sums s.counts
      in
      Hashtbl.replace tbl s.name
        {
          calls = t.calls + 1;
          total_s = t.total_s +. duration s;
          self_s = t.self_s +. self;
          sums;
        })
    (self_times (spans ()));
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:empty

let sum (t : totals) key = Option.value (List.assoc_opt key t.sums) ~default:0.0

let to_json () =
  Json.List
    (List.map
       (fun (s, self) ->
         Json.Obj
           ([
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("name", Json.Str s.name);
              ("start_s", Json.Float s.start_s);
              ("end_s", Json.Float s.stop_s);
              ("self_s", Json.Float self);
            ]
           @ List.rev_map (fun (k, v) -> (k, Json.Float v)) s.counts))
       (self_times (spans ())))
