module Metrics = Eda_obs.Metrics
module Log = Eda_obs.Log

let m_hits = Metrics.counter "sino.cache_hits"
let m_misses = Metrics.counter "sino.cache_misses"
let m_stores = Metrics.counter "sino.cache_stores"
let m_evictions = Metrics.counter "sino.cache_evictions"
let m_bound_rejects = Metrics.counter "sino.cache_bound_rejects"

type effort = {
  instances : int;
  inserted : int;
  removed : int;
  swaps : int;
  repairs : int;
  retries : int;
}

type value = { slots : int array; effort : effort }

type node = {
  key : string;
  inst : Instance.t;
  warm : int array option;
  mutable value : value;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  mu : Mutex.t;
  capacity : int;
  tbl : (string, node list ref) Hashtbl.t;  (** collision bucket per key *)
  mutable head : node option;  (** most recently used *)
  mutable tail : node option;
  mutable size : int;
}

let create ?(capacity = 16384) () =
  {
    mu = Mutex.create ();
    capacity = max 1 capacity;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    size = 0;
  }

let length t = Mutex.protect t.mu (fun () -> t.size)

(* ---------------- intrusive LRU list (under t.mu) ------------------- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let bucket_remove t n =
  match Hashtbl.find_opt t.tbl n.key with
  | None -> ()
  | Some b -> (
      b := List.filter (fun m -> m != n) !b;
      match !b with [] -> Hashtbl.remove t.tbl n.key | _ :: _ -> ())

let drop t n =
  unlink t n;
  bucket_remove t n;
  t.size <- t.size - 1

let same_warm a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | Some _, None | None, Some _ -> false

let matches ~key ~inst ~warm n =
  String.equal n.key key && same_warm n.warm warm
  && Instance.equal_content n.inst inst

let locate t ~key ~inst ~warm =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some b -> List.find_opt (matches ~key ~inst ~warm) !b

let num_shields slots =
  Array.fold_left (fun acc s -> if s < 0 then acc + 1 else acc) 0 slots

(* a node is still on the LRU list iff it has a predecessor or is the
   head ([Some n == t.head] would compare a fresh allocation) *)
let linked t n =
  n.prev <> None || (match t.head with Some h -> h == n | None -> false)

let find t ~params ~key ~inst ?warm ?(admit = fun _ -> true) () =
  let candidate =
    Mutex.protect t.mu (fun () -> locate t ~key ~inst ~warm)
  in
  match candidate with
  | None ->
      Metrics.incr m_misses;
      None
  | Some n when not (admit n.value) ->
      (* valid entry, but not reachable under this request (e.g. found
         beyond the requester's retry budget): miss, keep the entry *)
      Metrics.incr m_misses;
      None
  | Some n ->
      (* cross-check outside the lock: a clique bound every feasible
         layout must satisfy.  An entry beating it is provably not a
         solution of this instance (hash collision that slipped past the
         content check) — drop it and re-solve. *)
      let lb = Bound.shield_lower_bound ~params inst in
      if num_shields n.value.slots >= lb then begin
        Mutex.protect t.mu (fun () ->
            if linked t n then begin
              unlink t n;
              push_front t n
            end);
        Metrics.incr m_hits;
        Some n.value
      end
      else begin
        Mutex.protect t.mu (fun () -> if linked t n then drop t n);
        Log.warn
          ~fields:[ ("key", key) ]
          "panel cache entry beats the shield lower bound (%d < %d); dropped"
          (num_shields n.value.slots) lb;
        Metrics.incr m_bound_rejects;
        Metrics.incr m_misses;
        None
      end

let store t ~key ~inst ?warm value =
  Metrics.incr m_stores;
  Mutex.protect t.mu (fun () ->
      match locate t ~key ~inst ~warm with
      | Some n ->
          (* racing domains compute identical canonical solutions, so a
             refresh only promotes recency *)
          n.value <- value;
          unlink t n;
          push_front t n
      | None ->
          let n = { key; inst; warm; value; prev = None; next = None } in
          push_front t n;
          (match Hashtbl.find_opt t.tbl key with
          | Some b -> b := n :: !b
          | None -> Hashtbl.add t.tbl key (ref [ n ]));
          t.size <- t.size + 1;
          while t.size > t.capacity do
            match t.tail with
            | None -> t.size <- t.capacity (* unreachable *)
            | Some last ->
                drop t last;
                Metrics.incr m_evictions
          done)
