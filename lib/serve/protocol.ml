module Json = Eda_obs.Json
module Error = Eda_guard.Error
module Flow = Gsino.Flow

let schema = "gsino-serve-v1"
let max_frame_default = 64 * 1024 * 1024

(* ------------------------------ framing ------------------------------ *)

exception Timeout

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > 0x7fffffff then invalid_arg "Protocol.write_frame: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  write_all fd hdr 0 4;
  write_all fd (Bytes.of_string payload) 0 n

let wait_readable ~timeout_s fd =
  match timeout_s with
  | None -> ()
  | Some t -> (
      match Unix.select [ fd ] [] [] t with
      | [], _, _ -> raise Timeout
      | _ :: _, _, _ -> ())

(* Read up to [len] bytes, stopping early only at EOF; returns the count
   actually read.  [timeout_s] bounds each wait for more bytes. *)
let read_upto ~timeout_s fd buf off len =
  let got = ref 0 in
  (try
     while !got < len do
       wait_readable ~timeout_s fd;
       let n = Unix.read fd buf (off + !got) (len - !got) in
       if n = 0 then raise Exit;
       got := !got + n
     done
   with Exit -> ());
  !got

type read_result =
  | Frame of string
  | Eof  (** peer closed cleanly before the first header byte *)
  | Reject of Error.t

let read_frame ?(max = max_frame_default) ?timeout_s fd =
  let hdr = Bytes.create 4 in
  try
    match read_upto ~timeout_s fd hdr 0 4 with
    | 0 -> Eof
    | n when n < 4 ->
        Reject
          (Error.Frame
             {
               what = "truncated";
               detail = Printf.sprintf "header: got %d of 4 bytes" n;
             })
    | _ ->
        let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
        if len < 0 then
          Reject
            (Error.Frame
               { what = "bad-length"; detail = "negative frame length" })
        else if len > max then
          (* reject before reading the body: an oversized announcement
             must not make the server buffer it *)
          Reject
            (Error.Frame
               {
                 what = "oversized";
                 detail =
                   Printf.sprintf "%d-byte frame exceeds the %d-byte limit" len
                     max;
               })
        else begin
          let buf = Bytes.create len in
          let n = read_upto ~timeout_s fd buf 0 len in
          if n < len then
            Reject
              (Error.Frame
                 {
                   what = "truncated";
                   detail = Printf.sprintf "body: got %d of %d bytes" n len;
                 })
          else Frame (Bytes.unsafe_to_string buf)
        end
  with Timeout ->
    Reject
      (Error.Frame
         { what = "timeout"; detail = "peer stalled mid-frame" })

(* ------------------------- request vocabulary ------------------------ *)

type artifact = Gsino.Options.artifact = Report | Metrics | Journal | Trace

type options = Gsino.Options.t = {
  kind : Flow.kind;
  router : Flow.router;
  budgeting : Flow.budgeting;
  seed : int;
  rate : float;
  deadline_ms : int;
  artifacts : artifact list;
}

let default_options = Gsino.Options.default

type request = Ping | Stats | Route of { netlist : string; options : options }

type stats = {
  uptime_s : float;
  served : int;
  errors : int;
  disconnects : int;
  rejected : (string * int) list;
  queue_depth : int;
  active : int;
  workers : int;
  jobs : int;
  cache_len : int;
  draining : bool;
}

type response =
  | Pong
  | Stats_reply of stats
  | Result of {
      status : string;
      summary : string;
      findings : string list;
      artifacts : (string * string) list;
    }
  | Err of { cls : string; gsl : int; exit_code : int; message : string }

let error_response e =
  Err
    {
      cls = Error.class_name e;
      gsl = Error.gsl_code e;
      exit_code = Error.exit_code e;
      message = Error.to_string e;
    }

(* ------------------------------ encoding ----------------------------- *)

let with_schema fields = Json.Obj (("schema", Json.Str schema) :: fields)

let request_to_json = function
  | Ping -> with_schema [ ("kind", Json.Str "ping") ]
  | Stats -> with_schema [ ("kind", Json.Str "stats") ]
  | Route { netlist; options } ->
      with_schema
        [
          ("kind", Json.Str "route");
          ("netlist", Json.Str netlist);
          ("options", Gsino.Options.to_json options);
        ]

let stats_to_json s =
  with_schema
    [
      ("kind", Json.Str "stats");
      ("uptime_s", Json.Float s.uptime_s);
      ("served", Json.Int s.served);
      ("errors", Json.Int s.errors);
      ("disconnects", Json.Int s.disconnects);
      ( "rejected",
        Json.Obj (List.map (fun (r, n) -> (r, Json.Int n)) s.rejected) );
      ("queue_depth", Json.Int s.queue_depth);
      ("active", Json.Int s.active);
      ("workers", Json.Int s.workers);
      ("jobs", Json.Int s.jobs);
      ("cache_len", Json.Int s.cache_len);
      ("draining", Json.Bool s.draining);
    ]

let response_to_json = function
  | Pong -> with_schema [ ("kind", Json.Str "pong") ]
  | Stats_reply s -> stats_to_json s
  | Result { status; summary; findings; artifacts } ->
      with_schema
        [
          ("kind", Json.Str "result");
          ("status", Json.Str status);
          ("summary", Json.Str summary);
          ("findings", Json.List (List.map (fun f -> Json.Str f) findings));
          ( "artifacts",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) artifacts) );
        ]
  | Err { cls; gsl; exit_code; message } ->
      with_schema
        [
          ("kind", Json.Str "error");
          ("class", Json.Str cls);
          ("gsl", Json.Int gsl);
          ("exit", Json.Int exit_code);
          ("message", Json.Str message);
        ]

(* ------------------------------ decoding ----------------------------- *)

let bad = Json.decode_error
let str = Json.get_string
let int_ = Json.get_int
let reject_of_bad detail = Error.Frame { what = "bad-schema"; detail }

let field what j key =
  match Json.member key j with
  | Some v -> v
  | None -> bad "%s: missing field %s" what key

let check_schema j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | Some (Json.Str s) -> bad "unsupported schema %s (want %s)" s schema
  | Some
      ( Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.List _
      | Json.Obj _ )
  | None ->
      bad "missing schema field (want %s)" schema

let request_of_json j =
  try
    check_schema j;
    match str "kind" (field "request" j "kind") with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "route" ->
        let netlist = str "netlist" (field "route request" j "netlist") in
        Result.map
          (fun options -> Route { netlist; options })
          (match Json.member "options" j with
          | Some o -> Gsino.Options.of_json o
          | None -> Ok default_options)
    | k -> bad "unknown request kind %S" k
  with Json.Decode_error msg -> Error (reject_of_bad msg)

let request_of_string s =
  match Json.of_string s with
  | Error msg -> Error (Error.Frame { what = "bad-json"; detail = msg })
  | Ok j -> request_of_json j

let stats_of_json j =
  {
    uptime_s = Json.get_number "uptime_s" (field "stats" j "uptime_s");
    served = int_ "served" (field "stats" j "served");
    errors = int_ "errors" (field "stats" j "errors");
    disconnects = int_ "disconnects" (field "stats" j "disconnects");
    rejected =
      List.map
        (fun (k, v) -> (k, int_ ("rejected." ^ k) v))
        (Json.get_obj "stats.rejected" (field "stats" j "rejected"));
    queue_depth = int_ "queue_depth" (field "stats" j "queue_depth");
    active = int_ "active" (field "stats" j "active");
    workers = int_ "workers" (field "stats" j "workers");
    jobs = int_ "jobs" (field "stats" j "jobs");
    cache_len = int_ "cache_len" (field "stats" j "cache_len");
    draining = Json.get_bool "draining" (field "stats" j "draining");
  }

let response_of_json j =
  try
    check_schema j;
    match str "kind" (field "response" j "kind") with
    | "pong" -> Ok Pong
    | "stats" -> Ok (Stats_reply (stats_of_json j))
    | "result" ->
        let strs what v = List.map (str what) (Json.get_list what v) in
        Ok
          (Result
             {
               status = str "status" (field "result" j "status");
               summary = str "summary" (field "result" j "summary");
               findings = strs "findings" (field "result" j "findings");
               artifacts =
                 List.map
                   (fun (k, v) -> (k, str ("artifacts." ^ k) v))
                   (Json.get_obj "result.artifacts"
                      (field "result" j "artifacts"));
             })
    | "error" ->
        Ok
          (Err
             {
               cls = str "class" (field "error" j "class");
               gsl = int_ "gsl" (field "error" j "gsl");
               exit_code = int_ "exit" (field "error" j "exit");
               message = str "message" (field "error" j "message");
             })
    | k -> bad "unknown response kind %S" k
  with Json.Decode_error msg -> Error (reject_of_bad msg)

let response_of_string s =
  match Json.of_string s with
  | Error msg -> Error (Error.Frame { what = "bad-json"; detail = msg })
  | Ok j -> response_of_json j

let send fd msg = write_frame fd (Json.to_string msg)
let send_request fd r = send fd (request_to_json r)
let send_response fd r = send fd (response_to_json r)
