(** The per-request flow options: the one schema from which the CLI
    flags, the [gsino-serve-v1] wire codec and the served
    {!Flow.Config.t} are derived, so [gsino_serve route] and
    [gsino_lint] run the same flow by construction ({!route}). *)

type artifact = Report | Metrics | Journal | Trace

type t = {
  kind : Flow.kind;
  router : Flow.router;
  budgeting : Flow.budgeting;
  seed : int;  (** flow seed; the batch drivers also generate from it *)
  rate : float;  (** sensitivity rate *)
  deadline_ms : int;  (** wall-clock budget; 0 = none *)
  artifacts : artifact list;  (** embedded in a served response *)
}

(** {!Flow.Config.default}'s kind, router, budgeting, seed and deadline;
    rate 0.30; no artifacts. *)
val default : t

(** One [(name, value)] table per enum: the CLI and the wire spell every
    value the same way. *)

val kind_names : (string * Flow.kind) list
val router_names : (string * Flow.router) list
val budgeting_names : (string * Flow.budgeting) list
val artifact_names : (string * artifact) list

(** [name table v] — [v]'s spelling in [table]. *)
val name : (string * 'a) list -> 'a -> string

val to_json : t -> Eda_obs.Json.t

(** Absent fields keep their {!default}; an unknown or mistyped field or
    value is a [Frame {what = "bad-schema"}] reject (GSL0030). *)
val of_json : Eda_obs.Json.t -> (t, Eda_guard.Error.t) result

(** {!Flow.Config.default} with [o]'s options, on [jobs] domains. *)
val to_config : jobs:int -> t -> Flow.Config.t

(** The sensitivity model at [o.rate], seeded from [o.seed]. *)
val sensitivity : t -> Eda_netlist.Sensitivity.t

(** [route ?kinds ~config tech o netlist f] — {!Flow.prepare} on
    [config] as GSINO, then for each of [kinds] (default [[o.kind]])
    {!Flow.run} with that kind and {!sensitivity} [o], and
    [f result (Flow.check result)].  [config] is [to_config ~jobs o],
    possibly with [audit] set. *)
val route :
  ?pool:Eda_exec.t ->
  ?deadline:Eda_guard.Deadline.t ->
  ?kinds:Flow.kind list ->
  config:Flow.Config.t ->
  Tech.t ->
  t ->
  Eda_netlist.Netlist.t ->
  (Flow.result -> Eda_check.Diag.t list -> 'a) ->
  'a list
