(** Minimal JSON tree, printer and parser.

    Just enough for the observability exports ({!Metrics.to_json},
    {!Trace.to_chrome_json}) and for tests to round-trip them without
    pulling a JSON dependency into the build.  The printer always emits
    valid JSON (strings are escaped, non-finite floats are rendered as
    [null], as Chrome's trace importer expects); the parser accepts the
    full JSON grammar minus exotic number forms ([1e999] overflows to
    [inf] and is rejected). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [to_buffer b j] — append the rendering of [j] to [b]. *)
val to_buffer : Buffer.t -> t -> unit

(** [write_file path j] — write [j] followed by a newline. *)
val write_file : string -> t -> unit

(** [of_string s] — parse one JSON value; [Error msg] names the offending
    byte offset.  Trailing whitespace is allowed, trailing garbage is
    not.  [\uXXXX] escapes must be exactly four hex digits; surrogate
    pairs combine into one astral code point (a lone surrogate keeps its
    3-byte encoding). *)
val of_string : string -> (t, string) result

(** [read_file path] — {!of_string} on the file's whole contents;
    [Error] on I/O failure too. *)
val read_file : string -> (t, string) result

(** Object field lookup; [None] on non-objects or missing keys. *)
val member : string -> t -> t option

(** {1 Strict readers} for hand-written decoders: [get_int what v] is
    [v]'s integer, or raises [Decode_error "WHAT: expected an integer"]
    for any other shape ([get_number] also accepts integers). *)

exception Decode_error of string

(** [decode_error fmt ...] raises [Decode_error] with that message. *)
val decode_error : ('a, unit, string, 'b) format4 -> 'a

val get_string : string -> t -> string
val get_int : string -> t -> int
val get_number : string -> t -> float
val get_bool : string -> t -> bool
val get_list : string -> t -> t list
val get_obj : string -> t -> (string * t) list
