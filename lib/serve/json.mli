(** Minimal JSON: the daemon's wire format. A hand-rolled parser keeps
    the library dependency-free (the repo bakes in no JSON package);
    the printer is byte-deterministic and prints every scalar and key
    through {!Telemetry.Sink.add_value}, so job, ack and checkpoint
    records can be pinned as golden bytes next to the NDJSON ones. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

(** Parse one JSON value (leading/trailing whitespace allowed).
    Integers without [.]/[e] parse as [Int]; [\uXXXX] escapes outside
    ASCII are rejected rather than silently mangled — the wire format
    never produces them. *)
val parse : string -> (t, string) result

(** Compact printing: no whitespace, object fields in list order,
    scalars printed by {!Telemetry.Sink.add_value} (strings escaped by
    {!Telemetry.Sink.escape}).
    [parse (to_string v)] round-trips every value whose floats are
    finite. *)
val to_string : t -> string

(** {2 Accessors} — total, for spec validation with readable errors. *)

val member : string -> t -> t option

val get_string : t -> (string, string) result
val get_int : t -> (int, string) result
val get_bool : t -> (bool, string) result
val get_list : t -> (t list, string) result

(** [field obj name get] / [field_opt]: mandatory and optional object
    fields, errors naming the field. *)
val field : t -> string -> (t -> ('a, string) result) -> ('a, string) result

val field_opt :
  t -> string -> (t -> ('a, string) result) -> ('a option, string) result
