(** NDJSON sink: flat one-object-per-line records, mutex-serialized
    and flushed whole so tailing consumers never see a torn line. *)

type value = I of int | F of float | S of string | B of bool

(** JSON string escaping into a buffer: quote, backslash,
    newline/return/tab, [\u00XX] for other control bytes. The one
    escaper every JSON printer in the repo uses. *)
val escape : Buffer.t -> string -> unit

(** Append one scalar as JSON: ints verbatim; floats whole below 1e15
    as [%.0f], else [%.6g], non-finite as [null]; strings quoted and
    {!escape}d. *)
val add_value : Buffer.t -> value -> unit

type t

val create : string -> t

(** [emit t ~kind fields] writes [{"type": kind, ...fields}] as one
    line. Duplicate keys after the first are dropped, so callers can
    prepend authoritative fields over generic ones. No-op after
    {!close}. *)
val emit : t -> kind:string -> (string * value) list -> unit

val close : t -> unit
