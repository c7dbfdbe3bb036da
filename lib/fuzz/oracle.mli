(** The seven differential oracles: model nesting (SC ⊆ TSO ⊆ PSO and
    SC ⊆ SRA ⊆ RA), engine parity (reference / parallel / POR), fence
    saturation (fences after every write collapse buffered models onto
    SC; fences around every instruction collapse the view-based RA/SRA
    models too), random-schedule soundness (under every model,
    view-based included), and bounded saturation (a reorder bound at
    least the max buffer occupancy certifies saturation and matches
    the unbounded outcome set byte-for-byte). See the implementation
    header for the precise claims. *)

open Memsim

type violation = {
  oracle : string;  (** short tag, e.g. ["nesting:SC⊆TSO"] *)
  detail : string;
  prog : Gen.t;
}

type verdict =
  | Ok
  | Skipped of string  (** some exploration hit a bound *)
  | Violation of violation

type config = {
  model : Memory_model.t;  (** model checked by oracles 2 and 4 *)
  jobs : int list;  (** parallel-engine domain counts for parity *)
  random_seeds : int;  (** random schedules per model for oracle 4 *)
  max_states : int;  (** per-exploration safety cap *)
}

val default_config : config
val pp_violation : violation Fmt.t

(** Run all the oracles on one program. Deterministic. *)
val check : ?config:config -> Gen.t -> verdict

(** Does the program still violate an oracle with this tag prefix? The
    property the shrinker preserves. *)
val still_violates : ?config:config -> oracle_prefix:string -> Gen.t -> bool
