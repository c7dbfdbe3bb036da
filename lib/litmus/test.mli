(** Litmus-test harness: exhaustive outcome enumeration per memory
    model — the operational content of "separating memory models". *)

open Memsim

type t = {
  name : string;
  description : string;
  nregs : int;  (** shared registers [x0..], all initially 0 *)
  programs : Reg.t array -> Program.t array;
  observed : Reg.t array -> Reg.t list;  (** registers in the outcome *)
}

type outcome = { returns : int list; finals : int list }

val pp_outcome : outcome Fmt.t

type run = {
  test : t;
  model : Memory_model.t;
  outcomes : outcome list;  (** sorted *)
  stats : Explore.stats;
  reorder_bound : int option;
      (** the (final) reorder bound enumerated under; [None] =
          unbounded *)
  bound_exact : bool;
      (** with a bound: the run certified saturation, so the outcome
          set is complete. A bounded, non-exact run is a subset and
          {!pp_run} flags it as ["reorder-bound K subset"]. *)
}

(** [compile] (default [true]) is {!Memsim.Config.make}'s flag:
    continuation sharing on, or the raw closure tree (the parity
    suite's reference side). Semantics-invisible either way. *)
val configure :
  ?compile:bool -> t -> model:Memory_model.t -> Reg.t array * Config.t

(** The outcome a quiescent configuration reached, given the registers
    {!configure} returned: per-process return values (-1 if
    unfinished), then the observed registers' final values. *)
val observe : t -> Reg.t array -> Config.t -> outcome

(** Enumerate all reachable outcomes under the model. [engine] selects
    the engine's domain count ([`Parallel 1] default); [por] preserves
    the outcome set while visiting fewer states. [tel] plugs a
    {!Telemetry.Hub.t} into the exploration for live progress and
    stats (see {!Mc.run}). [reorder_bound] restricts the enumeration to
    executions within a reorder budget ([`K k]) or iteratively deepens
    until the set saturates ([`Deepen], on [engine]'s domain count). *)
val run :
  ?tel:Telemetry.Hub.t -> ?compile:bool ->
  ?max_states:int -> ?engine:Mc.engine -> ?por:bool ->
  ?reorder_bound:[ `K of int | `Deepen ] ->
  t -> model:Memory_model.t -> run

val admits : run -> outcome -> bool
val pp_run : run Fmt.t

(** Why an all-model sweep must skip this cell, if it must:
    [Some "reorder bound undefined on view models"] when a reorder
    bound is set and the model is view-based (no write buffer to
    meter), [None] otherwise. Sweeps mark the cell explicitly instead
    of dropping the row. *)
val skip_reason :
  ?reorder_bound:[ `K of int | `Deepen ] -> Memory_model.t -> string option

(** Outcomes of [weaker] not reachable under [stronger]. *)
val separation : stronger:run -> weaker:run -> outcome list

(** Per-process fence-site counts (one sequential SC execution; valid
    for tests whose fences execute in fixed program-text order). *)
val fence_sites : t -> int array

(** Re-instantiate with a subset of fences under a global site
    numbering (process [p]'s sites start at the prefix sum of earlier
    processes' counts); site [i] survives iff [keep i], and [marker i]
    tags every site with a zero-cost label. Full mask, no marker ⇒
    extensionally the same test. *)
val with_fence_mask :
  ?marker:(int -> string) -> keep:(int -> bool) -> t -> t
