(** Partial-order reduction machinery: register-footprint independence
    of schedule elements, and selection of persistent-singleton "safe
    steps" (fully local, invisible). See the implementation header for
    the soundness conditions (C1–C3) and what the reduction preserves. *)

open Memsim

type footprint = {
  reads : Reg.Set.t;
  writes : Reg.Set.t;
  local : bool;  (** touches no shared register at all *)
}

(** Footprint of the step an element would produce at this
    configuration. *)
val footprint : Config.t -> Exec.elt -> footprint

(** Distinct processes with non-conflicting footprints: executing the
    two elements in either order reaches the same state. *)
val independent : Config.t -> Exec.elt -> Exec.elt -> bool

(** Processes whose sole enabled element is a fully local op step
    (empty buffer; buffered write, fence, or return), in pid order.
    With [?bound] the filter is budget-aware: candidacy is judged
    against the bounded system's admissible elements (see the
    implementation note on why this coincides with the unbounded
    filter under the current charging rules). *)
val ample_candidates : ?bound:int -> Config.t -> Pid.t list

(** Post-step visibility check on a candidate's delta: its process
    must be left with no pending label, else the step is visible and
    the reduction must not pick it. *)
val invisible_after : Config.delta -> bool
