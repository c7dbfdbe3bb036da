(** Exploration vocabulary shared by every explorer (stats, verdicts,
    successor enumeration) and {!reference}, the exact-key explorer the
    [Mc] engine is audited against. States are keyed on committed
    memory plus per-process observation logs (a process's local state
    is a function of its observations, programs being deterministic).
    Spins are primitive, so state spaces of terminating algorithms are
    finite. *)

type stats = {
  states : int;  (** distinct states visited *)
  transitions : int;
  truncated : bool;
      (** a bound was hit; absence of violations then only holds up to
          the bound *)
  bound_hits : int;
      (** edges pruned by [reorder_bound]; 0 on a completed bounded run
          certifies saturation (the bounded system coincided with the
          unbounded one, so the verdict is exact). Always 0 unbounded. *)
}

type 'm violation = {
  message : string;
  path : Exec.elt list;  (** schedule from the root reproducing it *)
  monitor : 'm;
}

type 'm result = {
  stats : stats;
  violations : 'm violation list;  (** discovery order, capped *)
  deadlocks : Exec.elt list list;  (** paths to stuck non-final states *)
}

(** Elements that can produce a model step right now, including commits
    of finished processes' leftover buffers. *)
val successor_elts : Config.t -> Exec.elt list

(** The reference explorer: depth-first, every interleaving of op and
    commit steps, states deduplicated on their {!Statekey.to_string}
    byte string in a plain [Hashtbl] — none of the engine's
    fingerprint composition, incremental updates or concurrent claims,
    which makes it the independent oracle for the [Mc] engine's parity
    tests and fuzz oracle 2. It claims, counts and expands exactly the
    states and transitions [Mc.run] does without reductions, and finds
    the same violation and deadlock sets.

    [monitor] folds over every step of every explored edge (e.g.
    critical-section occupancy from notes); its state must be a
    function of the state key, or deduplication could skip
    transitions. [check] is evaluated once per distinct state;
    [Some msg] records a violation with its schedule. [on_final] fires
    once per distinct quiescent state. [max_states] (default
    unbounded) stops the search with [truncated] set. There is no
    telemetry, reorder bound, depth cap, violation cap or deadlock
    cap: runs are meant to be small. *)
val reference :
  ?max_states:int ->
  ?check:(Config.t -> string option) ->
  monitor:('m -> Step.t -> ('m, string) Stdlib.result) ->
  init:'m ->
  ?on_final:(Config.t -> 'm -> unit) ->
  Config.t ->
  'm result

(** Reachable quiescent-state projections under [observe], sorted, plus
    the reference exploration's result. *)
val reference_outcomes :
  ?max_states:int ->
  observe:(Config.t -> 'a) ->
  Config.t ->
  'a list * unit result
