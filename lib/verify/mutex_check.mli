(** Exhaustive verification of lock properties at small scope: mutual
    exclusion (label monitor + lost-update oracle on a critical-section
    counter), deadlock-freedom, and termination, with counterexample
    schedules on failure. *)

open Memsim

(** Reorder-bound mode: a fixed budget, or iterative deepening from 0
    until violation or saturation ({!Mc.deepen}). *)
type bound_mode = [ `K of int | `Deepen ]

type verdict = {
  lock_name : string;
  model : Memory_model.t;
  nprocs : int;
  rounds : int;
  holds : bool;
  reorder_bound : int option;
      (** the (final) reorder bound checked under; [None] = unbounded *)
  bound_exact : bool;
      (** the verdict is exact despite a bound: a violation was found,
          or the run completed with zero bound hits (saturation). A
          clean pass with [bound_exact = false] prints as
          ["NO VIOLATION FOUND (reorder-bound K subset)"], never plain
          ["OK"]. Always [true] unbounded. *)
  deepen_levels : Mc.deepen_level list;
      (** per-level records when [`Deepen] ran; else empty *)
  me_violation : Exec.elt list option;  (** schedule reaching an overlap *)
  deadlock : Exec.elt list option;
  lost_update : bool;
  stats : Explore.stats;
}

(** The verdict in words: ["OK"] only for a complete, exact pass; a
    clean pass that covers a subset of the state space — truncated by a
    cap, or reorder-bounded below saturation — reads
    ["NO VIOLATION FOUND (… subset)"]; otherwise the violation found. *)
val verdict_text : verdict -> string

(** [holds] as machine-readable records (NDJSON run records, serve
    [job_done]) report it: [false] for a truncated run, which
    establishes nothing even when it found no violation. *)
val established : verdict -> bool

(** Extra record fields for a truncated run — [("verdict", S text)] —
    and none for any other, whose records are unchanged. *)
val truncated_fields : verdict -> (string * Telemetry.Sink.value) list

val pp_verdict : verdict Fmt.t

(** Critical-section occupancy monitor over ["cs:enter"]/["cs:exit"]
    notes; errors on overlap. *)
val cs_monitor : Pid.Set.t -> Step.t -> (Pid.Set.t, string) result

(** The standard checking workload: [rounds] passages per process, each
    critical section incrementing a shared counter. Returns the lock,
    the counter register, and the initial configuration. *)
val workload :
  ?compile:bool -> model:Memory_model.t -> Locks.Lock.factory -> nprocs:int ->
  rounds:int -> Locks.Lock.t * Reg.t * Config.t

(** [engine] selects the [Mc] engine's domain count: [`Parallel 1]
    (default) or [`Parallel j], optionally with partial-order reduction
    ([por]). The occupancy monitor is note-driven, so POR preserves its
    verdicts while visiting fewer states. [report_visited] receives
    the engine's visited-set statistics when the run finishes. [tel]
    plugs a {!Telemetry.Hub.t} into the run for live progress and
    NDJSON stats (see {!Mc.run}).

    [reorder_bound] checks the reorder-bounded under-approximation:
    [`K k] with a fixed budget (the verdict records whether the run
    certified saturation and is therefore exact), [`Deepen] with
    iterative deepening from 0 ({!Mc.deepen}, on [engine]'s domain
    count).

    [checkpoint]/[resume] pass through to {!Mc.run} (periodic
    frontier-consistent cuts and exact continuation; [`Parallel 1]
    only) — the serve daemon's long-check lifeline. Not available
    under [`Deepen] (raises [Invalid_argument]): deepen re-seeds its
    own boundary between levels. *)
val check :
  ?tel:Telemetry.Hub.t -> ?compile:bool ->
  ?rounds:int -> ?max_states:int -> ?max_depth:int ->
  ?report_visited:(Mc.Visited.stats -> unit) ->
  ?engine:Mc.engine -> ?por:bool -> ?reorder_bound:bound_mode ->
  ?checkpoint:int * (Mc.checkpoint -> unit) -> ?resume:Mc.checkpoint ->
  model:Memory_model.t ->
  Locks.Lock.factory -> nprocs:int -> verdict

(** Replay a counterexample schedule into a step trace (pending labels
    flushed). *)
val replay :
  model:Memory_model.t -> Locks.Lock.factory -> nprocs:int -> rounds:int ->
  Exec.elt list -> Trace.t * Config.t
