(** The executor: the paper's [Exec_A(C; σ)] function (Section 2).

    A schedule element [(p, R)] with [R ∈ R ∪ {⊥}] is interpreted as:
    the commit of [p]'s buffered write to [R] when the model allows it;
    otherwise a forced commit if [p] is poised at a fence (or cas) over
    a non-empty buffer; otherwise [p]'s next operation step. See the
    implementation header for the full rules.

    Under a view-based model ({!Memory_model.view_based}) the register
    slot is reinterpreted as a {e choice index}: [(p, ⊥)] is
    alternative 0 and [(p, Some k)] the k-th alternative of [p]'s
    current operation, newest-first — reads choose an eligible
    message, RA writes an insertion position ({!view_nchoices} is the
    range). *)

type elt = Pid.t * Reg.t option

(** Which state-key components executing an element changed: at most
    one process's local state, and possibly committed memory
    ([mem = true] implies [proc <> None]). The last-committer table
    and metrics also change but are not key components. [proc = None]
    means the element was a no-op. *)
type dirty = { proc : Pid.t option; mem : bool }

(** The dirty report for process [p]; returns a preallocated shared
    record for [p < 64] — hot loops should prefer this over a literal. *)
val dirty_of : Pid.t -> mem:bool -> dirty

val pp_elt : elt Fmt.t

(** Execute one element. Returns the steps produced (empty when the
    element is a no-op) and the successor configuration. *)
val exec_elt : Config.t -> elt -> Step.t list * Config.t

(** Like {!exec_elt}, additionally reporting which key components the
    element dirtied, so callers can maintain state fingerprints
    incrementally. It is [Config.apply] of a fresh {!step}. *)
val exec_elt_d : Config.t -> elt -> Step.t list * Config.t * dirty

(** [step_into d cfg e]: step one element into the scratch delta [d]
    (overwriting it whole) without building the successor
    configuration or process state: the steps (pending-label notes of
    [p] first) and what the key and the monitors read. The model
    checker keys children from the delta and installs only new ones
    ([Config.apply]); [d] is valid until the next step into it. *)
val step_into : Config.delta -> Config.t -> elt -> unit

(** {!step_into} a fresh delta — for cold callers. *)
val step : Config.t -> elt -> Config.delta

(** Is the delta's process left poised at a label? *)
val unsettled : Config.delta -> bool

(** [settle cfg d]: consume the labels the process of [d] (stepped
    from [cfg]) is left poised at, in place, returning their notes.
    When [cfg] has no pending labels, [Config.apply cfg] of the settled
    delta is what {!flush_labels_d} makes of the applied child. *)
val settle : Config.t -> Config.delta -> Step.t list

(** Run a whole schedule, accumulating the trace. *)
val exec : Config.t -> elt list -> Step.t list * Config.t

(** All elements that would produce a step for [p] right now. Under a
    view-based model: one element per alternative of [p]'s current
    operation, newest-first (empty when final or blocked). *)
val enabled_elts : Config.t -> Pid.t -> elt list

(** View-based models only: the number of alternatives of [p]'s
    current operation (labels skipped) — the valid choice indices are
    [0 .. n-1]. [0] iff [p] is final or blocked. Raises
    [Invalid_argument] under write-buffer models. *)
val view_nchoices : Config.t -> Pid.t -> int

(** Consume pending labels of every process, returning the notes. The
    model checker normalizes states this way. *)
val flush_labels : Config.t -> Step.t list * Config.t

(** Like {!flush_labels}, additionally reporting which processes'
    states changed (in increasing pid order). *)
val flush_labels_d : Config.t -> Step.t list * Config.t * Pid.t list

(** Is [p] poised at a fence (or cas) with a non-empty buffer? *)
val forced_commit_pending : Config.t -> Pid.t -> bool

(** Run [p] alone to a final state (forced commits at fences). [None]
    if [p] blocks on a spin no solo schedule can satisfy, or exceeds
    [fuel]. Implements the decoder's solo-termination side condition. *)
val run_solo : ?fuel:int -> Config.t -> Pid.t -> (Step.t list * Config.t) option

val terminates_solo : ?fuel:int -> Config.t -> Pid.t -> bool

(** Is [p] blocked: poised at a spin whose register(s) still hold the
    unsatisfying values it already observed? A blocked process's
    [(p, ⊥)] element is a no-op until someone commits to a spun-on
    register. *)
val is_blocked : Config.t -> Pid.t -> bool

(** {!is_blocked} on an already-fetched process state — for enumeration
    loops that hold the pstate in hand. *)
val blocked : Config.t -> Config.pstate -> bool
