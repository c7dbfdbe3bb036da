(** System configurations: the state of every process (program
    continuation, write buffer), every register, and the bookkeeping
    that classifies steps as local or remote. Immutable throughout, so
    a configuration doubles as a free snapshot for speculative
    execution. Process states and committed memory carry cached hash
    lanes over their state-key components, refreshed incrementally —
    see the implementation header for the contract. *)

module Int_set : Set.S with type elt = int

(** Per-process CC cache (values written to / read from each register).
    A copy-on-write array of per-register cells — a 63-bit direct
    bitmask over small non-negative values plus a spill set — tuned for
    the hot membership probe. Never a state-key component. *)
module Known : sig
  type t

  val empty : t

  (** Has the process written/read value [v] at [r]? *)
  val mem : t -> Reg.t -> int -> bool

  (** The cache with [v] recorded at [r] (no presence check — callers
      go through {!val-map_learn}). *)
  val add : t -> Reg.t -> int -> t

  (** The recorded values at [r] as a plain set. *)
  val values : t -> Reg.t -> Int_set.t
end

(** Committed memory: copy-on-write int array with O(1) reads and
    incrementally maintained key lanes. "Bound" = committed at least
    once; an unbound register reads as its layout initial value, and
    boundness is part of the state key (as the former map binding
    was). *)
module Mem : sig
  type t

  val make : Layout.t -> t
  val get : t -> Reg.t -> int

  (** Copy-on-write update; binds the register. *)
  val set : t -> Reg.t -> int -> t

  val is_bound : t -> Reg.t -> bool

  (** Number of bound registers. *)
  val cardinal : t -> int

  (** Bound entries in increasing register order — the exact memory
      part of the state key. *)
  val iter_bound : (Reg.t -> int -> unit) -> t -> unit

  (** Incrementally maintained xor-composed lanes over bound entries,
      one at a time (tuple-free for the hot key path). *)
  val lane_a : t -> int

  val lane_b : t -> int

  (** [lane_a (set t r v)] is [lane_a t lxor commit_xor_a t r v]: a
      key can follow a commit without building the new memory. *)
  val commit_xor_a : t -> Reg.t -> int -> int

  val commit_xor_b : t -> Reg.t -> int -> int

  (** The same lanes recomputed from scratch (incrementality tests). *)
  val lanes_scratch : t -> int * int

  (** Componentwise equality (bound set and committed values). *)
  val equal : t -> t -> bool
end

type pstate = {
  prog : Program.t;
  skipped : Program.t;
      (** [prog] with leading labels consumed — physically [== prog]
          when there are none. Dispatch-side queries (next_kind,
          is_final, POR footprints, blocked checks) read this field, so
          label continuations are forced once per program install, not
          once per query. The executor maintains it at every install;
          {!set_pstate} recomputes it for hand-built pstates. Derived
          from [prog], never a key component. *)
  wb : Wbuf.t;
  known : Known.t;
      (** CC cache: values this process has written to, or read from,
          each register (the paper's read-locality rule) *)
  last_read : (Reg.t * int) option;
      (** gate for spin blocking: last step was a read of this register
          returning this value *)
  obs : int list;
      (** reversed log of observed values; programs are deterministic,
          so together with [ops] this pins the local state — the model
          checker's state key *)
  ops : int;  (** operation steps executed (commits excluded) *)
  obs_len : int;  (** [List.length obs], maintained by the executor *)
  obs_ha : int;  (** rolling lane over [obs], oldest first *)
  obs_hb : int;
  view : View.t;
      (** view-based models only: newest message known per location;
          always {!View.empty} under write-buffer models (their key
          stream is unchanged by the view backend) *)
  rel : View.t;
      (** view-based models only: the release view (this process's view
          at its last fence) — the base plain writes attach *)
  mutable lka : int;
      (** cached lane over the full local key component; consistent for
          any pstate stored in a configuration (refreshed by
          {!set_pstate}/{!delta}). Mutable so the refresh can fill a
          freshly built record in place; pstates stored in a
          configuration are never mutated. *)
  mutable lkb : int;
  mutable ctr : Metrics.counters;
      (** this process's complexity counters; accounting only, never a
          state-key component. Same fresh-record-only mutation
          discipline as the lanes. *)
}

type t = {
  model : Memory_model.t;
  layout : Layout.t;
  mem : Mem.t;
      (** committed values; unbound = initial. Under view-based models,
          kept materialized at each location's log maximum. *)
  store : Modlog.t option;
      (** [Some] iff the model is view-based: per-location modification
          logs plus the global SC-fence view *)
  procs : pstate array;
      (** index = pid (pids are dense [0 .. nprocs-1]); copy-on-write —
          an installed slot is never mutated *)
  last_committer : int array;
      (** who committed to each register last (commit-locality rule);
          [-1] = nobody. Copy-on-write — never mutated in place. *)
  label_mask : int;
      (** bit [min p 62] set when process [p] may be poised at a
          [Label]; exact below 62, sticky-conservative above. An
          accounting accelerator for label flushing — derived from
          [procs], never part of the state key. *)
  buffered : bool;
      (** {!Memory_model.buffered} of [model], hoisted so hot paths
          branch on a field instead of re-dispatching per step *)
  view_based : bool;  (** {!Memory_model.view_based} of [model], hoisted *)
  op_elts : (Pid.t * Reg.t option) array;
      (** [op_elts.(p) = (p, None)] — preallocated schedule elements
          for tuple-free successor enumeration. Derived. *)
  commit_elts : (Pid.t * Reg.t option) array array;
      (** [commit_elts.(p).(r) = (p, Some r)] for [r < nregs]. Derived. *)
}

(** [make ~model ~layout programs] is the initial configuration
    [C_init]. [compile] (default [true]) runs each program through
    {!Compile.program} — semantics-invisible continuation sharing;
    [~compile:false] keeps the raw closure tree (the parity suite's
    and the bench guard's reference). *)
val make :
  ?compile:bool -> model:Memory_model.t -> layout:Layout.t ->
  Program.t array -> t

(** Per-process complexity counters, assembled from the process states
    (where they live, so an execution step updates one map, not two). *)
val metrics : t -> Metrics.t

val nprocs : t -> int
val pstate : t -> Pid.t -> pstate

(** Install a process state, refreshing its cached lanes. *)
val set_pstate : t -> Pid.t -> pstate -> t

(** One schedule element's effect, before it is installed: the steps
    it produced, the one process it moved with that process's successor
    state, the value it committed (if any) and the successor
    modification-log store (view-based models, when the element touched
    it). [Exec.step] builds one; {!apply} installs it. The model
    checker keys a child from its delta and builds the configuration
    only for children its visited set has not seen. *)
type delta = {
  steps : Step.t list;
  pid : Pid.t;
  next : pstate;
      (** [pid]'s successor state, lanes refreshed and counters set —
          physically [pid]'s current state iff the element is a no-op,
          a fresh, unshared record otherwise *)
  commit_reg : Reg.t;  (** the register committed to, or {!no_reg} *)
  commit_value : int;
  new_store : Modlog.t option;  (** [None]: the store is unchanged *)
}

(** [-1]: no commit. *)
val no_reg : Reg.t

(** The no-op delta of a process: nothing produced, nothing changed. *)
val idle : t -> Pid.t -> delta

(** [delta ?store steps p st ctr]: the delta of a step of [p] to the
    caller's freshly built [st] (whose [skipped] the caller maintains):
    sets its counters to [ctr] and refreshes its lanes in place.
    [commit_delta ... r v] also commits [v] to [r]. *)
val delta :
  ?store:Modlog.t -> Step.t list -> Pid.t -> pstate -> Metrics.counters ->
  delta

val commit_delta :
  ?store:Modlog.t -> Step.t list -> Pid.t -> pstate -> Metrics.counters ->
  Reg.t -> int -> delta

(** The delta with its successor state replaced by a fresh [st], whose
    lanes this refreshes. *)
val with_next : delta -> pstate -> delta

(** Does installing the delta change the configuration (is the element
    not a no-op)? *)
val changes : t -> delta -> bool

(** Install a delta in one configuration-record build: the successor
    state, the label mask, the commit (memory and last committer) and
    the store. The identity on a no-op. *)
val apply : t -> delta -> t

(** Recompute every cached lane of a pstate from scratch (obs rolling
    lanes from the raw list, then [lka]/[lkb]) — the reference for the
    incrementality regression tests. *)
val scratch_lanes : pstate -> pstate

(** Committed value of a register (under view-based models: the
    location's log maximum, kept materialized by the executor). *)
val read_mem : t -> Reg.t -> int

val store : t -> Modlog.t option

(** The modification-log store; raises [Invalid_argument] unless the
    model is view-based. *)
val store_exn : t -> Modlog.t

val wbuf : t -> Pid.t -> Wbuf.t
val program : t -> Pid.t -> Program.t

(** [p]'s program with leading labels consumed — the cached
    [pstate.skipped]. What dispatch-side queries should inspect. *)
val skipped : t -> Pid.t -> Program.t

val next_kind : t -> Pid.t -> Program.op_kind
val is_final : t -> Pid.t -> bool
val final_value : t -> Pid.t -> int option

(** Number of processes in a final state — [NbFinal(C)], which gates
    return steps in the decoder. *)
val nb_final : t -> int

val all_final : t -> bool

(** All processes final {e and} all buffers drained: nothing can change
    memory any more. *)
val quiescent : t -> bool

(** Total pending writes currently overtaken across all processes —
    "reorderings in flight", the quantity bounded engines compare
    against their budget. 0 means the execution so far is
    SC-consistent. O(nprocs); accounting only, never a state-key
    component. *)
val reorders_in_flight : t -> int

(** [reorders_after n t d] is [reorders_in_flight (apply t d)], given
    [n = reorders_in_flight t] — O(1), from the stepped process's old
    and new buffer. *)
val reorders_after : int -> t -> delta -> int

val known_values : pstate -> Reg.t -> Int_set.t

(** The known-cache with [v] recorded at [r] — physically the same
    value when already known. For fusing learning into
    single-allocation pstate updates; callers outside the executor want
    {!learn}. *)
val map_learn : Known.t -> Reg.t -> int -> Known.t

(** Record that the process has observed/produced value [v] at [r]. *)
val learn : pstate -> Reg.t -> int -> pstate

(** Locality of a read of [r] by [p] (whose state is [st]) returning
    [v] from shared memory; the caller passes the pstate it already
    holds. *)
val read_locality : t -> Pid.t -> pstate -> Reg.t -> int -> Step.locality

(** Read locality fused with the CC-cache learn: one cache probe serves
    both. The returned cache is physically the input when [v] was
    already known at [r]. *)
val read_learn :
  t -> Pid.t -> pstate -> Reg.t -> int -> Step.locality * Known.t

(** Locality of a commit to [r] by [p]. *)
val commit_locality : t -> Pid.t -> Reg.t -> Step.locality

(** Update process [p]'s metric counters. *)
val bump : Pid.t -> (Metrics.counters -> Metrics.counters) -> t -> t

(** Charge the RMR counters according to a step's locality. *)
val charge_rmr : Step.locality -> Metrics.counters -> Metrics.counters

val pp_mem : t Fmt.t
val pp : t Fmt.t
