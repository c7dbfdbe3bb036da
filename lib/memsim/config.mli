(** System configurations: the state of every process (program
    continuation, write buffer), every register, and the bookkeeping
    that classifies steps as local or remote. Immutable throughout, so
    a configuration doubles as a free snapshot for speculative
    execution. Process states and committed memory carry cached hash
    lanes over their state-key components, refreshed incrementally —
    see the implementation header for the contract.

    An element is stepped into a reusable, mutable {!delta} (scratch):
    the steps plus what the key and the monitors read, and no process
    state. A delta is valid until its owner's next step into it; only
    {!apply}, which runs for new states alone, copies it out — it
    builds the successor state by folding the step list over the old
    one. *)

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

  (** The cache with [v] recorded at [r] (no presence check). *)
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
  lr_reg : Reg.t;
      (** gate for spin blocking: the last step was a read of [lr_reg]
          returning [lr_value]; {!no_reg} when it was not a read *)
  lr_value : int;
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
          any pstate stored in a configuration (copied from the delta by
          {!apply}, refreshed by {!set_pstate}). Mutable so the refresh
          can fill a freshly built record in place; pstates stored in a
          configuration are never mutated. *)
  mutable lkb : int;
  ctr : Metrics.counters;
      (** this process's complexity counters; accounting only, never a
          state-key component *)
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

(** Install a copy of a process state, recomputing its post-label
    program and its cached lanes. *)
val set_pstate : t -> Pid.t -> pstate -> t

(** One schedule element's effect, before it is installed, in a
    reusable scratch record: the steps it produced, the one process
    [pid] it moved, and of that process's successor state what the
    state key and the monitors read — program, buffer, views, last
    read, op count, rolled observation lanes and refreshed local lanes
    [lka]/[lkb] — plus the commit and the successor modification-log
    store. [Exec.step_into] writes one; {!apply} installs it. The model
    checker keys a child from its delta and builds the configuration
    only for children its visited set has not seen.

    Ownership: a delta belongs to one stepping loop (the engine keeps
    one per worker) and is valid until that loop's next step into it;
    {!apply} is the only copy-out. *)
type delta = {
  mutable steps : Step.t list;
  mutable pid : Pid.t;
  mutable prog : Program.t;
  mutable stepped : int;
      (** which of [wb], [view], [rel] and [new_store] the step replaced,
          one bit each; a field whose bit is clear means nothing and the
          process's own component stands ({!next_wb}, {!next_store};
          {!apply} resolves them all) *)
  mutable wb : Wbuf.t;
  mutable view : View.t;
  mutable rel : View.t;
  mutable lr_reg : Reg.t;  (** {!no_reg}: the step was no read *)
  mutable lr_value : int;
  mutable ops : int;
  mutable obs_len : int;
  mutable obs_ha : int;
  mutable obs_hb : int;
  mutable lka : int;
  mutable lkb : int;
  mutable commit_reg : Reg.t;  (** the register committed to, or {!no_reg} *)
  mutable commit_value : int;
  mutable new_store : Modlog.t option;
}

(** [-1]: no register (no commit; a last step that was no read). *)
val no_reg : Reg.t

(** A fresh scratch delta, meaningless until {!load}ed. *)
val scratch : unit -> delta

(** [load d p st]: make [d] [p]'s state [st], unchanged — all but the
    program and the steps, which the stepper sets ([Exec.step_into]);
    the buffer, views and store stand as [st]'s until a step replaces
    them. *)
val load : delta -> Pid.t -> pstate -> unit

(** [idle d p st]: make [d] the no-op delta of [p] at state [st]. *)
val idle : delta -> Pid.t -> pstate -> unit

(** The stepped process's successor buffer — the delta's, or the one it
    had in the configuration stepped from — and the successor store
    ([None]: unchanged). *)
val next_wb : t -> delta -> Wbuf.t

val next_store : delta -> Modlog.t option

(** [set_wb d st wb]: the step leaves [wb] — recorded only when it is
    not [st]'s own buffer; likewise the views. [set_store] records a
    successor store. *)
val set_wb : delta -> pstate -> Wbuf.t -> unit

val set_view : delta -> pstate -> View.t -> unit
val set_rel : delta -> pstate -> View.t -> unit
val set_store : delta -> Modlog.t -> unit

(** [refresh d st]: recompute the delta's [lka]/[lkb] from its other
    fields; [st] is the stepped process's state before the step. *)
val refresh : delta -> pstate -> unit

(** Append an observed value to the delta's rolling obs lanes. *)
val observe : delta -> int -> unit

(** Does installing the delta change the configuration (is the element
    not a no-op)? *)
val changes : t -> delta -> bool

(** Install a delta in one configuration-record build: the successor
    state — the delta's fields, plus the observation log, CC cache and
    counters folded from its steps over the stepped process's old state
    ({!Metrics.charge} per step) — the label mask, the commit (memory
    and last committer) and the store. The identity on a no-op. The
    result shares nothing mutable with the delta. *)
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

(** Locality of a read of [r] by [p] (whose state is [st]) returning
    [v] from shared memory; the caller passes the pstate it already
    holds. *)
val read_locality : t -> Pid.t -> pstate -> Reg.t -> int -> Step.locality

(** Locality of a commit to [r] by [p]. *)
val commit_locality : t -> Pid.t -> Reg.t -> Step.locality

val pp_mem : t Fmt.t
val pp : t Fmt.t
