(** The model-checking engine: [`Parallel j] explores with [j] domains
    over per-worker work-stealing deques and a fingerprint-sharded
    visited set, optionally under partial-order reduction ([por],
    {!Por}). [`Parallel 1] (the default) runs in the calling domain in
    a deterministic order. See the implementation header for the parity
    guarantees with {!Memsim.Explore.reference} and the thread-safety
    contract of the hooks. *)

open Memsim

type engine = [ `Parallel of int ]

(** A frontier-consistent cut of a [`Parallel 1] exploration, as plain
    data: every pending task as its path from the root (in pop order,
    in-hand task first), claim keys, the counters at the cut, and the
    violations/deadlocks found so far (as message/path pairs).
    [ck_keys] is a sequence of {!Fingerprint.write} records. A cut
    that [run] emits carries only the keys newly claimed since the
    run's previous cut (since its start or resume for the first one),
    so appending each cut's keys to one log keeps every claim exactly
    once; [resume] takes the whole log up to the resumed cut. Resuming
    from a checkpoint replays each pending path deterministically and
    continues with identical exploration order, so a resumed run
    finishes with the same verdict and the {e exact} same cumulative
    state/transition counts as the uninterrupted run. *)
type checkpoint = {
  ck_states : int;
  ck_transitions : int;
  ck_bound_hits : int;
  ck_pending : Exec.elt list list;
  ck_keys : Bytes.t;
  ck_violations : (string * Exec.elt list) list;
  ck_deadlocks : Exec.elt list list;
}

(** Explore every interleaving from a configuration. [engine] defaults
    to [`Parallel 1]; [`Parallel j] needs [j >= 1] (raises
    [Invalid_argument] otherwise). [monitor] folds over every step of
    every explored edge and [check] is evaluated once per distinct
    state — both must be pure; [on_final] fires once per distinct
    quiescent state and is serialized internally. [max_violations]
    (default 3) and [max_deadlocks] (default unbounded) cap the
    verdicts retained; [max_states] (default 1,000,000) and
    [max_depth] (default 100,000) truncate the run. With [por] the
    states/transitions counts drop but all deadlocks, quiescent states
    and note-driven monitor verdicts are preserved.
    [report_visited] receives the visited set's occupancy statistics
    when the run finishes.

    [tel] plugs a {!Telemetry.Hub.t} into the run: the engine
    registers its counters (expansions, children, dedup_hits,
    por_prunes, bound_hits, plus the frontier's steals/sleeps) and
    live gauges (states, transitions, frontier, visited,
    visited_skew, visited_bytes) on it, so a {!Telemetry.Sampler} can
    stream progress while the run is live. The hub must have at least as
    many worker slots as [`Parallel j] has domains. Without [tel]
    the same counters are bumped on a private hub nobody reads —
    plain int adds on pre-allocated padded cells, the zero-cost-off
    discipline guarded by bench-smoke. Counter totals at
    [`Parallel 1] are exactly reproducible run to run.

    [reorder_bound] explores the reorder-bounded under-approximation:
    an edge whose successor carries more than [K] reorderings in
    flight (pending writes overtaken by a later op of their owner or
    by a younger commit — {!Memsim.Config.reorders_in_flight}) is
    pruned and counted in [stats.bound_hits]. [K = 0] restricts
    buffered models to their SC-consistent executions. The
    per-process overtaken-flag bitsets are mixed into the visited key
    ({!Fingerprint.budget_term}), so bounded dedup is exact for the
    bounded transition system and the explored sets are monotone in
    [K]. Under [por], an over-budget ample step falls back to the full
    filtered expansion — the combination stays an under-approximation
    whose saturation certificate ([bound_hits = 0] on a completed run)
    is still exact. View-based models have no write buffer to meter
    and raise [Invalid_argument].

    [checkpoint:(every, emit)] calls [emit] with a
    frontier-consistent {!checkpoint} each time roughly [every] more
    states have been claimed since the last cut; [resume] restores one
    and continues the exploration exactly where it stopped. Both
    require [`Parallel 1] (the only configuration where the pending
    cut is exact) and raise [Invalid_argument] otherwise; [resume] is
    exclusive with internal seeding, and the checkpoint must have been
    taken from a run with the same configuration, bounds and
    reductions — restored visited fingerprints are only valid under
    the same keying. *)
val run :
  ?tel:Telemetry.Hub.t ->
  ?engine:engine ->
  ?por:bool ->
  ?report_visited:(Visited.stats -> unit) ->
  ?max_states:int ->
  ?max_depth:int ->
  ?max_violations:int ->
  ?max_deadlocks:int ->
  ?reorder_bound:int ->
  ?checkpoint:int * (checkpoint -> unit) ->
  ?resume:checkpoint ->
  ?check:(Config.t -> string option) ->
  monitor:('m -> Step.t -> ('m, string) Stdlib.result) ->
  init:'m ->
  ?on_final:(Config.t -> 'm -> unit) ->
  Config.t ->
  'm Explore.result

(** Exploration without a monitor. *)
val run_plain :
  ?tel:Telemetry.Hub.t ->
  ?engine:engine ->
  ?por:bool ->
  ?max_states:int ->
  ?max_depth:int ->
  ?max_deadlocks:int ->
  ?reorder_bound:int ->
  ?on_final:(Config.t -> unit) ->
  Config.t ->
  unit Explore.result

(** Reachable quiescent-state projections under [observe], sorted, plus
    the exploration result. *)
val reachable_outcomes :
  ?tel:Telemetry.Hub.t ->
  ?engine:engine ->
  ?por:bool ->
  ?max_states:int ->
  ?max_depth:int ->
  ?reorder_bound:int ->
  observe:(Config.t -> 'a) ->
  Config.t ->
  'a list * unit Explore.result

(** One level of an iterative-deepening run: the bound explored and
    what that level alone contributed. [states] counts only states
    newly claimed at this level (levels sum to the cumulative count);
    [transitions] may double-count edges re-executed while re-expanding
    the previous level's boundary states. *)
type deepen_level = {
  bound : int;
  states : int;
  transitions : int;
  bound_hits : int;
  violations : int;
}

type 'm deepen_result = {
  result : 'm Explore.result;
      (** cumulative states/transitions/bound_hits; violations,
          deadlock accumulation and truncation from the level that
          ended the search *)
  final_bound : int;
  saturated : bool;
      (** the final level completed with zero bound hits: the explored
          union equals the unbounded reachable set, so the verdict is
          exact — a clean [OK] needs no "subset" qualifier *)
  levels : deepen_level list;  (** ascending bound order *)
}

(** Iterative deepening over the reorder bound: run at [bound_from]
    (default 0, the SC-consistent core), and while the level is
    violation-free, complete, and hit the bound somewhere, widen by
    [bound_step] and {e resume} — the visited set is shared across
    levels (keys carry the budget term, so earlier claims stay valid)
    and only the boundary states (those with a pruned edge) are
    re-seeded. Stops at the first violating level, at saturation, at
    truncation, or at [max_bound]. [max_states] caps the {e cumulative}
    state count. Always [`Parallel jobs] (default 1). *)
val deepen :
  ?tel:Telemetry.Hub.t ->
  ?jobs:int ->
  ?por:bool ->
  ?report_visited:(Visited.stats -> unit) ->
  ?max_states:int ->
  ?max_depth:int ->
  ?max_violations:int ->
  ?max_deadlocks:int ->
  ?bound_from:int ->
  ?bound_step:int ->
  ?max_bound:int ->
  ?check:(Config.t -> string option) ->
  monitor:('m -> Step.t -> ('m, string) Stdlib.result) ->
  init:'m ->
  ?on_final:(Config.t -> 'm -> unit) ->
  Config.t ->
  'm deepen_result

(** Deepening counterpart of {!reachable_outcomes}: outcomes accumulate
    across levels. *)
val deepen_outcomes :
  ?tel:Telemetry.Hub.t ->
  ?jobs:int ->
  ?por:bool ->
  ?max_states:int ->
  ?max_depth:int ->
  ?bound_from:int ->
  ?bound_step:int ->
  ?max_bound:int ->
  observe:(Config.t -> 'a) ->
  Config.t ->
  'a list * unit deepen_result
