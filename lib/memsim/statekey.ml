(** Canonical state-key components for the model checkers.

    Deduplication soundness (see {!Explore}): programs are
    deterministic, so a process's local state is a function of its
    observation log; a sound state key is the committed memory plus,
    per process, its observation log, op count, write-buffer contents
    (in buffer order — FIFO order is semantic under TSO), last-read
    pair (which gates spin blocking) and final value. Metrics, the
    CC known-value caches and the last-committer table affect only
    accounting and locality classification of {e future} steps'
    costs, never which steps exist, and are excluded.

    This module is the single place that enumerates those components.
    Both consumers go through {!iter}, which feeds the key as a flat,
    self-delimiting stream of integers:

    - {!to_string} serializes the stream into a byte string, the exact
      key of the {!Explore.reference} explorer's hash table;
    - [Mc.Fingerprint.of_config] composes the same cached lanes into a
      compact 126-bit hash for the parallel checker's sharded visited
      set — by xor, so it can be {e updated} in O(1) from the dirty
      report of [Exec.exec_elt_d] instead of re-walked.

    The hot-path overhaul made the stream itself incremental: instead
    of re-walking every process's observation log and buffer on every
    visit (O(total obs) per state, quadratic over a run), the local
    component of each process is represented by the two 63-bit hash
    lanes cached in its [pstate] — refreshed only for the process an
    element actually stepped, in O(|wb| + 1), with the observation log
    folded in through O(1) rolling lanes. The committed-memory part
    stays exact (bound [(r, v)] pairs in increasing register order).

    The key is therefore probabilistic in its local part: two distinct
    local states collide only if both independent lanes collide
    (~2^-126 per pair). This is the same trade the parallel checker's
    fingerprint set makes, shared by the reference explorer's string
    keys; memory stays exact, so two states with equal keys agree on
    all committed values. Stream shape: [cardinal; (r, v)...;
    (p, lka, lkb)...] with fixed field order, so equal component
    tuples give equal streams. *)

(** Feed the key components of [cfg] to [f] as a flat integer stream:
    the exact committed memory, then per process its two cached local
    lanes. O(bound registers + processes). *)
let iter (cfg : Config.t) (f : int -> unit) =
  f (Config.Mem.cardinal cfg.Config.mem);
  Config.Mem.iter_bound
    (fun r v ->
      f r;
      f v)
    cfg.Config.mem;
  (* view-based models: the exact modification-log store (per-location
     logs in order, message bases, the SC-fence view). Mid-based, so
     sound — two states with equal streams have identical stores — but
     under-merging: stores equal up to a message-id renaming key
     differently. Absent ([None]) under write-buffer models, keeping
     their streams byte-identical to the pre-view-backend key. *)
  (match cfg.Config.store with
  | None -> ()
  | Some s -> Modlog.iter_key s f);
  Array.iteri
    (fun p (st : Config.pstate) ->
      f p;
      f st.Config.lka;
      f st.Config.lkb)
    cfg.Config.procs

(** Serialize the component stream into a flat byte string; full-content
    hashing (the generic [Hashtbl.hash] only samples the first few nodes
    of a deep structure, which collapses thousands of distinct states
    onto one bucket — strings hash on every byte). *)
let to_string cfg =
  let b = Buffer.create 256 in
  iter cfg (fun i -> Buffer.add_int64_le b (Int64.of_int i));
  Buffer.contents b

(** The cached local-component lanes of a process state. *)
let proc_lanes (st : Config.pstate) = (st.Config.lka, st.Config.lkb)

(** The same lanes recomputed from scratch (incrementality tests). *)
let proc_lanes_scratch (st : Config.pstate) =
  proc_lanes (Config.scratch_lanes st)

(** The incrementally maintained shared-memory lanes, one at a time:
    committed memory, xor the modification-log store under view-based
    models (the store is part of shared memory as far as dedup is
    concerned). Xor keeps the composition updatable: fingerprint
    updates swap these lanes before/after any mem-dirty element, which
    covers store changes too. *)
let mem_lane_a (cfg : Config.t) =
  Config.Mem.lane_a cfg.Config.mem
  lxor match cfg.Config.store with None -> 0 | Some s -> Modlog.lane_a s

let mem_lane_b (cfg : Config.t) =
  Config.Mem.lane_b cfg.Config.mem
  lxor match cfg.Config.store with None -> 0 | Some s -> Modlog.lane_b s

(** Both shared-memory lanes. *)
let mem_lanes cfg = (mem_lane_a cfg, mem_lane_b cfg)

(** The same lanes recomputed from scratch (incrementality tests). *)
let mem_lanes_scratch (cfg : Config.t) =
  let mha, mhb = Config.Mem.lanes_scratch cfg.Config.mem in
  match cfg.Config.store with
  | None -> (mha, mhb)
  | Some s ->
      let sa, sb = Modlog.lanes_scratch s in
      (mha lxor sa, mhb lxor sb)
