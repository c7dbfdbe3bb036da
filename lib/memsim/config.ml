(** System configurations.

    A configuration comprises the state of each process (its program
    continuation and write buffer), each register, and the bookkeeping
    needed to classify steps as local or remote (per-process known-value
    caches for the CC rule; the last committer of each register for the
    commit rule). Everything is immutable, so a configuration doubles as
    a free snapshot — the Section 5 machinery and the model checker rely
    on cheap speculative execution from saved configurations.

    Hot-path bookkeeping: each process state carries two cached 63-bit
    hash {e lanes} ([lka]/[lkb]) digesting exactly its state-key
    components (see {!Statekey}), refreshed in O(|wb| + 1); the
    observation log additionally keeps rolling lanes so appending an
    observation is O(1) however long the log grows. Committed memory is
    an int-array-backed {!Mem} value with xor-composable (Zobrist) lanes
    of its own. Because the configuration is persistent, an execution
    step refreshes the lanes of the {e one} dirtied process while every
    other process shares its previous, already-hashed state — this is
    the incremental-state-key contract the model checker's
    fingerprinting builds on.

    Stepping into scratch: an element's effect is written into a
    mutable {!delta} — the step list plus exactly what the state key
    and the monitors read (the stepped process's program, buffer,
    views, last read, op count, rolled observation lanes and refreshed
    local lanes, the commit and the store) — and no process state is
    built. {!apply} builds the successor state from the old one by
    folding the step list: the observation log, the CC cache and the
    counters ({!Metrics.charge}) all follow from the steps. A delta is
    owned by one stepping loop and valid until its next step; only
    {!apply} copies it out. *)

module Int_set = Set.Make (Int)

(* [-1]: no register — no commit, or a last step that was no read. *)
let no_reg = -1

(** Per-process CC cache: which values the process has written to, or
    read from, each register. Consulted on every read step (the
    read-locality rule) but {e never} a state-key component, so the
    representation is free to favor the membership test: a copy-on-write
    array indexed by dense register id, each cell a direct 63-bit
    bitmask over small non-negative values plus a spill set for values
    outside [0, 62]. Bakery tickets, flags and fuzz immediates all live
    in the bitmask; the spill set stays physically the shared empty set
    on those paths. The array grows on demand (registers are dense
    layout ids, so it tops out at nregs cells). *)
module Known = struct
  type cell = { mask : int; rest : Int_set.t }
  type t = cell array

  let empty_cell = { mask = 0; rest = Int_set.empty }
  let empty : t = [||]

  let[@inline] cell t r =
    if r < Array.length t then Array.unsafe_get t (r : Reg.t :> int)
    else empty_cell

  let[@inline] mem t r v =
    let c = cell t r in
    if v >= 0 && v < 63 then c.mask land (1 lsl v) <> 0
    else Int_set.mem v c.rest

  (* Copy-on-write insert; the caller ({!map_learn}) has already
     filtered out present values, so no same-map fast path here. *)
  let add t r v =
    let n = Array.length t in
    let t' =
      if r < n then Array.copy t
      else begin
        let a = Array.make (r + 1) empty_cell in
        Array.blit t 0 a 0 n;
        a
      end
    in
    let c = cell t r in
    t'.(r) <-
      (if v >= 0 && v < 63 then { c with mask = c.mask lor (1 lsl v) }
       else { c with rest = Int_set.add v c.rest });
    t'

  (** The cell's contents as a plain set (introspection, tests). *)
  let values t r =
    let c = cell t r in
    let s = ref c.rest in
    for v = 0 to 62 do
      if c.mask land (1 lsl v) <> 0 then s := Int_set.add v !s
    done;
    !s
end

(** Committed memory: a copy-on-write int array behind the historical
    map-like interface. [bound] distinguishes "committed at least once"
    from "still at the layout initial value" — the distinction is part
    of the state key (a commit of the initial value is an observable
    event: it resets nobody's cache but does bump the key's memory
    cardinality, exactly as the former [Reg.Map] binding did). The
    [ha]/[hb] lanes xor one {!Keyhash} token per bound [(r, v)] entry,
    maintained in O(1) per commit. *)
module Mem = struct
  type t = {
    values : int array;  (** committed value, or the layout init *)
    bound : Bytes.t;  (** [<> '\000'] once committed *)
    card : int;  (** number of bound registers *)
    ha : int;  (** xor of [Keyhash.token_a] over bound entries *)
    hb : int;
  }

  let make layout =
    let n = Layout.nregs layout in
    {
      values = Array.init n (Layout.init layout);
      bound = Bytes.make n '\000';
      card = 0;
      ha = 0;
      hb = 0;
    }

  (* The Zobrist token of one bound entry, per lane. *)
  let[@inline] entry_a r v = Keyhash.token_a Keyhash.seed_a r v
  let[@inline] entry_b r v = Keyhash.token_b Keyhash.seed_b r v

  let get t r = t.values.(r)
  let is_bound t r = Bytes.get t.bound r <> '\000'
  let cardinal t = t.card

  (** What committing [v] to [r] xors into lane [a]: the old entry's
      token out (when [r] is bound), the new one in — so a key can
      follow a commit without building the new memory. *)
  let commit_xor_a t r v =
    (if is_bound t r then entry_a r t.values.(r) else 0) lxor entry_a r v

  let commit_xor_b t r v =
    (if is_bound t r then entry_b r t.values.(r) else 0) lxor entry_b r v

  let set t r v =
    let was = is_bound t r in
    let values = Array.copy t.values in
    values.(r) <- v;
    let bound =
      if was then t.bound
      else begin
        let b = Bytes.copy t.bound in
        Bytes.set b r '\001';
        b
      end
    in
    {
      values;
      bound;
      card = (if was then t.card else t.card + 1);
      ha = t.ha lxor commit_xor_a t r v;
      hb = t.hb lxor commit_xor_b t r v;
    }

  (** Bound entries in increasing register order — the exact memory
      part of the state key. *)
  let iter_bound f t =
    for r = 0 to Array.length t.values - 1 do
      if is_bound t r then f r t.values.(r)
    done

  (** Incrementally maintained lanes, one at a time. *)
  let lane_a t = t.ha

  let lane_b t = t.hb

  (** The same lanes recomputed from the bound entries — the reference
      the qcheck incrementality regression compares against. *)
  let lanes_scratch t =
    let ha = ref 0 and hb = ref 0 in
    iter_bound
      (fun r v ->
        ha := !ha lxor entry_a r v;
        hb := !hb lxor entry_b r v)
      t;
    (!ha, !hb)

  (** Componentwise equality (bound set and committed values). *)
  let equal a b =
    a.card = b.card
    && Bytes.equal a.bound b.bound
    && a.values = b.values
end

type pstate = {
  prog : Program.t;
  skipped : Program.t;
      (** [prog] with leading labels consumed — physically [== prog]
          when there are none, which is the exact pending-label test
          the executor and the label mask use. Every dispatch-side
          query (next_kind, is_final, POR footprints, blocked checks)
          reads this field, so label continuations are forced once per
          program install instead of once per query. Derived from
          [prog]; never a key component (state keys see [prog] only
          through [Program.Done]). *)
  wb : Wbuf.t;
  known : Known.t;
      (** CC cache: values this process has written to, or read from,
          each register. A read of [r] returning a known value is a
          cache hit (the paper's read-locality rule). *)
  lr_reg : Reg.t;
      (** the last step was a read of [lr_reg] returning [lr_value]
          ({!no_reg}: it was not a read); used by spin detection (a
          repeat read of an unchanged register is a semantic
          self-loop). Reset by any other step. *)
  lr_value : int;
  obs : int list;
      (** reversed log of every value this process has observed (read
          results; cas reads and outcomes). Programs are deterministic,
          so the observation log determines the process's entire local
          state — the model checker uses it as a sound state key. *)
  ops : int;
      (** number of operation steps this process has executed (not
          counting commits, which are system steps). Together with [obs]
          this pins the exact program position: between observations a
          deterministic program runs a fixed sequence of non-observing
          ops (writes, fences, returns), which [obs] alone cannot see. *)
  obs_len : int;  (** [List.length obs], maintained at append *)
  obs_ha : int;
      (** rolling lane over [obs] (oldest observation folded first),
          updated O(1) at append — the log itself never needs
          re-walking *)
  obs_hb : int;
  view : View.t;
      (** view-based models only: the process's current view — newest
          message it knows per location. Always {!View.empty} under
          write-buffer models, so the wbuf state-key stream is
          byte-identical to before the view backend existed. *)
  rel : View.t;
      (** view-based models only: the release view — this process's
          view at its last fence; the base every plain write attaches
          to its message. *)
  mutable lka : int;
      (** cached lane [a] over this process's full state-key component
          (ops, last read, final value, wb contents, obs); copied from
          the stepped delta or refreshed by {!set_pstate}, so any
          pstate stored in a configuration is consistent. Hand-built
          pstates may carry stale lanes until they pass through
          {!set_pstate}. Mutable purely so {!refresh_lanes} can fill
          the lanes of a {e freshly built, not yet shared} record
          without copying it again — every writer owns the record it
          writes (and the fields are immediates, so no write barrier);
          pstates stored in a configuration are never mutated. *)
  mutable lkb : int;
  ctr : Metrics.counters;
      (** this process's complexity counters. Stored here rather than
          in a separate per-configuration map so an execution step
          updates one map, not two; accounting only — never a state-key
          component (see {!Statekey}). *)
}

type t = {
  model : Memory_model.t;
  layout : Layout.t;
  mem : Mem.t;  (** committed values; unbound = initial value *)
  store : Modlog.t option;
      (** [Some] iff the model is view-based: the per-location
          modification logs and the global SC-fence view. Under view
          models, [mem] is kept materialized at each location's log
          maximum (appends commit; RA mid-log insertions don't change
          the maximum), so [read_mem] and final-state observation work
          unchanged. *)
  procs : pstate array;
      (** index = pid (pids are dense [0 .. nprocs-1]). Copy-on-write,
          like [Mem] — an installed slot is never mutated, so sharing a
          configuration across exploration branches is safe. *)
  last_committer : int array;
      (** who committed to each register last (commit-locality rule);
          [-1] = nobody yet. Copy-on-write, like [Mem]. *)
  label_mask : int;
      (** bit [min p 62] set when process [p] may be poised at a
          [Label] — exact for [p < 62], sticky-conservative above (the
          62nd bit, once set, stays). Lets label flushing skip the
          per-process map lookups in the (overwhelmingly common)
          no-label case. Derived from [procs]; not a key component. *)
  buffered : bool;
      (** {!Memory_model.buffered} of [model], hoisted so the executor
          branches on a field instead of re-dispatching per step *)
  view_based : bool;  (** {!Memory_model.view_based} of [model], hoisted *)
  op_elts : (Pid.t * Reg.t option) array;
      (** [op_elts.(p) = (p, None)] — preallocated schedule elements,
          so successor enumeration allocates no tuples. Derived. *)
  commit_elts : (Pid.t * Reg.t option) array array;
      (** [commit_elts.(p).(r) = (p, Some r)] — ditto for commit (and
          view choice-index) elements, for [r < nregs]. Derived. *)
}

(* One buffer entry folded into a local lane: one top-level function
   per lane, so the refresh below allocates no closure. *)
let wb_lane_a h (e : Wbuf.entry) = Keyhash.mix_a (Keyhash.mix_a h e.reg) e.value
let wb_lane_b h (e : Wbuf.entry) = Keyhash.mix_b (Keyhash.mix_b h e.reg) e.value

(* The cached local-state lanes over their components — the pstate's
   and the scratch delta's. The obs component enters through its
   rolling lanes, so this is O(|wb| + 1) regardless of how long the
   observation log is. Straight-line accumulation (no closure, no refs)
   of exactly the historical feed sequence — byte-identical lanes. The
   view component is guarded so write-buffer states (both views always
   empty) keep the lanes of the pre-view-backend key. *)
let lane_a ~ops ~lr_reg ~lr_value ~prog ~wb ~obs_len ~obs_ha ~view ~rel =
  let a = Keyhash.mix_a Keyhash.seed_a ops in
  let a =
    if lr_reg = no_reg then Keyhash.mix_a a 0
    else Keyhash.mix_a (Keyhash.mix_a (Keyhash.mix_a a 1) lr_reg) lr_value
  in
  let a =
    match (prog : Program.t) with
    | Done v -> Keyhash.mix_a (Keyhash.mix_a a 1) v
    | _ -> Keyhash.mix_a a 0
  in
  let a = Keyhash.mix_a a (Wbuf.size wb) in
  let a = if Wbuf.is_empty wb then a else Wbuf.fold wb_lane_a a wb in
  let a = Keyhash.mix_a (Keyhash.mix_a a obs_len) obs_ha in
  if View.is_empty view && View.is_empty rel then a
  else Keyhash.mix_a (Keyhash.mix_a a (View.digest_a view)) (View.digest_a rel)

let lane_b ~ops ~lr_reg ~lr_value ~prog ~wb ~obs_len ~obs_hb ~view ~rel =
  let b = Keyhash.mix_b Keyhash.seed_b ops in
  let b =
    if lr_reg = no_reg then Keyhash.mix_b b 0
    else Keyhash.mix_b (Keyhash.mix_b (Keyhash.mix_b b 1) lr_reg) lr_value
  in
  let b =
    match (prog : Program.t) with
    | Done v -> Keyhash.mix_b (Keyhash.mix_b b 1) v
    | _ -> Keyhash.mix_b b 0
  in
  let b = Keyhash.mix_b b (Wbuf.size wb) in
  let b = if Wbuf.is_empty wb then b else Wbuf.fold wb_lane_b b wb in
  let b = Keyhash.mix_b (Keyhash.mix_b b obs_len) obs_hb in
  if View.is_empty view && View.is_empty rel then b
  else Keyhash.mix_b (Keyhash.mix_b b (View.digest_b view)) (View.digest_b rel)

(* Refresh a fresh pstate's cached lanes from its other fields. *)
let refresh_lanes st =
  st.lka <-
    lane_a ~ops:st.ops ~lr_reg:st.lr_reg ~lr_value:st.lr_value ~prog:st.prog
      ~wb:st.wb ~obs_len:st.obs_len ~obs_ha:st.obs_ha ~view:st.view
      ~rel:st.rel;
  st.lkb <-
    lane_b ~ops:st.ops ~lr_reg:st.lr_reg ~lr_value:st.lr_value ~prog:st.prog
      ~wb:st.wb ~obs_len:st.obs_len ~obs_hb:st.obs_hb ~view:st.view
      ~rel:st.rel;
  st

(** Recompute every cached lane from scratch — obs rolling lanes from
    the raw [obs] list, then [lka]/[lkb]. The reference implementation
    for the incrementality regression tests; never on the hot path. *)
let scratch_lanes st =
  let a = ref Keyhash.seed_a and b = ref Keyhash.seed_b in
  List.iter
    (fun v ->
      a := Keyhash.mix_a !a v;
      b := Keyhash.mix_b !b v)
    (List.rev st.obs);
  refresh_lanes
    { st with obs_len = List.length st.obs; obs_ha = !a; obs_hb = !b }

(* Label-mask maintenance: bit [min p 62] tracks whether [p] is poised
   at a [Label]. For p < 62 the bit is exact (set and cleared); 62 and
   above share the top bit, which is only ever set (sticky), keeping
   the mask conservative. *)
let label_bit p = 1 lsl (if p >= 62 then 62 else p)

let mask_with mask p (prog : Program.t) =
  if Program.at_label prog then mask lor label_bit p
  else if p >= 62 then mask
  else mask land lnot (label_bit p)

let initial_pstate prog =
  refresh_lanes
    {
      prog;
      skipped = Program.post_labels prog;
      wb = Wbuf.empty;
      known = Known.empty;
      lr_reg = no_reg;
      lr_value = 0;
      obs = [];
      ops = 0;
      obs_len = 0;
      obs_ha = Keyhash.seed_a;
      obs_hb = Keyhash.seed_b;
      view = View.empty;
      rel = View.empty;
      lka = 0;
      lkb = 0;
      ctr = Metrics.zero;
    }

(** [make ~model ~layout programs] builds the initial configuration
    [C_init]: process [p] runs [programs.(p)], all buffers empty, all
    registers at their layout-declared initial values.

    [compile] (default [true]) runs each program through
    {!Compile.program} — continuation sharing, the identity up to
    observation; [~compile:false] keeps the raw closure tree (the
    reference side of the shared-vs-raw parity suite and bench
    guard). *)
let make ?(compile = true) ~model ~layout programs =
  let nprocs = Layout.nprocs layout in
  if Array.length programs <> nprocs then
    Fmt.invalid_arg "Config.make: %d programs for %d processes"
      (Array.length programs) nprocs;
  let programs =
    if compile then Array.map (fun p -> Compile.program p) programs
    else programs
  in
  let procs = Array.map initial_pstate programs in
  let label_mask = ref 0 in
  Array.iteri (fun p st -> label_mask := mask_with !label_mask p st.prog) procs;
  let nregs = Layout.nregs layout in
  {
    model;
    layout;
    mem = Mem.make layout;
    store =
      (if Memory_model.view_based model then Some (Modlog.make ~layout)
       else None);
    procs;
    last_committer = Array.make nregs (-1);
    label_mask = !label_mask;
    buffered = Memory_model.buffered model;
    view_based = Memory_model.view_based model;
    op_elts = Array.init nprocs (fun p -> (p, None));
    commit_elts =
      Array.init nprocs (fun p -> Array.init nregs (fun r -> (p, Some r)));
  }

(** Per-process complexity counters, assembled from the process states
    (where they live since the hot-path overhaul — one map update per
    step instead of two). *)
let metrics t : Metrics.t =
  let m = ref Metrics.empty in
  Array.iteri (fun p st -> m := Pid.Map.add p st.ctr !m) t.procs;
  !m

let nprocs t = Layout.nprocs t.layout

let pstate t p =
  if p < 0 || p >= Array.length t.procs then
    Fmt.invalid_arg "Config.pstate: unknown process %d" p
  else t.procs.(p)

(* Copy-on-write slot update: never mutates the installed array. *)
let with_proc t p st =
  let procs = Array.copy t.procs in
  procs.(p) <- st;
  procs

let set_pstate t p st =
  (* cold-path installer for hand-built pstates: a fresh copy with the
     cached post-label program and the lanes recomputed, so callers may
     update [prog] alone and never see their record mutated *)
  let st = { st with skipped = Program.post_labels st.prog } in
  {
    t with
    procs = with_proc t p (refresh_lanes st);
    label_mask = mask_with t.label_mask p st.prog;
  }

(** One schedule element's effect, before it is installed, written into
    a reusable scratch record: the steps it produced, the process [pid]
    it moved, and of that process's successor state exactly what the
    state key and the monitors read — the program, buffer, views, last
    read, op count, rolled observation lanes and refreshed local lanes
    — plus the commit and the successor modification-log store. Every
    element touches at most one process, so this is all a successor
    differs in; the rest of the successor state (observation log, CC
    cache, counters) follows from the steps, and {!apply} builds it
    only for the children the visited set has not seen. *)
type delta = {
  mutable steps : Step.t list;
  mutable pid : Pid.t;
  mutable prog : Program.t;
  mutable stepped : int;
      (* which of [wb], [view], [rel] and [new_store] the step replaced
         (one bit each); a field whose bit is clear means nothing — the
         stepped process's own component stands (see {!next_wb}) *)
  mutable wb : Wbuf.t;
  mutable view : View.t;
  mutable rel : View.t;
  mutable lr_reg : Reg.t;
  mutable lr_value : int;
  mutable ops : int;
  mutable obs_len : int;
  mutable obs_ha : int;
  mutable obs_hb : int;
  mutable lka : int;
  mutable lkb : int;
  mutable commit_reg : Reg.t;
  mutable commit_value : int;
  mutable new_store : Modlog.t option;
}

(** A fresh scratch delta; its contents mean nothing until {!load}. *)
let scratch () =
  {
    steps = [];
    pid = 0;
    prog = Program.Done 0;
    stepped = 0;
    wb = Wbuf.empty;
    view = View.empty;
    rel = View.empty;
    lr_reg = no_reg;
    lr_value = 0;
    ops = 0;
    obs_len = 0;
    obs_ha = 0;
    obs_hb = 0;
    lka = 0;
    lkb = 0;
    commit_reg = no_reg;
    commit_value = 0;
    new_store = None;
  }

(** [load d p st]: [d] becomes [p]'s state [st] with nothing changed,
    except for its program and steps, which the stepper sets. The
    buffer, views and store are not copied: the scratch record is
    long-lived, so a pointer written into it goes through the write
    barrier, and most steps keep most of them. *)
let load d p (st : pstate) =
  d.pid <- p;
  d.stepped <- 0;
  d.lr_reg <- st.lr_reg;
  d.lr_value <- st.lr_value;
  d.ops <- st.ops;
  d.obs_len <- st.obs_len;
  d.obs_ha <- st.obs_ha;
  d.obs_hb <- st.obs_hb;
  d.lka <- st.lka;
  d.lkb <- st.lkb;
  d.commit_reg <- no_reg;
  d.commit_value <- 0

(** [idle d p st]: [d] becomes the no-op delta of [p] at state [st]. *)
let idle d p (st : pstate) =
  load d p st;
  d.prog <- st.prog;
  d.steps <- []

let wb_bit = 1
let view_bit = 2
let rel_bit = 4
let store_bit = 8

(* The successor buffer and views of [d]'s process, whose state was
   [st]. *)
let wb_of d (st : pstate) = if d.stepped land wb_bit <> 0 then d.wb else st.wb
let view_of d (st : pstate) = if d.stepped land view_bit <> 0 then d.view else st.view
let rel_of d (st : pstate) = if d.stepped land rel_bit <> 0 then d.rel else st.rel

(** The stepped process's successor buffer, and the successor store
    ([None]: unchanged). *)
let next_wb t d = wb_of d t.procs.(d.pid)

let next_store d = if d.stepped land store_bit <> 0 then d.new_store else None

(** Replace the stepped process's buffer or views, unless the step kept
    them, or the store. *)
let set_wb d (st : pstate) wb =
  if wb != st.wb then begin
    d.wb <- wb;
    d.stepped <- d.stepped lor wb_bit
  end

let set_view d (st : pstate) view =
  if view != st.view then begin
    d.view <- view;
    d.stepped <- d.stepped lor view_bit
  end

let set_rel d (st : pstate) rel =
  if rel != st.rel then begin
    d.rel <- rel;
    d.stepped <- d.stepped lor rel_bit
  end

let set_store d store =
  d.new_store <- Some store;
  d.stepped <- d.stepped lor store_bit

(** Recompute the delta's local lanes from its other fields. *)
let refresh d st =
  let wb = wb_of d st and view = view_of d st and rel = rel_of d st in
  d.lka <-
    lane_a ~ops:d.ops ~lr_reg:d.lr_reg ~lr_value:d.lr_value ~prog:d.prog ~wb
      ~obs_len:d.obs_len ~obs_ha:d.obs_ha ~view ~rel;
  d.lkb <-
    lane_b ~ops:d.ops ~lr_reg:d.lr_reg ~lr_value:d.lr_value ~prog:d.prog ~wb
      ~obs_len:d.obs_len ~obs_hb:d.obs_hb ~view ~rel

(** Append one observed value to the delta's rolling obs lanes. *)
let observe d v =
  d.obs_len <- d.obs_len + 1;
  d.obs_ha <- Keyhash.mix_a d.obs_ha v;
  d.obs_hb <- Keyhash.mix_b d.obs_hb v

(** Does installing the delta change the configuration? Every step, and
    every consumed label, leaves a step (or note) behind; settling an
    idle process's labels changes only its program. *)
let changes t d = d.steps != [] || d.prog != t.procs.(d.pid).prog

(* The known-cache with [v] recorded at [r] — physically the same value
   when already known. *)
let learn known r v = if Known.mem known r v then known else Known.add known r v

(* The successor state of [d]'s process, whose state was [old]: the
   delta's fields, plus what
   follows from its steps, folded over the old state — observations
   (read values; a cas's read and outcome; an RMW's read), the CC cache
   (values read, written, found or swapped in) and the counters. *)
let rec absorb old d obs known ctr = function
  | [] ->
      {
        prog = d.prog;
        skipped =
          (if Program.at_label d.prog then Program.post_labels d.prog
           else d.prog);
        wb = wb_of d old;
        known;
        lr_reg = d.lr_reg;
        lr_value = d.lr_value;
        obs;
        ops = d.ops;
        obs_len = d.obs_len;
        obs_ha = d.obs_ha;
        obs_hb = d.obs_hb;
        view = view_of d old;
        rel = rel_of d old;
        lka = d.lka;
        lkb = d.lkb;
        ctr;
      }
  | s :: rest -> (
      let ctr = Metrics.charge s ctr in
      match s with
      | Step.Read { reg; value; _ } ->
          absorb old d (value :: obs) (learn known reg value) ctr rest
      | Write { reg; value; _ } -> absorb old d obs (learn known reg value) ctr rest
      | Cas { reg; read; success; update; _ } ->
          let known = learn known reg read in
          let known = if success then learn known reg update else known in
          absorb old d ((if success then 1 else 0) :: read :: obs) known ctr rest
      | Rmw { reg; read; wrote; _ } ->
          absorb old d (read :: obs) (learn (learn known reg read) reg wrote) ctr
            rest
      | Commit _ | Fence _ | Return _ | Note _ -> absorb old d obs known ctr rest)

(** [apply t d] installs a delta in a single pass: the successor state
    (built here, copy-on-write slot), the label mask, the commit
    (memory and last committer) and the store. One configuration-record
    build; the identity on a no-op. The successor shares nothing
    mutable with [d], which is free for the next step afterwards. *)
let apply t d =
  if not (changes t d) then t
  else
    let p = d.pid in
    let old = t.procs.(p) in
    let st = absorb old d old.obs old.known old.ctr d.steps in
    let procs = with_proc t p st in
    let label_mask = mask_with t.label_mask p st.prog in
    if d.commit_reg = no_reg then
      match next_store d with
      | None -> { t with procs; label_mask }
      | Some _ as store -> { t with procs; label_mask; store }
    else
      let r = d.commit_reg in
      let last_committer = Array.copy t.last_committer in
      last_committer.(r) <- p;
      let mem = Mem.set t.mem r d.commit_value in
      match next_store d with
      | None -> { t with procs; label_mask; mem; last_committer }
      | Some _ as store ->
          { t with procs; label_mask; mem; last_committer; store }

(** Committed value of register [r]. Under view-based models this is
    each location's log maximum (kept materialized by the executor). *)
let read_mem t r = Mem.get t.mem r

let store t = t.store

let store_exn t =
  match t.store with
  | Some s -> s
  | None ->
      Fmt.invalid_arg "Config.store_exn: %s is not view-based"
        (Memory_model.to_string t.model)

let wbuf t p = (pstate t p : pstate).wb
let program t p = (pstate t p : pstate).prog

(** [p]'s program with leading labels consumed — the cached
    [pstate.skipped], what every dispatch-side query should inspect. *)
let skipped t p = (pstate t p : pstate).skipped

let next_kind t p = Program.next_kind (skipped t p)
let is_final t p = Program.is_done (skipped t p)
let final_value t p = Program.final_value (skipped t p)

(** Number of processes in a final state — [NbFinal(C)] in the paper,
    which gates return steps in the decoder. *)
let nb_final t =
  Array.fold_left
    (fun acc (st : pstate) -> if Program.is_done st.prog then acc + 1 else acc)
    0 t.procs

let all_final t = nb_final t = nprocs t

(** All processes final {e and} all write buffers drained: nothing can
    change memory any more. The model checker only treats quiescent
    states as terminal, since a final process's leftover buffered
    writes can still be committed by the system. *)
let quiescent t =
  (* single short-circuiting pass: on the hot path almost every state
     has a running process, and the loop bails at the first one *)
  let n = Array.length t.procs in
  let rec go p =
    p >= n
    ||
    let (st : pstate) = t.procs.(p) in
    Program.is_done st.prog && Wbuf.is_empty st.wb && go (p + 1)
  in
  go 0

(** Total pending writes currently overtaken, across all processes —
    the "reorderings in flight" the bounded engines compare against
    their budget [K]. A configuration with in-flight 0 is
    SC-consistent so far: every committed write landed before any
    later operation of its owner executed. Derived from the buffers'
    stored counts, O(nprocs); never a state-key component (bounded
    engines fold the underlying flag bitsets into their keys
    themselves, see {!Wbuf.overtaken_bits}). *)
let reorders_in_flight t =
  Array.fold_left (fun acc (st : pstate) -> acc + Wbuf.overtaken st.wb) 0 t.procs

(** [reorders_in_flight (apply t d)] from [n = reorders_in_flight t],
    in O(1): only the stepped process's buffer changes. *)
let reorders_after n t d =
  n - Wbuf.overtaken t.procs.(d.pid).wb + Wbuf.overtaken (next_wb t d)

let known_values (st : pstate) r = Known.values st.known r

(** Locality of a read of [r] by [p] (whose state is [st]) returning
    [v] from shared memory. The caller passes the pstate it already
    holds — the executor calls this once per read step. *)
let read_locality t p (st : pstate) r v =
  Step.locality
    ~dsm_local:(Layout.is_local t.layout p r)
    ~cc_local:(Known.mem st.known r v)

(** Locality of a commit to [r] by [p]: local on the CC side iff [p] was
    the last process to commit to [r]. *)
let commit_locality t p r =
  Step.locality
    ~dsm_local:(Layout.is_local t.layout p r)
    ~cc_local:(Pid.equal t.last_committer.(r) p)

let pp_mem ppf t =
  let first = ref true in
  Fmt.pf ppf "{";
  Mem.iter_bound
    (fun r v ->
      if not !first then Fmt.comma ppf ();
      first := false;
      Fmt.pf ppf "%a=%d" (Layout.pp_reg t.layout) r v)
    t.mem;
  Fmt.pf ppf "}"

let pp ppf t =
  Fmt.pf ppf "mem=%a@," pp_mem t;
  (match t.store with
  | Some s -> Fmt.pf ppf "store=%a@," Modlog.pp s
  | None -> ());
  Array.iteri
    (fun p (st : pstate) ->
      if not (View.is_empty st.view) then
        Fmt.pf ppf "p%a: view=%a rel=%a@," Pid.pp p View.pp st.view View.pp
          st.rel;
      Fmt.pf ppf "p%a: wb=%a %s@," Pid.pp p Wbuf.pp st.wb
        (match Program.next_kind st.prog with
        | Program.Op_done -> "final"
        | Op_return v -> Fmt.str "ret(%d)" v
        | Op_read -> "@read"
        | Op_write -> "@write"
        | Op_fence -> "@fence"
        | Op_cas -> "@cas"
        | Op_spin -> "@spin"))
    t.procs
