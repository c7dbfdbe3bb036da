(** The model-checking engine: work-stealing parallel exploration over
    [j] domains with optional partial-order reduction. It is the only
    engine; [`Parallel 1] runs in the calling domain in a deterministic
    depth-first claim order, and {!Memsim.Explore.reference} is the
    exact-key explorer it is audited against.

    Architecture:

    - each worker owns a Chase–Lev deque in the {!Frontier}: it walks
      its own frontier depth-first (bottom of the deque, plus the task
      in its hand) and steals from a sibling's top only when dry — no
      lock and no shared queue on the common path, which is what made
      the former injection-queue design scale negatively with domains;
    - states are deduplicated {e at creation}, and probed before they
      are built: an expansion steps each edge into its worker's one
      scratch delta ([Exec.step_into]), monitors its steps, settles
      the stepped process's labels and monitors their notes, keys the
      child from the delta ([Fingerprint.step]) and claims the key
      with {!Visited.add} (a lock-free racy probe of the shard's flat
      table, then a locked re-check and insert for the survivors).
      Only claim winners get a process state and a configuration
      ([Config.apply], the delta's one copy-out) and a task, so
      duplicate states — the majority, on lock workloads — allocate
      only their steps and never travel through the deques;
    - each task carries its fingerprint, updated in O(1) per edge;
    - with [por], each expansion first looks for a persistent-singleton
      safe step ({!Por}); finding one prunes every sibling
      interleaving;
    - verdict paths are just the recorded [Exec.elt] schedules; they
      replay deterministically regardless of domain count or visit
      order.

    Parity with [Explore.reference] ([`Parallel j], [por:false]): same
    states, transitions, deadlocks and verdict {e sets} on any run that
    completes within its bounds — both claim every distinct normalized
    state exactly once, expand each claimed state exactly once, and
    count one transition per successor element of each expanded state.
    Claiming at creation changes the {e discovery order} of violations
    relative to the reference's entry-time dedup (children are
    monitored before their subtrees are explored), so on runs with
    multiple violations the list may be ordered differently; the set is
    the same. Once a bound truncates the run, visit order determines
    which part of the graph was seen, so truncated runs agree only on
    the [truncated] flag.

    Hooks under parallelism: [monitor] must be a pure function (it is
    threaded through tasks on every domain); [check] must be pure;
    [on_final] and violation recording are serialized internally, so
    an [on_final] that mutates shared state needs no extra locking. *)

open Memsim

type engine = [ `Parallel of int ]

type 'm task = {
  cfg : Config.t;  (** normalized: labels flushed *)
  fp : Fingerprint.t;  (** [Fingerprint.of_config cfg], carried incrementally *)
  m : 'm;
  rev_path : Exec.elt list;  (** newest element first *)
  depth : int;
}

(* Tail-recursive rather than a fold: no closure or interim [Ok] is
   allocated on the per-edge path. *)
let rec monitor_steps monitor m = function
  | [] -> Ok m
  | s :: rest -> (
      match monitor m s with
      | Ok m -> monitor_steps monitor m rest
      | Error _ as e -> e)

(** A frontier-consistent cut of a running j=1 exploration, in plain
    data (no closures, no monitor values): everything a killed run
    needs to restart from where it was. [ck_keys] holds claim keys
    verbatim (budget-mixed under a bound — whatever the run was keying
    on) as {!Fingerprint.write} records: an emitted cut carries only
    the keys claimed since the run's previous cut, so a cut costs
    O(new claims + pending), and a resume takes the concatenation of
    every cut's keys up to the one resumed. [ck_pending] holds the
    {e paths} of the
    claimed-but-unexpanded tasks, in-hand task first and then the deque
    in pop order, so a resume reconstructs tasks by deterministic
    replay and continues in the exact exploration order of the
    uninterrupted run. Violations and deadlocks found so far
    travel as (message, path) / path — their monitor values are
    rebuilt by replay on resume. *)
type checkpoint = {
  ck_states : int;
  ck_transitions : int;
  ck_bound_hits : int;
  ck_pending : Exec.elt list list;
  ck_keys : Bytes.t;
  ck_violations : (string * Exec.elt list) list;
  ck_deadlocks : Exec.elt list list;
}

(* The keys a checkpointed run claimed since its last cut, as
   {!Fingerprint.write} records in [keys.[0 .. len-1]]. *)
type keylog = { mutable keys : Bytes.t; mutable len : int }

let log_key l key =
  if l.len = Bytes.length l.keys then begin
    let grown = Bytes.create (2 * l.len) in
    Bytes.blit l.keys 0 grown 0 l.len;
    l.keys <- grown
  end;
  Fingerprint.write l.keys l.len key;
  l.len <- l.len + Fingerprint.bytes

(* Hand the logged keys over to a cut and start the next one empty. *)
let take_keys l =
  let keys = Bytes.sub l.keys 0 l.len in
  l.len <- 0;
  keys

(* The one child path. Every child goes through it — an expansion's
   children, each process's label run at the root, each element of a
   replayed checkpoint path — so a resume cannot drift from the live
   run. [d] is the caller's scratch delta, just stepped; it is valid
   until the caller's next step into it, so the path settles it in
   place and [install] copies it out. In order: monitor the element's
   steps; settle the stepped process's labels (the parent is
   normalized, so only it can be poised at one) and monitor their
   notes; key the child from the delta; [claim] the key. Only a winner
   is built: [install] makes its task, and with it the configuration
   ([Config.apply]). Duplicates, the majority of children on lock
   workloads, build neither. A monitor rejection calls [reject] with
   the monitor value before the rejected steps and yields no child.
   Hooks are passed as static or per-run closures, so no closure is
   allocated per child. *)
let rec child ~monitor ~claim ~reject ~install (t : 'm task) elt
    (d : Config.delta) =
  match monitor_steps monitor t.m d.Config.steps with
  | Error message ->
      reject t elt t.m message;
      None
  | Ok m when not (Exec.unsettled d) -> claim_child ~claim ~install t elt m d
  | Ok m -> (
      let notes = Exec.settle t.cfg d in
      match monitor_steps monitor m notes with
      | Error message ->
          reject t elt m message;
          None
      | Ok m -> claim_child ~claim ~install t elt m d)

and claim_child ~claim ~install t elt m d =
  let fp = Fingerprint.step t.fp t.cfg d in
  if claim t.cfg d fp then Some (install t elt m d fp) else None

(* [install] for an edge: the child one element deeper. *)
let extended t elt m d fp =
  {
    cfg = Config.apply t.cfg d;
    fp;
    m;
    rev_path = elt :: t.rev_path;
    depth = t.depth + 1;
  }

(* [install] for the root's label settling: same path, same depth. *)
let normalized t _elt m d fp = { t with cfg = Config.apply t.cfg d; fp; m }

let claim_any (_ : Config.t) (_ : Config.delta) (_ : Fingerprint.t) = true

(* The root task: [cfg0] normalized process by process, each one's
   pending labels settled as a child of the partly normalized root (its
   no-op delta loaded into [d]). The element passed along is unused by
   [normalized]; a rejection reports it to [reject], which decides what
   a root violation records. *)
let root_task ~monitor ~reject ~init d cfg0 =
  let n = Config.nprocs cfg0 in
  let rec go p t =
    if p >= n then Some t
    else begin
      Config.idle d p (Config.pstate t.cfg p);
      match
        child ~monitor ~claim:claim_any ~reject ~install:normalized t
          cfg0.Config.op_elts.(p) d
      with
      | Some t -> go (p + 1) t
      | None -> None
    end
  in
  go 0
    {
      cfg = cfg0;
      fp = Fingerprint.of_config cfg0;
      m = init;
      rev_path = [];
      depth = 0;
    }

(** Rebuild the task a schedule-element path leads to through the
    child path (same label settling, same incremental fingerprints,
    same monitor threading) — checkpoint resume reconstructs pending
    tasks from their recorded paths. Raises [Invalid_argument] if the
    monitor rejects along the way: a checkpoint never stores a
    violating pending path, so that means the checkpoint does not
    belong to this workload. [d] is the caller's scratch delta. *)
let replay_task (type m)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m) d
    (cfg0 : Config.t) (path : Exec.elt list) : m task =
  let reject _ _ _ msg =
    Fmt.invalid_arg "Mc.replay_task: monitor rejects: %s" msg
  in
  let root = Option.get (root_task ~monitor ~reject ~init d cfg0) in
  List.fold_left
    (fun t elt ->
      Exec.step_into d t.cfg elt;
      Option.get
        (child ~monitor ~claim:claim_any ~reject ~install:extended t elt d))
    root path

let run_parallel (type m) ~tel ~jobs ~por ~report_visited ~max_states
    ~max_depth ~max_violations ~max_deadlocks
    ~(bound : int option) ~(on_boundary : (m task -> unit) option)
    ~(visited_in : Visited.t option) ~(seeds : m task list option)
    ~(checkpoint : (int * (checkpoint -> unit)) option)
    ~(resume : checkpoint option) ~(check : Config.t -> string option)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    ~(on_final : Config.t -> m -> unit) (cfg0 : Config.t) : m Explore.result =
  if jobs < 1 then Fmt.invalid_arg "Mc.run: `Parallel %d" jobs;
  (match checkpoint with
  | Some _ when jobs <> 1 ->
      (* a checkpoint is a frontier-consistent cut: at j=1 the cut is
         simply "in-hand task + own deque", exact and deterministic;
         with thieves in flight no such cut exists without stopping
         the world *)
      invalid_arg "Mc.run: ~checkpoint requires `Parallel 1"
  | Some (every, _) when every < 1 ->
      Fmt.invalid_arg "Mc.run: checkpoint interval %d" every
  | _ -> ());
  (match (resume, seeds) with
  | Some _, Some _ -> invalid_arg "Mc.run: ~resume and ~seeds are exclusive"
  | _ -> ());
  (match bound with
  | Some _ when Memory_model.view_based cfg0.Config.model ->
      (* the budget meters overtaken buffer entries, which view-based
         models don't have — reject rather than silently explore
         everything (DESIGN.md §6f) *)
      Fmt.invalid_arg
        "Mc.run: ~reorder_bound is not supported under %s (view-based models \
         have no write buffer to meter)"
        (Memory_model.to_string cfg0.Config.model)
  | Some k when k < 0 -> Fmt.invalid_arg "Mc.run: reorder_bound %d" k
  | _ -> ());
  (* Telemetry is always wired: with no hub supplied we bump a private
     one nobody reads. Counters are plain int adds on pre-allocated
     padded cells (Telemetry.Cells), so the disabled case costs a few
     nanoseconds per expansion — the zero-cost-when-off discipline
     DESIGN.md §6d pins with the bench-smoke throughput guard. *)
  let tel =
    match tel with
    | Some h ->
        if Telemetry.Hub.workers h < jobs then
          Fmt.invalid_arg
            "Mc.run: telemetry hub has %d worker slots, `Parallel %d needs %d"
            (Telemetry.Hub.workers h) jobs jobs;
        h
    | None -> Telemetry.Hub.create ~workers:jobs ()
  in
  let c_expand = Telemetry.Hub.counter tel "expansions" in
  let c_children = Telemetry.Hub.counter tel "children" in
  let c_dedup = Telemetry.Hub.counter tel "dedup_hits" in
  let c_por = Telemetry.Hub.counter tel "por_prunes" in
  let c_bound = Telemetry.Hub.counter tel "bound_hits" in
  (* [visited_in] lets the deepening driver resume a bounded run with
     the previous levels' claims intact — keys carry the budget term,
     so they stay valid across levels. *)
  let visited =
    match visited_in with
    | Some v -> v
    | None -> Visited.create ()
  in
  (* A resume restarts mid-run: counters continue from the cut (so
     caps and final totals match the uninterrupted run), the visited
     set gets the recorded claims back verbatim, and the recorded
     verdicts are reconstructed below. *)
  (match resume with
  | None -> ()
  | Some c ->
      let n = Bytes.length c.ck_keys in
      if n mod Fingerprint.bytes <> 0 then
        Fmt.invalid_arg "Mc.run: resume keys of %d bytes" n;
      for i = 0 to (n / Fingerprint.bytes) - 1 do
        ignore
          (Visited.add visited (Fingerprint.read c.ck_keys (i * Fingerprint.bytes)))
      done);
  (* A checkpointed run logs every key it newly claims — the root, each
     winner, and a new key past the cap that stays in the set uncounted
     — so a cut hands over only the claims since the previous one.
     Restored keys are not logged again; without a checkpoint there is
     no log. *)
  let log =
    Option.map
      (fun _ -> { keys = Bytes.create (1024 * Fingerprint.bytes); len = 0 })
      checkpoint
  in
  let frontier : m task Frontier.t = Frontier.create ~workers:jobs in
  (* One scratch delta per worker: every child is stepped into its
     worker's delta, which the next step overwrites. Set-up (root,
     resume replay) runs before the workers start and uses worker 0's.
     A spawned worker allocates its own on its domain, so no two
     workers' deltas share a cache line. *)
  let scratch = Array.make jobs (Config.scratch ()) in
  let states =
    Atomic.make (match resume with Some c -> c.ck_states | None -> 0)
  and transitions =
    Atomic.make (match resume with Some c -> c.ck_transitions | None -> 0)
  in
  let truncated = Atomic.make false in
  let bound_hits =
    Atomic.make (match resume with Some c -> c.ck_bound_hits | None -> 0)
  in
  let note_boundary =
    match on_boundary with None -> fun (_ : m task) -> () | Some f -> f
  in
  (* Live gauges: polled by the sampler domain, never by workers. All
     reads are racy-safe (atomics, plain shard counts). *)
  List.iter
    (fun (name, cells) -> Telemetry.Hub.attach tel name cells)
    (Frontier.counters frontier);
  Telemetry.Hub.gauge tel "states" (fun () ->
      float_of_int (Atomic.get states));
  Telemetry.Hub.gauge tel "transitions" (fun () ->
      float_of_int (Atomic.get transitions));
  Telemetry.Hub.gauge tel "frontier" (fun () ->
      float_of_int (Frontier.pending frontier));
  Telemetry.Hub.gauge tel "visited" (fun () ->
      float_of_int (Visited.approx_size visited));
  Telemetry.Hub.gauge tel "visited_skew" (fun () ->
      (Visited.approx_stats visited).Visited.skew);
  Telemetry.Hub.gauge tel "visited_bytes" (fun () ->
      float_of_int (Visited.approx_stats visited).Visited.bytes);
  (* one mutex serializes the mutating hooks and verdict stores; they
     fire far less often than states are expanded *)
  let sync = Mutex.create () in
  (* Reconstruct recorded verdicts: the checkpoint carries plain
     (message, path) pairs; the monitor value at failure time is the
     state just before the violating element, rebuilt by replay. *)
  let restored_violations =
    match resume with
    | None -> []
    | Some c ->
        List.map
          (fun (message, path) ->
            let m =
              match path with
              | [] -> init
              | _ ->
                  let n = List.length path - 1 in
                  let prefix = List.filteri (fun i _ -> i < n) path in
                  (replay_task ~monitor ~init scratch.(0) cfg0 prefix).m
            in
            { Explore.message; path; monitor = m })
          c.ck_violations
  in
  let violations = ref restored_violations
  and nviolations = Atomic.make (List.length restored_violations) in
  let deadlocks =
    ref (match resume with Some c -> c.ck_deadlocks | None -> [])
  in
  let ndeadlocks = ref (List.length !deadlocks) in
  let worker_exn = Atomic.make None in
  let record_violation v =
    Mutex.lock sync;
    if Atomic.get nviolations < max_violations then begin
      Atomic.incr nviolations;
      violations := !violations @ [ v ]
    end;
    Mutex.unlock sync
  in
  let record_deadlock path =
    Mutex.lock sync;
    if !ndeadlocks < max_deadlocks then begin
      incr ndeadlocks;
      deadlocks := path :: !deadlocks
    end;
    Mutex.unlock sync
  in
  (* Bounded runs key a child on its fingerprint mixed with its budget
     term — the flag bitsets are part of the bounded state: two paths
     to the same semantic state with different reorderings in flight
     have different admissible futures. Flag-free states mix the zero
     term, keeping their plain keys. An expansion stores its parent's
     term in its worker's slot, so a child's term is an O(1) update. *)
  let parent_budget = Array.make jobs { Fingerprint.a = 0; b = 0 } in
  (* Per-worker claim hooks, built once: claim the child's key, count
     the winner or the duplicate. The state cap is enforced here, not
     only when an expansion starts, so one last expansion cannot claim
     past it: a capped run ends at exactly [max_states] states at any
     j. The count is taken only for a new key, so duplicates never
     touch the shared counter; a new key past the cap stays in the
     visited set uncounted and unexpanded — the run is truncated. *)
  let claims =
    Array.init jobs (fun w ->
        let claim cfg d fp =
          let key =
            match bound with
            | None -> fp
            | Some _ ->
                Fingerprint.mix fp
                  (Fingerprint.budget_step parent_budget.(w) cfg d)
          in
          if Visited.add visited key then begin
            (match log with Some l -> log_key l key | None -> ());
            if Atomic.fetch_and_add states 1 < max_states then true
            else begin
              Atomic.decr states;
              Atomic.set truncated true;
              false
            end
          end
          else begin
            Telemetry.Cells.incr c_dedup ~worker:w;
            false
          end
        in
        claim)
  in
  let reject (t : m task) elt m message =
    record_violation
      { Explore.message; path = List.rev (elt :: t.rev_path); monitor = m }
  in
  (* Bounded admissibility of an edge, judged on its successor: more
     reorderings in flight than the budget excludes the edge from the
     bounded transition system. [in_flight] is the parent's count. *)
  let admissible cfg in_flight d =
    match bound with
    | None -> true
    | Some k -> Config.reorders_after in_flight cfg d <= k
  in
  (* The claim winners among [elts], first child first: each element
     is stepped into the worker's delta [d] and, when [admit] lets it
     through (an unbounded run admits all; a bounded one counts what
     it refuses), sent straight down the child path. *)
  let rec claim_elts claim d admit t = function
    | [] -> []
    | elt :: rest -> (
        Exec.step_into d t.cfg elt;
        if not (admit d) then claim_elts claim d admit t rest
        else
          match child ~monitor ~claim ~reject ~install:extended t elt d with
          | Some c -> c :: claim_elts claim d admit t rest
          | None -> claim_elts claim d admit t rest)
  in
  let admit_all (_ : Config.delta) = true in
  (* POR's safe step: the first candidate whose step, probed into [d],
     is invisible and admissible — [d] then holds it. A failed probe is
     not kept: the full expansion steps that element again. *)
  let rec ample cfg d in_flight = function
    | [] -> None
    | p :: ps ->
        let e = cfg.Config.op_elts.(p) in
        Exec.step_into d cfg e;
        (* the budget-aware filter already vouches for the candidate's
           admissibility; the successor check stays as defense in
           depth — an over-budget ample candidate cannot stand for its
           siblings and falls back to the full (filtered) expansion,
           where it is pruned like any other inadmissible edge *)
        if Por.invisible_after d && admissible cfg in_flight d then Some e
        else ample cfg d in_flight ps
  in
  (* one atomic add per expansion, not one per edge *)
  let count_edges w n =
    ignore (Atomic.fetch_and_add transitions n);
    Telemetry.Cells.add c_children ~worker:w n
  in
  let record_bound_hits w t n =
    if n > 0 then begin
      ignore (Atomic.fetch_and_add bound_hits n);
      Telemetry.Cells.add c_bound ~worker:w n;
      (* a pruned edge makes this a boundary state: the deepening
         driver re-seeds it at the next level, where already-admitted
         children dedup away and the newly admitted ones get claimed *)
      note_boundary t
    end
  in
  (* Expand one claimed, normalized task: fire its hooks, then send
     each chosen edge down the child path. Returns the claim winners in
     exploration order (first child first); only they become tasks.
     Mirrors Explore.reference edge for edge — the same elements are
     executed, the same steps and notes monitored (violations on
     duplicate paths are real verdicts), each distinct normalized state
     claimed once — with dedup moved from child entry to child
     creation. *)
  let expand w (t : m task) : m task list =
    if
      Atomic.get states >= max_states
      || Atomic.get nviolations >= max_violations
    then begin
      Atomic.set truncated true;
      Frontier.stop frontier;
      []
    end
    else begin
      Telemetry.Cells.incr c_expand ~worker:w;
      let cfg = t.cfg in
      (match check cfg with
      | Some message ->
          record_violation
            { Explore.message; path = List.rev t.rev_path; monitor = t.m }
      | None -> ());
      if Config.quiescent cfg then begin
        Mutex.lock sync;
        (try on_final cfg t.m
         with e ->
           Mutex.unlock sync;
           raise e);
        Mutex.unlock sync;
        []
      end
      else if t.depth >= max_depth then begin
        Atomic.set truncated true;
        []
      end
      else begin
        let elts = Explore.successor_elts cfg in
        if elts = [] then begin
          record_deadlock (List.rev t.rev_path);
          []
        end
        else begin
          let claim = claims.(w) and d = scratch.(w) in
          match (por, bound) with
          | false, None ->
              count_edges w (List.length elts);
              claim_elts claim d admit_all t elts
          | _ ->
              (* step, admit, claim — element by element: an over-budget
                 edge is excluded from the bounded transition system,
                 never counted as a transition, never monitored *)
              let in_flight =
                match bound with
                | None -> 0
                | Some _ ->
                    parent_budget.(w) <- Fingerprint.budget_term cfg;
                    Config.reorders_in_flight cfg
              in
              let nbound = ref 0 in
              let admit d =
                admissible cfg in_flight d
                || begin
                     incr nbound;
                     false
                   end
              in
              let children, n =
                match
                  if por then
                    ample cfg d in_flight (Por.ample_candidates ?bound cfg)
                  else None
                with
                | Some e ->
                    (* an ample step prunes every sibling interleaving *)
                    ( Option.to_list
                        (child ~monitor ~claim ~reject ~install:extended t e d),
                      1 )
                | None ->
                    let children = claim_elts claim d admit t elts in
                    (children, List.length elts - !nbound)
              in
              record_bound_hits w t !nbound;
              count_edges w n;
              (* bound-pruned edges are not POR prunes *)
              if por then
                Telemetry.Cells.add c_por ~worker:w
                  (List.length elts - n - !nbound);
              children
        end
      end
    end
  in
  (* Worker [w]: depth-first with the next task "in hand" — the first
     child continues immediately, the siblings go to the bottom of our
     own deque (in reverse, so the earliest sibling is popped back
     first and one domain walks the graph in depth-first claim order).
     Thieves steal shallow tasks from the top on their own; no
     explicit sharing heuristic is needed. Children are registered
     before their parent completes, so [pending] reaches zero only
     when the whole graph is drained. *)
  (* Checkpoint emission (j=1 only, enforced above): fires at drive
     entry, where the cut is exact — [t] is in hand and not yet
     expanded, everything else pending sits in our own deque, and all
     other registered tasks have completed. Interval is measured in
     claimed states since the last emission. *)
  let emit_checkpoint =
    match (checkpoint, log) with
    | None, _ | _, None -> fun (_ : m task) -> ()
    | Some (every, emit), Some log ->
        let last = ref (match resume with Some c -> c.ck_states | None -> 0) in
        fun (t : m task) ->
          let s = Atomic.get states in
          if s - !last >= every then begin
            last := s;
            let pending = t :: Frontier.snapshot frontier ~worker:0 in
            emit
              {
                ck_states = s;
                ck_transitions = Atomic.get transitions;
                ck_bound_hits = Atomic.get bound_hits;
                ck_pending =
                  List.map (fun (t : m task) -> List.rev t.rev_path) pending;
                ck_keys = take_keys log;
                ck_violations =
                  List.map
                    (fun (v : m Explore.violation) ->
                      (v.Explore.message, v.Explore.path))
                    !violations;
                ck_deadlocks = !deadlocks;
              }
          end
  in
  let rec drive w (t : m task) =
    emit_checkpoint t;
    let children = expand w t in
    match children with
    | [] ->
        Frontier.complete frontier;
        seek w
    | c :: rest ->
        Frontier.register frontier (1 + List.length rest);
        if rest <> [] then Frontier.inject frontier ~worker:w (List.rev rest);
        Frontier.complete frontier;
        drive w c
  and seek w =
    match Frontier.next frontier ~worker:w with
    | Some t -> drive w t
    | None -> ()
  in
  let guarded_worker w () =
    if w > 0 then scratch.(w) <- Config.scratch ();
    try seek w
    with e ->
      (* fail loudly but never leave sibling domains blocked *)
      ignore (Atomic.compare_and_set worker_exn None (Some e));
      Frontier.stop frontier
  in
  (* The root is normalized, monitored and claimed like any other
     state (Explore.reference treats its initial entry identically).
     With [seeds] (a deepening resume) the root was claimed at level 0
     — the seeds are already-claimed boundary tasks to re-expand. *)
  let tasks =
    match (seeds, resume) with
    | Some tasks, _ -> tasks
    | None, Some c ->
        (* the recorded pending tasks, rebuilt by deterministic replay
           in the recorded (pop) order — already claimed, so they are
           re-expanded like deepening seeds, not re-counted *)
        List.map (replay_task ~monitor ~init scratch.(0) cfg0) c.ck_pending
    | None, None -> (
        let reject _ _ _ message =
          record_violation { Explore.message; path = []; monitor = init }
        in
        match root_task ~monitor ~reject ~init scratch.(0) cfg0 with
        | None -> []
        | Some t ->
            let key =
              match bound with
              | None -> t.fp
              | Some _ -> Fingerprint.mix t.fp (Fingerprint.budget_term t.cfg)
            in
            ignore (Visited.add visited key);
            (match log with Some l -> log_key l key | None -> ());
            Atomic.incr states;
            [ t ])
  in
  (match tasks with
  | [] -> ()
  | first :: rest ->
      Frontier.register frontier (1 + List.length rest);
      if jobs = 1 then (
        (* run in the calling domain: deterministic depth-first claim
           order — extra seeds go to our own deque, reversed so the
           earliest is popped back first *)
        if rest <> [] then Frontier.inject frontier ~worker:0 (List.rev rest);
        try drive 0 first
        with e ->
          Frontier.stop frontier;
          raise e)
      else begin
        (* Minor collections are stop-the-world across domains, and
           with more domains than cores the rendezvous inherits
           scheduling latency; a larger minor heap makes collections
           rarer, which is where oversubscribed runs lose most of
           their time. Scoped to the parallel section — restored
           before returning so sequential callers keep the default
           locality-friendly nursery. *)
        let gc = Gc.get () in
        Gc.set
          {
            gc with
            Gc.minor_heap_size = max gc.Gc.minor_heap_size (4 * 1024 * 1024);
          };
        let finally () = Gc.set gc in
        Fun.protect ~finally (fun () ->
            if rest <> [] then
              Frontier.inject frontier ~worker:0 (List.rev rest);
            Frontier.push frontier ~worker:0 first;
            let domains =
              Array.init (jobs - 1) (fun i ->
                  Domain.spawn (guarded_worker (i + 1)))
            in
            guarded_worker 0 ();
            Array.iter Domain.join domains);
        match Atomic.get worker_exn with Some e -> raise e | None -> ()
      end);
  Option.iter (fun f -> f (Visited.stats visited)) report_visited;
  {
    Explore.stats =
      {
        Explore.states = Atomic.get states;
        transitions = Atomic.get transitions;
        truncated = Atomic.get truncated;
        bound_hits = Atomic.get bound_hits;
      };
    violations = !violations;
    deadlocks = !deadlocks;
  }

let run (type m) ?tel ?(engine : engine = `Parallel 1) ?(por = false)
    ?report_visited ?(max_states = 1_000_000)
    ?(max_depth = 100_000) ?(max_violations = 3) ?(max_deadlocks = max_int)
    ?reorder_bound ?checkpoint ?resume ?(check = fun (_ : Config.t) -> None)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    ?(on_final = fun (_ : Config.t) (_ : m) -> ()) (cfg0 : Config.t) :
    m Explore.result =
  let (`Parallel jobs) = engine in
  run_parallel ~tel ~jobs ~por ~report_visited ~max_states
    ~max_depth ~max_violations ~max_deadlocks ~bound:reorder_bound
    ~on_boundary:None ~visited_in:None ~seeds:None ~checkpoint ~resume ~check
    ~monitor ~init ~on_final cfg0

(** Exploration without a monitor: just reachability. *)
let run_plain ?tel ?engine ?por ?max_states ?max_depth
    ?max_deadlocks ?reorder_bound ?on_final cfg =
  let on_final = Option.map (fun f cfg (_ : unit) -> f cfg) on_final in
  run ?tel ?engine ?por ?max_states ?max_depth
    ?max_deadlocks ?reorder_bound
    ~monitor:(fun () _ -> Ok ())
    ~init:() ?on_final cfg

(** Reachable quiescent-state projections under [observe], sorted, plus
    the exploration result; [on_final] mutation is serialized by the
    engine. *)
let reachable_outcomes ?tel ?engine ?por ?max_states ?max_depth ?reorder_bound
    ~observe cfg =
  let outcomes = Hashtbl.create 16 in
  let result =
    run_plain ?tel ?engine ?por ?max_states ?max_depth ?reorder_bound
      ~on_final:(fun final -> Hashtbl.replace outcomes (observe final) ())
      cfg
  in
  let all = Hashtbl.fold (fun k () acc -> k :: acc) outcomes [] in
  (List.sort compare all, result)

(* ------------------------------------------------------------------ *)
(* Iterative deepening over the reorder bound.                         *)

type deepen_level = {
  bound : int;
  states : int;  (** newly claimed at this level *)
  transitions : int;
  bound_hits : int;
  violations : int;
}

type 'm deepen_result = {
  result : 'm Explore.result;
      (** cumulative states/transitions/bound_hits across levels;
          violations and truncation from the level that ended the
          search *)
  final_bound : int;
  saturated : bool;
      (** the last level recorded zero bound hits on a complete run —
          the explored union equals the unbounded reachable set and
          the verdict is exact *)
  levels : deepen_level list;  (** in ascending bound order *)
}

(** Iterative deepening: explore at [bound_from], and while the run is
    violation-free, complete, and recorded bound hits, widen the bound
    by [bound_step] and resume — sharing the visited set (keys carry
    the budget term, so claims stay valid) and re-expanding only the
    {e boundary} tasks, the states that had at least one edge pruned.
    Already-admitted children dedup away; newly admitted ones get
    claimed and explored. Stops at the first level with a violation,
    at saturation (zero bound hits — verdict exact), at truncation, or
    at [max_bound].

    Per-level [states] counts newly claimed states only, so the sum
    over levels equals the cumulative count; [transitions] may double-
    count edges re-executed while re-expanding boundary tasks. *)
let deepen (type m) ?tel ?(jobs = 1) ?(por = false) ?report_visited
    ?(max_states = 1_000_000) ?(max_depth = 100_000) ?(max_violations = 3)
    ?(max_deadlocks = max_int) ?(bound_from = 0) ?(bound_step = 1)
    ?(max_bound = 62)
    ?(check = fun (_ : Config.t) -> None)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    ?(on_final = fun (_ : Config.t) (_ : m) -> ()) (cfg0 : Config.t) :
    m deepen_result =
  if bound_from < 0 || bound_step < 1 || max_bound < bound_from then
    Fmt.invalid_arg "Mc.deepen: bound_from %d, bound_step %d, max_bound %d"
      bound_from bound_step max_bound;
  if Memory_model.view_based cfg0.Config.model then
    Fmt.invalid_arg
      "Mc.deepen: iterative deepening is reorder-bounded exploration, which \
       is not supported under %s (view-based models have no write buffer to \
       meter)"
      (Memory_model.to_string cfg0.Config.model);
  let visited = Visited.create () in
  let cum_states = ref 0 and cum_transitions = ref 0 in
  let cum_hits = ref 0 in
  let cum_deadlocks = ref [] in
  let levels = ref [] in
  let rec go k seeds =
    (* boundary collection: called from worker domains, so locked *)
    let bmutex = Mutex.create () in
    let boundary = ref [] in
    let on_boundary t =
      Mutex.lock bmutex;
      boundary := t :: !boundary;
      Mutex.unlock bmutex
    in
    let r =
      run_parallel ~tel ~jobs ~por ~report_visited:None
        ~max_states:(max_states - !cum_states) ~max_depth ~max_violations
        ~max_deadlocks ~bound:(Some k)
        ~on_boundary:(Some on_boundary) ~visited_in:(Some visited) ~seeds
        ~checkpoint:None ~resume:None ~check ~monitor ~init ~on_final cfg0
    in
    cum_states := !cum_states + r.Explore.stats.Explore.states;
    cum_transitions := !cum_transitions + r.Explore.stats.Explore.transitions;
    cum_hits := !cum_hits + r.Explore.stats.Explore.bound_hits;
    cum_deadlocks := r.Explore.deadlocks @ !cum_deadlocks;
    levels :=
      {
        bound = k;
        states = r.Explore.stats.Explore.states;
        transitions = r.Explore.stats.Explore.transitions;
        bound_hits = r.Explore.stats.Explore.bound_hits;
        violations = List.length r.Explore.violations;
      }
      :: !levels;
    let finish ~saturated =
      Option.iter (fun f -> f (Visited.stats visited)) report_visited;
      {
        result =
          {
            Explore.stats =
              {
                Explore.states = !cum_states;
                transitions = !cum_transitions;
                truncated = r.Explore.stats.Explore.truncated;
                bound_hits = !cum_hits;
              };
            violations = r.Explore.violations;
            deadlocks = !cum_deadlocks;
          };
        final_bound = k;
        saturated;
        levels = List.rev !levels;
      }
    in
    if r.Explore.violations <> [] then finish ~saturated:false
    else if r.Explore.stats.Explore.truncated then finish ~saturated:false
    else if r.Explore.stats.Explore.bound_hits = 0 then finish ~saturated:true
    else if k >= max_bound then finish ~saturated:false
    else
      (* Deterministic resume at any [jobs]: the mutex-guarded
         collection order is racy under work stealing, so seed the
         next level in sorted bounded-key order. Tasks noted at one
         level carry distinct bounded keys (the claim key: the
         fingerprint mixed with the budget term), so the order is
         total and discovery-independent — level records become
         reproducible across [--jobs] (pinned by the j∈{1,4}
         byte-identity test). At jobs = 1 the sort is a permutation of
         the already-deterministic prune order, changing counts not at
         all (the explored closure per level is order-independent). *)
      let bounded_key (t : m task) =
        Fingerprint.mix t.fp (Fingerprint.budget_term t.cfg)
      in
      let seeds =
        List.sort
          (fun a b -> Fingerprint.compare (bounded_key a) (bounded_key b))
          !boundary
      in
      go (min max_bound (k + bound_step)) (Some seeds)
  in
  go bound_from None

(** Deepening counterpart of {!reachable_outcomes}: the outcome set is
    accumulated across levels (each level adds its newly reached
    quiescent states). *)
let deepen_outcomes ?tel ?jobs ?por ?max_states ?max_depth ?bound_from
    ?bound_step ?max_bound ~observe cfg =
  let outcomes = Hashtbl.create 16 in
  let d =
    deepen ?tel ?jobs ?por ?max_states ?max_depth ?bound_from ?bound_step
      ?max_bound
      ~monitor:(fun () _ -> Ok ())
      ~init:()
      ~on_final:(fun final () -> Hashtbl.replace outcomes (observe final) ())
      cfg
  in
  let all = Hashtbl.fold (fun k () acc -> k :: acc) outcomes [] in
  (List.sort compare all, d)
