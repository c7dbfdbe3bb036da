(** Correctness oracles: one [Mc.run] per candidate mask, returning a
    verdict with enough structure for the pruner — a reproducing
    schedule when the candidate fails, and the {e relevant} site set
    extracted from its replay.

    Two problem builders share the vocabulary:

    - {!lock_problem}: a lock family (base factory + site census). A
      mask is correct when {!Verify.Mutex_check} reports mutual
      exclusion, deadlock-freedom and no lost update for the
      mask-instantiated variant.
    - {!litmus_problem}: a litmus test. The {e spec} is the test's own
      reachable outcome set under the model (the full placement); a
      mask is correct when the masked program's outcomes stay inside
      it — weakening can only {e add} outcomes, so the full mask
      passes by construction and correctness is upward-closed.

    {b Relevant sites.} The oracle instruments every site — kept or
    dropped — with the zero-cost marker label [synth#i] placed at the
    fence position. Replaying a counterexample and tracking each
    process's pending (written-but-uncommitted) buffer occupancy
    classifies the crossings: a site crossed only while its process's
    buffer is {e empty} is one where inserting a fence is a pure
    stutter step (the executor's fence asserts an empty buffer and
    only resets the spin gate, which can never disable a scheduled
    step), so the same violating schedule survives the insertion. The
    relevant set [R] is the complement — sites some crossing of which
    saw a non-empty buffer. The pruning rule this licenses: if mask
    [M] fails with relevant set [R], any candidate [M'] with
    [(M' \ M) ∩ R = ∅] also fails, because [M ∪ M'] inherits [M]'s
    counterexample by stutter-insertion and [M' ⊆ M ∪ M'] fails by
    upward closure. Verdicts without a schedule (lost updates) carry
    no relevant set and prune by closure only. *)

open Memsim

type verdict = {
  ok : bool;
  states : int;  (** states the oracle explored — its work, for stats *)
  relevant : Sites.mask option;
      (** [Some r] when the candidate failed with a replayable
          counterexample: the sites whose crossings can carry the
          failure (see header); [None] = no localization, closure
          pruning only *)
}

type cost = {
  fences : int;  (** worst process, one passage / one run *)
  rmr : int;  (** combined-rule RMRs (the paper's r) *)
  rmr_dsm : int;
  rmr_cc : int;
  product : float;  (** f·(log2(r/f)+1), Equation (1) *)
}

type problem = {
  name : string;
  model : Memory_model.t;
  nprocs : int;
  nsites : int;
  site_names : string array;
  check : Sites.mask -> verdict;  (** pure; called from worker domains *)
  cost : Sites.mask -> cost;  (** measured cost of a correct mask *)
}

(* ------------------------------------------------------------------ *)
(* Relevance extraction                                                *)
(* ------------------------------------------------------------------ *)

(** Fold a replayed counterexample trace into the relevant-site set:
    marker crossings while the crossing process has pending
    (written-but-uncommitted) writes. Pending occupancy is tracked
    from the trace itself — writes buffer (+1), commits drain (−1);
    strong operations commit directly and never pend. *)
let relevant_of_trace ~nprocs (steps : Step.t list) : Sites.mask =
  let pending = Array.make nprocs 0 in
  List.fold_left
    (fun acc (s : Step.t) ->
      match s with
      | Step.Write { p; _ } ->
          pending.(p) <- pending.(p) + 1;
          acc
      | Step.Commit { p; _ } ->
          pending.(p) <- pending.(p) - 1;
          acc
      | Step.Note { p; text } -> (
          match Sites.site_of_marker text with
          | Some i when pending.(p) > 0 -> Sites.add acc i
          | _ -> acc)
      | _ -> acc)
    Sites.empty steps

(* ------------------------------------------------------------------ *)
(* Cost measurement                                                    *)
(* ------------------------------------------------------------------ *)

(* Uncontended sequential run with inter-process buffer drains: each
   process runs to completion alone (pid order, cumulative state), then
   its leftover buffered writes are force-committed before the next
   process starts. [Scheduler.sequential] has no drain step — it never
   needed one, because fully fenced programs leave empty buffers — but
   a synthesized placement may legitimately drop a trailing (e.g.
   release) fence, and the next process can wait on the undrained
   write. The system commits eventually under the model's liveness
   assumption, so draining is the faithful uncontended regime; the
   commits are charged to the writing process, exactly as a kept fence
   would have charged them. *)
let sequential_drained ~model cfg : Config.t =
  let nprocs = Config.nprocs cfg in
  let rec drain cfg p =
    match Memory_model.commit_candidates model (Config.wbuf cfg p) with
    | [] -> cfg
    | r :: _ ->
        let _, cfg = Exec.exec_elt cfg (p, Some r) in
        drain cfg p
  in
  let rec go p cfg =
    if p >= nprocs then cfg
    else
      match Exec.run_solo cfg p with
      | None ->
          raise
            (Scheduler.Stuck
               (cfg, Fmt.str "process %d does not terminate solo" p))
      | Some (_, cfg) -> go (p + 1) (drain cfg p)
  in
  go 0 cfg

let worst_cost ~nprocs final : cost =
  let worst =
    List.fold_left
      (fun acc p ->
        let c = Metrics.of_pid (Config.metrics final) p in
        {
          acc with
          fences = max acc.fences c.Metrics.fences;
          rmr = max acc.rmr c.Metrics.rmr;
          rmr_dsm = max acc.rmr_dsm c.Metrics.rmr_dsm;
          rmr_cc = max acc.rmr_cc c.Metrics.rmr_cc;
        })
      { fences = 0; rmr = 0; rmr_dsm = 0; rmr_cc = 0; product = 0. }
      (List.init nprocs Fun.id)
  in
  {
    worst with
    product = Fencelab.Tradeoff.product ~fences:worst.fences ~rmrs:worst.rmr;
  }

(* ------------------------------------------------------------------ *)
(* Lock problems                                                       *)
(* ------------------------------------------------------------------ *)

(** A lock family: a fully fenced base factory plus its site census.
    Site numbering follows [Locks.Lock.with_fence_mask]: acquire
    fences first (program order), then release fences. *)
type family = {
  family_name : string;
  base : Locks.Lock.factory;
  acquire_sites : int;
  release_sites : int;
  site_names : string array;
}

let masked_factory ?marker (fam : family) mask : Locks.Lock.factory =
 fun builder ~nprocs ->
  let lock = fam.base builder ~nprocs in
  Locks.Lock.with_fence_mask ?marker ~keep:(Sites.mem mask)
    ~acquire_sites:fam.acquire_sites lock

let lock_problem ?(rounds = 1) ?(max_states = 400_000) ?(prefilter = Some 2)
    ~model (fam : family) ~nprocs : problem =
  let nsites = fam.acquire_sites + fam.release_sites in
  Sites.check_nsites nsites;
  (* View-based models: no write buffer, so the reorder-bounded
     prefilter is rejected by the engine, and the stutter-insertion
     argument behind relevance (a fence over an empty buffer is a
     no-op) does not hold — an RA/SRA fence acquires from the global
     fence view even when nothing is pending. Fall back to unbounded
     checks and closure-only pruning. *)
  let view = Memory_model.view_based model in
  let prefilter = if view then None else prefilter in
  let check mask =
    let factory = masked_factory ~marker:Sites.marker fam mask in
    (* Reorder-bounded prefilter: most wrong placements already fail
       within a tiny budget (bounded violations are real executions, so
       refutation is sound), and sparse placements often {e saturate}
       the bound — zero hits certifies the bounded verdict exact, so
       the full check is skipped either way. Only a clean-but-inexact
       bounded pass pays for the unbounded run; its states are added so
       [verdict.states] stays an honest work measure. *)
    let prefilter_states, v =
      match prefilter with
      | None ->
          (0, Verify.Mutex_check.check ~rounds ~max_states ~model factory ~nprocs)
      | Some k ->
          let bv =
            Verify.Mutex_check.check ~rounds ~max_states ~reorder_bound:(`K k)
              ~model factory ~nprocs
          in
          if (not bv.Verify.Mutex_check.holds) || bv.Verify.Mutex_check.bound_exact
          then (0, bv)
          else
            ( bv.Verify.Mutex_check.stats.Explore.states,
              Verify.Mutex_check.check ~rounds ~max_states ~model factory
                ~nprocs )
    in
    let states = prefilter_states + v.Verify.Mutex_check.stats.Explore.states in
    if v.Verify.Mutex_check.holds then { ok = true; states; relevant = None }
    else
      let path =
        match
          (v.Verify.Mutex_check.me_violation, v.Verify.Mutex_check.deadlock)
        with
        | Some p, _ -> Some p
        | None, Some p -> Some p
        | None, None -> None (* lost update: verdict without a schedule *)
      in
      (* a bounded counterexample is an ordinary schedule — replay is
         oblivious to how it was found *)
      let relevant =
        if view then None
        else
          Option.map
            (fun p ->
              let trace, _ =
                Verify.Mutex_check.replay ~model factory ~nprocs ~rounds p
              in
              relevant_of_trace ~nprocs trace)
            path
      in
      { ok = false; states; relevant }
  in
  let cost mask =
    (* the uncontended per-passage regime of Experiment.passage_cost,
       with leftover-buffer drains for fenceless trailing writes *)
    let builder = Layout.Builder.create ~nprocs in
    let lock = masked_factory fam mask builder ~nprocs in
    let layout = Layout.Builder.freeze builder in
    let programs =
      Array.init nprocs (fun p -> Locks.Lock.passages lock p ~rounds:1)
    in
    let final = sequential_drained ~model (Config.make ~model ~layout programs) in
    worst_cost ~nprocs final
  in
  {
    name = fam.family_name;
    model;
    nprocs;
    nsites;
    site_names = fam.site_names;
    check;
    cost;
  }

(* ------------------------------------------------------------------ *)
(* Litmus problems                                                     *)
(* ------------------------------------------------------------------ *)

let litmus_problem ?(max_states = 400_000) ?(prefilter = Some 2) ~model
    (test : Litmus.Test.t) : problem =
  (* same gate as [lock_problem]: no reorder-bounded prefilter and no
     occupancy-based relevance under the view-based models *)
  let view = Memory_model.view_based model in
  let prefilter = if view then None else prefilter in
  let counts = Litmus.Test.fence_sites test in
  let nsites = Array.fold_left ( + ) 0 counts in
  Sites.check_nsites nsites;
  let nprocs = Array.length counts in
  let site_names =
    (* global numbering = per-process prefix-sum blocks *)
    let names = Array.make nsites "" in
    let site = ref 0 in
    Array.iteri
      (fun p c ->
        for k = 0 to c - 1 do
          names.(!site) <- Fmt.str "P%d.f%d" p k;
          incr site
        done)
      counts;
    names
  in
  (* The spec: the test's own reachable outcomes under this model. *)
  let spec = (Litmus.Test.run ~max_states test ~model).Litmus.Test.outcomes in
  let masked mask =
    Litmus.Test.with_fence_mask ~marker:Sites.marker ~keep:(Sites.mem mask)
      test
  in
  let check mask =
    let t = masked mask in
    let regs, cfg = Litmus.Test.configure t ~model in
    let run_with ?reorder_bound () =
      Mc.run ~max_states ~max_violations:1 ?reorder_bound
        ~check:(fun c ->
          if
            Config.quiescent c
            && not (List.mem (Litmus.Test.observe t regs c) spec)
          then Some "outcome outside the fully fenced spec"
          else None)
        ~monitor:(fun () _ -> Ok ())
        ~init:() cfg
    in
    (* same prefilter ladder as the lock oracle: a bounded spec escape
       is a real reachable outcome (sound refutation); a saturated
       clean pass is exact; only the inexact clean pass re-runs
       unbounded *)
    let prefilter_states, result =
      match prefilter with
      | None -> (0, run_with ())
      | Some k ->
          let r = run_with ~reorder_bound:k () in
          if
            r.Explore.violations <> []
            || (r.Explore.stats.Explore.bound_hits = 0
               && not r.Explore.stats.Explore.truncated)
          then (0, r)
          else (r.Explore.stats.Explore.states, run_with ())
    in
    let states = prefilter_states + result.Explore.stats.Explore.states in
    match result.Explore.violations with
    | [] -> { ok = true; states; relevant = None }
    | v :: _ ->
        let relevant =
          if view then None
          else
            let trace, _ = Mc.Replay.run cfg v.Explore.path in
            Some (relevant_of_trace ~nprocs trace)
        in
        { ok = false; states; relevant }
  in
  let cost mask =
    (* worst process over one drained sequential run — the litmus
       analogue of the uncontended per-passage lock cost *)
    let _, cfg = Litmus.Test.configure (masked mask) ~model in
    worst_cost ~nprocs (sequential_drained ~model cfg)
  in
  {
    name = test.Litmus.Test.name;
    model;
    nprocs;
    nsites;
    site_names;
    check;
    cost;
  }
