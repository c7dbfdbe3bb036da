(** Litmus-test harness: exhaustive outcome enumeration per memory model.

    A litmus test is a tiny multi-threaded program whose set of
    reachable final observations distinguishes memory models — the
    operational content of the paper's "separating memory models". For
    each test we explore {e all} schedules (op steps and commit steps)
    under each model and collect the reachable outcome set; an outcome
    reachable under PSO but not TSO witnesses the write-reordering gap
    the paper's tradeoff lives in, an outcome reachable under TSO but
    not SC witnesses the store→load gap.

    Outcomes are the tuple of per-process return values followed by the
    final committed values of the test's observed registers. *)

open Memsim

type t = {
  name : string;
  description : string;
  nregs : int;  (** shared registers [x0 .. x{nregs-1}], all initially 0 *)
  programs : Reg.t array -> Program.t array;
  observed : Reg.t array -> Reg.t list;  (** registers reported in outcomes *)
}

type outcome = { returns : int list; finals : int list }

let pp_outcome ppf o =
  Fmt.pf ppf "ret=(%a) mem=(%a)"
    (Fmt.list ~sep:Fmt.comma Fmt.int)
    o.returns
    (Fmt.list ~sep:Fmt.comma Fmt.int)
    o.finals

type run = {
  test : t;
  model : Memory_model.t;
  outcomes : outcome list;  (** sorted *)
  stats : Explore.stats;
  reorder_bound : int option;
      (** the (final) reorder bound enumerated under; [None] =
          unbounded *)
  bound_exact : bool;
      (** bounded enumeration certified saturation (zero bound hits on
          a complete run), so the outcome set is the full one. Always
          true unbounded. *)
}

let configure ?compile test ~model =
  let nprocs = Array.length (test.programs (Array.init test.nregs Fun.id)) in
  let layout = Layout.flat ~nprocs ~nregs:test.nregs in
  let regs = Array.init test.nregs Fun.id in
  (regs, Config.make ?compile ~model ~layout (test.programs regs))

(** The outcome a quiescent configuration of [test] reached: per-process
    return values (-1 if unfinished), then the observed registers' final
    committed values. *)
let observe test regs final =
  {
    returns =
      List.init (Config.nprocs final) (fun p ->
          Option.value ~default:(-1) (Config.final_value final p));
    finals = List.map (Config.read_mem final) (test.observed regs);
  }

(** Enumerate all reachable outcomes of [test] under [model]. [engine]
    selects the engine's domain count ([`Parallel 1] default); [por]
    enables partial-order reduction, which preserves the outcome set
    (all quiescent states are still reached) while visiting fewer
    states. [tel] plugs a {!Telemetry.Hub.t} into the exploration for
    live progress and stats (see {!Mc.run}). *)
let run ?tel ?compile ?max_states ?engine ?por ?reorder_bound test ~model : run
    =
  let regs, cfg = configure ?compile test ~model in
  let observe = observe test regs in
  match reorder_bound with
  | None ->
      let outcomes, result =
        Mc.reachable_outcomes ?tel ?engine ?por ?max_states ~observe cfg
      in
      {
        test;
        model;
        outcomes;
        stats = result.Explore.stats;
        reorder_bound = None;
        bound_exact = true;
      }
  | Some (`K k) ->
      let outcomes, result =
        Mc.reachable_outcomes ?tel ?engine ?por ?max_states ~reorder_bound:k
          ~observe cfg
      in
      {
        test;
        model;
        outcomes;
        stats = result.Explore.stats;
        reorder_bound = Some k;
        bound_exact =
          result.Explore.stats.Explore.bound_hits = 0
          && not result.Explore.stats.Explore.truncated;
      }
  | Some `Deepen ->
      (* deepening a litmus enumeration always saturates (the bound
         stops climbing only at saturation or truncation), so the
         final outcome set is the full one unless truncated *)
      let jobs = match engine with Some (`Parallel j) -> j | None -> 1 in
      let outcomes, d =
        Mc.deepen_outcomes ?tel ~jobs ?por ?max_states ~observe cfg
      in
      {
        test;
        model;
        outcomes;
        stats = d.Mc.result.Explore.stats;
        reorder_bound = Some d.Mc.final_bound;
        bound_exact = d.Mc.saturated;
      }

(** Does [model] admit [outcome] for this test? *)
let admits run outcome = List.mem outcome run.outcomes

(** Why a model sweep must skip this cell, if it must: the reorder
    budget meters overtaken write-buffer entries, and view-based
    models (RA/SRA) have no write buffer to meter. Sweeps print/emit
    this marker per cell instead of silently dropping the row, so
    bounded sweep tables stay honest about their coverage. (Naming a
    view model explicitly together with a bound remains an error —
    this is only for implicit all-model sweeps.) *)
let skip_reason ?reorder_bound model =
  match reorder_bound with
  | Some _ when Memory_model.view_based model ->
      Some "reorder bound undefined on view models"
  | Some _ | None -> None

let pp_run ppf r =
  Fmt.pf ppf "@[<v2>%s under %a (%d states%s%s):@,%a@]" r.test.name
    Memory_model.pp r.model r.stats.Explore.states
    (if r.stats.Explore.truncated then ", truncated" else "")
    (match r.reorder_bound with
    | Some k when not r.bound_exact ->
        Fmt.str ", reorder-bound %d subset" k
    | _ -> "")
    (Fmt.list pp_outcome) r.outcomes

(** Compare the outcome sets of two models on the same test: outcomes
    of [weaker] not reachable under [stronger]. *)
let separation ~stronger ~weaker =
  List.filter (fun o -> not (List.mem o stronger.outcomes)) weaker.outcomes

(** Per-process fence-site counts, from one sequential SC execution
    (each process runs alone, in pid order, over the cumulative state —
    so spins awaiting an earlier process's write terminate). Valid for
    tests whose processes execute their fences in fixed program-text
    order, which holds for the whole corpus and for generated fuzz
    programs. *)
let fence_sites test =
  let _regs, cfg = configure test ~model:Memory_model.Sc in
  let trace, _ = Scheduler.sequential cfg in
  let counts = Array.make (Config.nprocs cfg) 0 in
  List.iter
    (function
      | Step.Fence { p } -> counts.(p) <- counts.(p) + 1 | _ -> ())
    (Trace.steps trace);
  counts

(** Re-instantiate the test with a subset of its fences, under a global
    site numbering: process [p]'s sites start at the prefix sum of the
    earlier processes' {!fence_sites} counts. [marker i] labels every
    site, kept or dropped (zero-cost, invisible to outcomes and state
    keys); the full mask without a marker leaves the test extensionally
    unchanged. *)
let with_fence_mask ?marker ~keep test =
  let counts = fence_sites test in
  let offsets = Array.make (Array.length counts) 0 in
  for p = 1 to Array.length counts - 1 do
    offsets.(p) <- offsets.(p - 1) + counts.(p - 1)
  done;
  {
    test with
    programs =
      (fun regs ->
        Array.mapi
          (fun p prog -> Program.mask_fences ?marker ~base:offsets.(p) ~keep prog)
          (test.programs regs));
  }
