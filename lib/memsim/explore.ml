(** Exploration vocabulary shared by every explorer — stats, verdicts,
    successor enumeration — plus {!reference}, the small exact-key
    explorer that audits the [Mc] engine.

    Soundness of deduplication: programs are deterministic, so a
    process's local state is a function of its observation log; the
    state key therefore consists of committed memory, and per process
    its observation log, write-buffer contents, last-read pair (which
    gates spin blocking) and final value. Metrics and the last-committer
    table affect only accounting, not future behaviour, and are excluded.
    Spins are primitive (see {!Program.Spin}), so spin loops contribute
    no unbounded obs growth and the reachable space of terminating
    algorithms is finite.

    The engine keys states on 126-bit fingerprints composed by
    [Mc.Fingerprint] and stored in the sharded [Mc.Visited] set.
    {!reference} keys them on the {!Statekey.to_string} byte string in
    a plain [Hashtbl] instead: exact committed memory plus each
    process's cached local-state lanes (DESIGN.md §6a), with none of
    the engine's fingerprint composition, incremental updates or
    concurrent claims. Slower, but independent, which makes it the
    oracle the parity tests and fuzz oracle 2 compare the engine
    against. *)

type stats = {
  states : int;  (** distinct states visited *)
  transitions : int;
  truncated : bool;  (** a bound was hit; absence of violations is then
                         only valid up to the bound *)
  bound_hits : int;
      (** edges pruned by [reorder_bound] — their successor would carry
          more reorderings in flight than the budget. 0 on a completed
          bounded run {e certifies saturation}: the bounded transition
          system coincided with the unbounded one, so the verdict is
          exact, not an under-approximation. Always 0 when no bound was
          set. *)
}

type 'm violation = {
  message : string;
  path : Exec.elt list;  (** schedule from the root reproducing it *)
  monitor : 'm;
}

type 'm result = {
  stats : stats;
  violations : 'm violation list;  (** in discovery order, capped *)
  deadlocks : Exec.elt list list;  (** paths to stuck non-final states *)
}

(* [p]'s commit elements ([elts], indexed by register) consed onto
   [acc] in [Memory_model.commit_candidates] order, without building
   the candidate list: the largest register is consed first. *)
let rec commits_onto model elts wb bound acc =
  let r = Memory_model.commit_candidate_below model wb bound in
  if r < 0 then acc else commits_onto model elts wb r (elts.(r) :: acc)

(* Schedule elements that can produce a model step right now: per
   process, its op element (unless final or blocked), then its commit
   elements — rebuilt fresh per state, nothing accumulates across
   states. *)
let successor_elts cfg : Exec.elt list =
  let n = Config.nprocs cfg in
  if Memory_model.view_based cfg.Config.model then
    (* view backend: one element per alternative of each process's
       current op (read message / insertion position choices), already
       empty for final or blocked processes *)
    let rec go p acc =
      if p < 0 then acc else go (p - 1) (Exec.enabled_elts cfg p @ acc)
    in
    go (n - 1) []
  else
  let rec go p acc =
    if p < 0 then acc
    else
      (* one pstate fetch per process serves the buffer, final and
         blocked probes *)
      let st = Config.pstate cfg p in
      let wb = st.Config.wb in
      let acc =
        if Wbuf.is_empty wb then acc
        else
          commits_onto cfg.Config.model cfg.Config.commit_elts.(p) wb max_int
            acc
      in
      let acc =
        if Program.is_done st.Config.skipped || Exec.blocked cfg st then acc
        else cfg.Config.op_elts.(p) :: acc
      in
      go (p - 1) acc
  in
  go (n - 1) []

(* Depth-first search with entry-time dedup on exact string keys. Each
   state is normalized (pending labels flushed, their notes monitored)
   on entry, claimed once, checked, and expanded: one transition per
   successor element. The root is treated like any other entry. *)
let reference (type m) ?(max_states = max_int)
    ?(check = fun (_ : Config.t) -> None)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    ?(on_final = fun (_ : Config.t) (_ : m) -> ()) (cfg0 : Config.t) :
    m result =
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 and transitions = ref 0 and truncated = ref false in
  let violations = ref [] and deadlocks = ref [] in
  let violation message rev_path m =
    violations := { message; path = List.rev rev_path; monitor = m } :: !violations
  in
  let rec monitor_steps m = function
    | [] -> Ok m
    | s :: rest -> (
        match monitor m s with
        | Ok m -> monitor_steps m rest
        | Error _ as e -> e)
  in
  let rec go cfg m rev_path =
    if !states >= max_states then truncated := true
    else
      let notes, cfg = Exec.flush_labels cfg in
      match monitor_steps m notes with
      | Error message -> violation message rev_path m
      | Ok m ->
          let key = Statekey.to_string cfg in
          if not (Hashtbl.mem visited key) then begin
            Hashtbl.add visited key ();
            incr states;
            Option.iter (fun msg -> violation msg rev_path m) (check cfg);
            if Config.quiescent cfg then on_final cfg m
            else
              match successor_elts cfg with
              | [] -> deadlocks := List.rev rev_path :: !deadlocks
              | elts ->
                  List.iter
                    (fun elt ->
                      incr transitions;
                      let steps, cfg' = Exec.exec_elt cfg elt in
                      match monitor_steps m steps with
                      | Error message -> violation message (elt :: rev_path) m
                      | Ok m' -> go cfg' m' (elt :: rev_path))
                    elts
          end
  in
  go cfg0 init [];
  {
    stats =
      {
        states = !states;
        transitions = !transitions;
        truncated = !truncated;
        bound_hits = 0;
      };
    violations = List.rev !violations;
    deadlocks = !deadlocks;
  }

let reference_outcomes ?max_states ~observe cfg =
  let outcomes = Hashtbl.create 16 in
  let result =
    reference ?max_states
      ~monitor:(fun () _ -> Ok ())
      ~init:()
      ~on_final:(fun final () -> Hashtbl.replace outcomes (observe final) ())
      cfg
  in
  let all = Hashtbl.fold (fun k () acc -> k :: acc) outcomes [] in
  (List.sort compare all, result)
