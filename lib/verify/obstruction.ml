(** Weak obstruction-freedom (Section 2 of the paper).

    An algorithm is weakly obstruction-free if from every reachable
    configuration in which every process other than [p] is in its
    initial or final state, [p] reaches a final state in every
    [p]-only schedule. The paper notes deadlock-freedom implies it; it
    is the liveness hypothesis the lower bound needs.

    We check it by exhaustive exploration: at every distinct reachable
    state, for every live process [p], if all other processes are
    initial (no operation steps taken, empty buffer) or final (returned,
    buffer drained), then [p] must terminate running solo. With spins
    primitive, solo termination is decidable exactly. *)

open Memsim

type verdict = {
  lock_name : string;
  model : Memory_model.t;
  nprocs : int;
  holds : bool;
  counterexample : (Pid.t * Exec.elt list) option;
      (** the stranded process and the schedule reaching the state *)
  stats : Explore.stats;
}

let pp_verdict ppf v =
  Fmt.pf ppf "%-24s %-4s n=%d: %s (%d states%s)" v.lock_name
    (Memory_model.to_string v.model)
    v.nprocs
    (match v.counterexample with
    | None -> "weakly obstruction-free"
    | Some (p, _) -> Fmt.str "NOT OBSTRUCTION-FREE (p%d strands)" p)
    v.stats.Explore.states
    (if v.stats.Explore.truncated then ", truncated" else "")

let initial_or_final cfg q =
  let st = Config.pstate cfg q in
  (st.Config.ops = 0 && Wbuf.is_empty st.Config.wb)
  || (Config.is_final cfg q && Wbuf.is_empty st.Config.wb)

let stranded cfg =
  let n = Config.nprocs cfg in
  let rec find p =
    if p >= n then None
    else if
      (not (Config.is_final cfg p))
      && List.for_all
           (fun q -> Pid.equal p q || initial_or_final cfg q)
           (List.init n Fun.id)
      && not (Exec.terminates_solo cfg p)
    then Some p
    else find (p + 1)
  in
  find 0

let check ?(rounds = 1) ?max_states ?max_depth ~model
    (factory : Locks.Lock.factory) ~nprocs : verdict =
  let lock, _, cfg = Mutex_check.workload ~model factory ~nprocs ~rounds in
  let offender = ref None in
  let result =
    Mc.run ?max_states ?max_depth ~max_violations:1
      ~check:(fun cfg ->
        match stranded cfg with
        | None -> None
        | Some p ->
            offender := Some p;
            Some (Fmt.str "process %d cannot finish solo" p))
      ~monitor:(fun () _ -> Ok ())
      ~init:() cfg
  in
  let counterexample =
    match (result.Explore.violations, !offender) with
    | v :: _, Some p -> Some (p, v.Explore.path)
    | _ -> None
  in
  {
    lock_name = lock.Locks.Lock.name;
    model;
    nprocs;
    holds = counterexample = None;
    counterexample;
    stats = result.Explore.stats;
  }
