(* Scheduler behaviour: determinism, liveness (buffer draining), and
   stuck detection. *)

open Memsim
open Program

let two_writers model =
  let layout = Layout.flat ~nprocs:2 ~nregs:2 in
  Config.make ~model ~layout
    [|
      run
        (let* () = write 0 1 in
         let* _ = await 1 (fun v -> v = 1) in
         let* () = fence in
         return 0);
      run
        (let* () = write 1 1 in
         let* _ = await 0 (fun v -> v = 1) in
         let* () = fence in
         return 0);
    |]

let lazy_commit_drains () =
  (* both processes spin on the other's unfenced write: only the
     system's eventual commits (drain) can unblock them *)
  let _, final = Scheduler.lazy_commit (two_writers Memory_model.Pso) in
  Alcotest.(check bool) "both finish" true (Config.all_final final)

let random_is_deterministic_per_seed () =
  let run seed =
    let t, f = Scheduler.random ~seed (two_writers Memory_model.Pso) in
    (List.length t, Metrics.rho (Config.metrics f))
  in
  Alcotest.(check bool) "same seed, same run" true (run 5 = run 5);
  (* different seeds usually differ; just ensure both complete *)
  ignore (run 6)

let sequential_detects_blocked () =
  let layout = Layout.flat ~nprocs:1 ~nregs:1 in
  let cfg =
    Config.make ~model:Memory_model.Pso ~layout
      [| run (let* _ = await 0 (fun v -> v = 1) in return 0) |]
  in
  match Scheduler.sequential cfg with
  | exception Scheduler.Stuck (_, msg) ->
      Alcotest.(check string) "reason" "process 0 does not terminate solo" msg
  | _ -> Alcotest.fail "expected Stuck"

let random_detects_deadlock () =
  (* two processes spinning on registers nobody will ever write *)
  let layout = Layout.flat ~nprocs:2 ~nregs:2 in
  let cfg =
    Config.make ~model:Memory_model.Pso ~layout
      [|
        run (let* _ = await 0 (fun v -> v = 1) in return 0);
        run (let* _ = await 1 (fun v -> v = 1) in return 0);
      |]
  in
  (match Scheduler.random ~seed:0 cfg with
  | exception Scheduler.Stuck (_, msg) ->
      Alcotest.(check bool) "deadlock reported" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Stuck")

(* Replayability contract of fuzz artifacts and stress reports: the
   random scheduler is a pure function of its seed. Checked on a
   nontrivial workload (bakery, n=3) down to byte-equal state keys. *)
let random_replay_bytes_equal () =
  let factory = Option.get (Locks.Registry.find "bakery") in
  let workload () =
    let _, _, cfg =
      Verify.Mutex_check.workload ~model:Memory_model.Pso factory ~nprocs:3
        ~rounds:2
    in
    cfg
  in
  let run seed = Scheduler.random ~seed (workload ()) in
  let t1, f1 = run 11 and t2, f2 = run 11 in
  Alcotest.(check int) "same seed, same trace length" (List.length t1)
    (List.length t2);
  Alcotest.(check bool) "same seed, identical step sequence" true (t1 = t2);
  Alcotest.(check string) "same seed, byte-equal final state key"
    (Statekey.to_string f1) (Statekey.to_string f2);
  let t3, _ = run 12 in
  Alcotest.(check bool) "distinct seeds, distinct schedules" false (t1 = t3)

(* --- regression pins for the hot-loop rewrites -------------------- *)

(* Reference implementations: the historical (quadratic / List.nth)
   scheduler bodies, kept verbatim so the optimized versions can be
   checked byte-for-byte against what they replaced. *)

let sequential_reference ?fuel cfg : Trace.t * Config.t =
  let n = Config.nprocs cfg in
  let rec go p acc cfg =
    if p >= n then (acc, cfg)
    else
      match Exec.run_solo ?fuel cfg p with
      | None -> Alcotest.fail "reference: stuck"
      | Some (steps, cfg) -> go (p + 1) (acc @ steps) cfg
  in
  go 0 [] cfg

let random_reference ?(seed = 0) ?(commit_bias = 0.3) ?(max_elts = 1_000_000)
    cfg : Trace.t * Config.t =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let all_pids cfg = List.init (Config.nprocs cfg) Fun.id in
  let rec go budget acc cfg =
    if Config.quiescent cfg then (List.rev acc, cfg)
    else if budget <= 0 then Alcotest.fail "reference: budget exhausted"
    else
      let actionable =
        List.filter
          (fun p ->
            ((not (Config.is_final cfg p)) && not (Exec.is_blocked cfg p))
            || Memory_model.commit_candidates cfg.Config.model
                 (Config.wbuf cfg p)
               <> [])
          (all_pids cfg)
      in
      match actionable with
      | [] -> Alcotest.fail "reference: deadlock"
      | _ ->
          let p =
            List.nth actionable
              (Random.State.int rng (List.length actionable))
          in
          let candidates =
            Memory_model.commit_candidates cfg.Config.model (Config.wbuf cfg p)
          in
          let must_commit = Exec.is_blocked cfg p || Config.is_final cfg p in
          let elt =
            if
              candidates <> []
              && (must_commit || Random.State.float rng 1.0 < commit_bias)
            then
              ( p,
                Some
                  (List.nth candidates
                     (Random.State.int rng (List.length candidates))) )
            else (p, None)
          in
          let steps, cfg = Exec.exec_elt cfg elt in
          go (budget - 1) (List.rev_append steps acc) cfg
  in
  go max_elts [] cfg

let bakery_workload ~nprocs ~rounds () =
  let factory = Option.get (Locks.Registry.find "bakery") in
  let _, _, cfg =
    Verify.Mutex_check.workload ~model:Memory_model.Pso factory ~nprocs
      ~rounds
  in
  cfg

(* The rev-append rewrite of [sequential] must return the trace in the
   exact order the historical [acc @ steps] accumulation produced. *)
let sequential_trace_matches_reference () =
  let check cfg =
    let t_new, f_new = Scheduler.sequential cfg in
    let t_ref, f_ref = sequential_reference cfg in
    Alcotest.(check bool) "byte-identical trace" true (t_new = t_ref);
    Alcotest.(check string) "same final state"
      (Statekey.to_string f_ref) (Statekey.to_string f_new)
  in
  check (bakery_workload ~nprocs:4 ~rounds:2 ());
  let layout = Layout.flat ~nprocs:3 ~nregs:1 in
  check
    (Config.make ~model:Memory_model.Pso ~layout
       (Array.init 3 (fun p ->
            run
              (let* v = read 0 in
               let* () = write 0 (v + 1) in
               let* () = fence in
               return (100 + p)))))

(* The array-based selection in [random] must consume the seeded rng
   in exactly the historical order — every draw, every range — so
   traces replay byte-identically. Pinned at a larger n than the
   replay test above, across seeds and commit biases. *)
let random_picks_match_reference () =
  List.iter
    (fun (seed, bias) ->
      let t_new, f_new =
        Scheduler.random ~seed ~commit_bias:bias
          (bakery_workload ~nprocs:4 ~rounds:1 ())
      in
      let t_ref, f_ref =
        random_reference ~seed ~commit_bias:bias
          (bakery_workload ~nprocs:4 ~rounds:1 ())
      in
      Alcotest.(check int)
        (Fmt.str "seed %d bias %.2f: same length" seed bias)
        (List.length t_ref) (List.length t_new);
      Alcotest.(check bool)
        (Fmt.str "seed %d bias %.2f: byte-identical trace" seed bias)
        true (t_new = t_ref);
      Alcotest.(check string)
        (Fmt.str "seed %d bias %.2f: same final state" seed bias)
        (Statekey.to_string f_ref) (Statekey.to_string f_new))
    [ (0, 0.3); (1, 0.3); (2, 0.3); (11, 0.05); (12, 0.9); (42, 0.5) ]

let sequential_runs_all_and_counts () =
  let layout = Layout.flat ~nprocs:3 ~nregs:1 in
  let cfg =
    Config.make ~model:Memory_model.Pso ~layout
      (Array.init 3 (fun p ->
           run
             (let* v = read 0 in
              let* () = write 0 (v + 1) in
              let* () = fence in
              return (100 + p))))
  in
  let trace, final = Scheduler.sequential cfg in
  Alcotest.(check int) "counter accumulated" 3 (Config.read_mem final 0);
  Alcotest.(check bool) "all returned" true (Config.all_final final);
  Alcotest.(check int) "return steps in trace" 3
    (List.length (Trace.returns trace))

let suite =
  ( "scheduler",
    [
      Alcotest.test_case "lazy_commit drains buffers when blocked" `Quick
        lazy_commit_drains;
      Alcotest.test_case "random is deterministic per seed" `Quick
        random_is_deterministic_per_seed;
      Alcotest.test_case "sequential detects blocked processes" `Quick
        sequential_detects_blocked;
      Alcotest.test_case "random detects deadlock" `Quick random_detects_deadlock;
      Alcotest.test_case "random replays byte-equal per seed" `Quick
        random_replay_bytes_equal;
      Alcotest.test_case "sequential trace matches pre-rewrite reference"
        `Quick sequential_trace_matches_reference;
      Alcotest.test_case
        "random pick sequence matches pre-rewrite reference (n=4)" `Quick
        random_picks_match_reference;
      Alcotest.test_case "sequential runs all, in order" `Quick
        sequential_runs_all_and_counts;
    ] )
