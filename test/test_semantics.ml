(* Cross-cutting semantic properties, checked on randomly generated
   straight-line programs under randomly seeded schedules:

   - step conservation: the step census adds up;
   - TSO: each process's commits happen in exactly its write order;
   - PSO: per-register, each process's commits form a subsequence of its
     write order (the unordered buffer coalesces but never reorders two
     writes to the same register — coherence);
   - every model: once quiescent, each register holds the value of the
     globally last commit to it;
   - SC: memory reflects each write immediately;
   - the random scheduler's outcomes are contained in the explorer's
     reachable set (scheduler soundness w.r.t. the model). *)

open Memsim

(* --- random straight-line programs ----------------------------------- *)

type op = W of int * int | R of int | F

let show_op = function
  | W (r, v) -> Printf.sprintf "W(%d,%d)" r v
  | R r -> Printf.sprintf "R%d" r
  | F -> "F"

(* values are made globally unique by stamping with (pid, index) so
   commit sequences can be attributed *)
let arb_program_ops =
  QCheck.(
    make
      ~print:(fun l -> String.concat ";" (List.map show_op l))
      Gen.(
        list_size (0 -- 10)
          (frequency
             [
               (4, map2 (fun r v -> W (r, v)) (0 -- 3) (0 -- 99));
               (3, map (fun r -> R r) (0 -- 3));
               (2, return F);
             ])))

let build_program pid ops =
  let stamp i v = (pid * 1_000_000) + (i * 1_000) + v in
  let rec go i = function
    | [] -> Program.Ret 0
    | W (r, v) :: rest -> Program.Write (r, stamp i v, fun () -> go (i + 1) rest)
    | R r :: rest -> Program.Read (r, fun _ -> go (i + 1) rest)
    | F :: rest -> Program.Fence (fun () -> go (i + 1) rest)
  in
  go 0 ops

let writes_in_order pid ops =
  let stamp i v = (pid * 1_000_000) + (i * 1_000) + v in
  List.mapi (fun i o -> (i, o)) ops
  |> List.filter_map (fun (i, o) ->
         match o with W (r, v) -> Some (r, stamp i v) | R _ | F -> None)

let run_random_schedule ~model ~seed (progs : (int * op list) list) =
  let nprocs = List.length progs in
  let layout = Layout.flat ~nprocs ~nregs:4 in
  let programs =
    Array.of_list (List.map (fun (pid, ops) -> build_program pid ops) progs)
  in
  let cfg = Config.make ~model ~layout programs in
  (* drain leftover buffers after everyone returns so runs quiesce *)
  let trace, final = Scheduler.random ~seed ~commit_bias:0.4 cfg in
  (trace, final)

let arb_two_progs_and_seed =
  QCheck.(triple arb_program_ops arb_program_ops (int_bound 1000))

let commits_of p trace =
  List.filter_map
    (function
      | Step.Commit { p = q; reg; value; _ } when Pid.equal p q -> Some (reg, value)
      | _ -> None)
    trace

let prop_step_conservation =
  (* all models: under SC the write path must bill its write AND its
     commit (two steps) for the census to balance *)
  QCheck.Test.make ~name:"step census adds up" ~count:150
    QCheck.(pair arb_two_progs_and_seed (int_bound 3))
    (fun ((ops0, ops1, seed), model_ix) ->
      let model = List.nth Memory_model.all model_ix in
      let _, final =
        run_random_schedule ~model ~seed [ (0, ops0); (1, ops1) ]
      in
      let c = Metrics.total (Config.metrics final) in
      c.Metrics.steps
      = c.Metrics.reads + c.Metrics.writes + c.Metrics.fences
        + c.Metrics.commits + c.Metrics.cas + c.Metrics.rmw
        + c.Metrics.returns)

let prop_tso_commits_in_write_order =
  QCheck.Test.make ~name:"TSO commits = write order (FIFO)" ~count:150
    arb_two_progs_and_seed (fun (ops0, ops1, seed) ->
      let trace, _ =
        run_random_schedule ~model:Memory_model.Tso ~seed
          [ (0, ops0); (1, ops1) ]
      in
      List.for_all
        (fun (p, ops) -> commits_of p trace = writes_in_order p ops)
        [ (0, ops0); (1, ops1) ])

let is_subsequence xs ys =
  (* xs a subsequence of ys *)
  let rec go xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xr, y :: yr -> if x = y then go xr yr else go xs yr
  in
  go xs ys

let prop_pso_per_register_coherence =
  QCheck.Test.make ~name:"PSO commits per register follow program order"
    ~count:150 arb_two_progs_and_seed (fun (ops0, ops1, seed) ->
      let trace, _ =
        run_random_schedule ~model:Memory_model.Pso ~seed
          [ (0, ops0); (1, ops1) ]
      in
      List.for_all
        (fun (p, ops) ->
          let writes = writes_in_order p ops in
          List.for_all
            (fun r ->
              let committed =
                commits_of p trace
                |> List.filter (fun (r', _) -> r = r')
                |> List.map snd
              in
              let issued =
                writes |> List.filter (fun (r', _) -> r = r') |> List.map snd
              in
              is_subsequence committed issued)
            [ 0; 1; 2; 3 ])
        [ (0, ops0); (1, ops1) ])

let prop_quiescent_memory_is_last_commit =
  QCheck.Test.make ~name:"quiescent memory = last commit per register"
    ~count:150
    QCheck.(pair arb_two_progs_and_seed (int_bound 3))
    (fun ((ops0, ops1, seed), model_ix) ->
      let model = List.nth Memory_model.all model_ix in
      let trace, final =
        run_random_schedule ~model ~seed [ (0, ops0); (1, ops1) ]
      in
      Config.quiescent final
      && List.for_all
           (fun r ->
             let last =
               List.fold_left
                 (fun acc s ->
                   match s with
                   | Step.Commit { reg; value; _ } when reg = r -> Some value
                   | _ -> acc)
                 None trace
             in
             match last with
             | None -> Config.read_mem final r = 0
             | Some v -> Config.read_mem final r = v)
           [ 0; 1; 2; 3 ])

let prop_sc_is_immediate =
  QCheck.Test.make ~name:"SC: buffers always empty" ~count:100
    arb_two_progs_and_seed (fun (ops0, ops1, seed) ->
      let _, final =
        run_random_schedule ~model:Memory_model.Sc ~seed
          [ (0, ops0); (1, ops1) ]
      in
      let c = Metrics.total (Config.metrics final) in
      (* every write committed at its own step: counts agree *)
      c.Metrics.commits = c.Metrics.writes)

(* scheduler ⊆ explorer: whatever final memory a random run produces is
   in the explorer's reachable outcome set *)
let prop_scheduler_sound_wrt_explorer =
  QCheck.Test.make ~name:"random runs land in the explored outcome set"
    ~count:40
    QCheck.(triple (pair arb_program_ops arb_program_ops) (int_bound 100) (int_bound 3))
    (fun ((ops0, ops1), seed, model_ix) ->
      let model = List.nth Memory_model.all model_ix in
      (* cap sizes to keep exploration quick *)
      let trim l = List.filteri (fun i _ -> i < 5) l in
      let ops0 = trim ops0 and ops1 = trim ops1 in
      let observe final = List.map (Config.read_mem final) [ 0; 1; 2; 3 ] in
      let _, final = run_random_schedule ~model ~seed [ (0, ops0); (1, ops1) ] in
      let nprocs = 2 in
      let layout = Layout.flat ~nprocs ~nregs:4 in
      let cfg =
        Config.make ~model ~layout
          [| build_program 0 ops0; build_program 1 ops1 |]
      in
      let outcomes, _ = Explore.reference_outcomes ~observe cfg in
      List.mem (observe final) outcomes)

let suite =
  ( "semantics",
    [
      QCheck_alcotest.to_alcotest prop_step_conservation;
      QCheck_alcotest.to_alcotest prop_tso_commits_in_write_order;
      QCheck_alcotest.to_alcotest prop_pso_per_register_coherence;
      QCheck_alcotest.to_alcotest prop_quiescent_memory_is_last_commit;
      QCheck_alcotest.to_alcotest prop_sc_is_immediate;
      QCheck_alcotest.to_alcotest prop_scheduler_sound_wrt_explorer;
    ] )
