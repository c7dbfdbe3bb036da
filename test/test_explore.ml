(* Reference-explorer tests: exact reachable-state and outcome counts
   on hand-analysable programs, deadlock detection, monitor violations,
   and soundness of deduplication. *)

open Memsim
open Program

let flat ~nprocs ~nregs progs =
  Config.make ~model:Memory_model.Pso
    ~layout:(Layout.flat ~nprocs ~nregs)
    (Array.of_list progs)

(* reachability without a monitor *)
let plain ?on_final cfg =
  Explore.reference
    ~monitor:(fun () _ -> Ok ())
    ~init:()
    ?on_final:(Option.map (fun f cfg () -> f cfg) on_final)
    cfg

let single_writer_outcomes () =
  (* one process, one buffered write + fence: exactly one outcome *)
  let cfg =
    flat ~nprocs:1 ~nregs:1
      [ run (let* () = write 0 1 in let* () = fence in return 0) ]
  in
  let outcomes, result =
    Explore.reference_outcomes ~observe:(fun f -> Config.read_mem f 0) cfg
  in
  Alcotest.(check (list int)) "deterministic" [ 1 ] outcomes;
  Alcotest.(check bool) "not truncated" false result.Explore.stats.Explore.truncated

let race_outcomes_exact () =
  (* two unfenced single writes to the same register: final value is
     whichever commit lands last — both orders reachable *)
  let cfg =
    flat ~nprocs:2 ~nregs:1
      [
        run (let* () = write 0 1 in return 0);
        run (let* () = write 0 2 in return 0);
      ]
  in
  let outcomes, _ =
    Explore.reference_outcomes ~observe:(fun f -> Config.read_mem f 0) cfg
  in
  Alcotest.(check (list int)) "both winners" [ 1; 2 ] outcomes

let sc_interleavings_counted () =
  (* Under SC, two processes each do one write step: the diamond has
     exactly 4 distinct states plus start = program positions × values;
     just pin the number to catch regressions in dedup. *)
  let cfg =
    Config.make ~model:Memory_model.Sc
      ~layout:(Layout.flat ~nprocs:2 ~nregs:2)
      [|
        run (let* () = write 0 1 in return 0);
        run (let* () = write 1 1 in return 0);
      |]
  in
  let result = plain cfg in
  Alcotest.(check int) "diamond states" 9 result.Explore.stats.Explore.states;
  Alcotest.(check int) "no deadlocks" 0 (List.length result.Explore.deadlocks)

let deadlock_detected_with_path () =
  let cfg =
    flat ~nprocs:2 ~nregs:2
      [
        run (let* _ = await 0 (fun v -> v = 1) in return 0);
        run (let* _ = await 1 (fun v -> v = 1) in return 0);
      ]
  in
  let result = plain cfg in
  Alcotest.(check bool) "deadlock found" true (result.Explore.deadlocks <> [])

let monitor_violation_reports_path () =
  let cfg =
    flat ~nprocs:1 ~nregs:1
      [
        run
          (let* () = label "boom" in
           let* () = write 0 1 in
           let* () = fence in
           return 0);
      ]
  in
  let monitor () (s : Step.t) =
    match s with
    | Step.Note { text = "boom"; _ } -> Error "exploded"
    | _ -> Ok ()
  in
  let result = Explore.reference ~monitor ~init:() cfg in
  match result.Explore.violations with
  | [ v ] -> Alcotest.(check string) "message" "exploded" v.Explore.message
  | _ -> Alcotest.fail "expected exactly one violation"

let spin_spaces_are_finite () =
  (* a spinning consumer and a producer: without spin-blocking this
     space would be infinite; with it, exploration terminates *)
  let cfg =
    flat ~nprocs:2 ~nregs:1
      [
        run (let* v = await 0 (fun v -> v > 0) in return v);
        run (let* () = write 0 7 in let* () = fence in return 0);
      ]
  in
  let result = plain cfg in
  Alcotest.(check bool) "finite" false result.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "no deadlock" true (result.Explore.deadlocks = [])

let replaying_violation_path_reproduces () =
  (* the path returned with a violation, replayed through Exec, ends in
     a state exhibiting it *)
  let mk () =
    flat ~nprocs:2 ~nregs:1
      [
        run (let* v = read 0 in let* () = write 0 (v + 1) in let* () = fence in return 0);
        run (let* v = read 0 in let* () = write 0 (v + 1) in let* () = fence in return 0);
      ]
  in
  let lost = ref None in
  let result =
    plain
      ~on_final:(fun f -> if Config.read_mem f 0 <> 2 then lost := Some f)
      (mk ())
  in
  ignore result;
  match !lost with
  | Some f -> Alcotest.(check int) "lost update state" 1 (Config.read_mem f 0)
  | None -> Alcotest.fail "unfenced double increment must lose updates"

let suite =
  ( "explore",
    [
      Alcotest.test_case "single writer outcomes" `Quick single_writer_outcomes;
      Alcotest.test_case "race outcomes exact" `Quick race_outcomes_exact;
      Alcotest.test_case "SC interleavings counted" `Quick sc_interleavings_counted;
      Alcotest.test_case "deadlock detected" `Quick deadlock_detected_with_path;
      Alcotest.test_case "monitor violation reported" `Quick
        monitor_violation_reports_path;
      Alcotest.test_case "spin spaces are finite" `Quick spin_spaces_are_finite;
      Alcotest.test_case "lost update reachable for unlocked counter" `Quick
        replaying_violation_path_reproduces;
    ] )
