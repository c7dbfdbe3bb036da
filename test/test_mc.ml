(* Model-checker tests: exact agreement of Mc.run with the exact-key
   Explore.reference (states, transitions, outcomes, verdicts) with POR off,
   verdict preservation with states <= unreduced under POR, replay
   determinism of counterexample paths across domain counts, and a
   qcheck cross-check on random small programs. *)

open Memsim

let lock name = Option.get (Locks.Registry.find name)

let check_stats_equal label (a : Explore.stats) (b : Explore.stats) =
  Alcotest.(check int) (label ^ ": states") a.Explore.states b.Explore.states;
  Alcotest.(check int)
    (label ^ ": transitions")
    a.Explore.transitions b.Explore.transitions;
  Alcotest.(check bool)
    (label ^ ": truncated")
    a.Explore.truncated b.Explore.truncated

(* ------------------------------------------------------------------ *)
(* Litmus parity: every case, every model, engines agree exactly       *)
(* ------------------------------------------------------------------ *)

(* A litmus cell on the reference explorer: its outcomes and stats. *)
let reference_litmus test ~model =
  let regs, cfg = Litmus.Test.configure test ~model in
  let outcomes, r =
    Explore.reference_outcomes ~observe:(Litmus.Test.observe test regs) cfg
  in
  (outcomes, r.Explore.stats)

let litmus_parity_engines () =
  List.iter
    (fun test ->
      List.iter
        (fun model ->
          let ref_outcomes, ref_stats = reference_litmus test ~model in
          List.iter
            (fun jobs ->
              let label =
                Fmt.str "%s/%a jobs=%d" test.Litmus.Test.name Memory_model.pp
                  model jobs
              in
              let r = Litmus.Test.run ~engine:(`Parallel jobs) test ~model in
              Alcotest.(check bool)
                (label ^ ": outcomes") true
                (r.Litmus.Test.outcomes = ref_outcomes);
              check_stats_equal label ref_stats r.Litmus.Test.stats)
            [ 1; 2 ])
        Memory_model.all)
    Litmus.Cases.all

let litmus_por_preserves_outcomes () =
  List.iter
    (fun test ->
      List.iter
        (fun model ->
          let reference = Litmus.Test.run test ~model in
          let r =
            Litmus.Test.run ~engine:(`Parallel 2) ~por:true test ~model
          in
          let label =
            Fmt.str "%s/%a por" test.Litmus.Test.name Memory_model.pp model
          in
          Alcotest.(check bool)
            (label ^ ": outcomes") true
            (r.Litmus.Test.outcomes = reference.Litmus.Test.outcomes);
          Alcotest.(check bool)
            (label ^ ": states <=") true
            (r.Litmus.Test.stats.Explore.states
            <= reference.Litmus.Test.stats.Explore.states))
        Memory_model.all)
    Litmus.Cases.all

(* ------------------------------------------------------------------ *)
(* Lock-check parity                                                   *)
(* ------------------------------------------------------------------ *)

let verdict_shape (v : Verify.Mutex_check.verdict) =
  ( v.Verify.Mutex_check.holds,
    v.Verify.Mutex_check.me_violation <> None,
    v.Verify.Mutex_check.deadlock <> None,
    v.Verify.Mutex_check.lost_update )

(* [Mutex_check.check]'s workload, monitor and lost-update oracle on the
   reference explorer: the verdict shape and stats to compare against. *)
let reference_check name ~model ~nprocs =
  let _, counter, cfg =
    Verify.Mutex_check.workload ~model (lock name) ~nprocs ~rounds:1
  in
  let lost = ref false in
  let r =
    Explore.reference ~monitor:Verify.Mutex_check.cs_monitor
      ~init:Pid.Set.empty
      ~on_final:(fun final _ ->
        if Config.read_mem final counter <> nprocs then lost := true)
      cfg
  in
  let me = r.Explore.violations <> [] and dl = r.Explore.deadlocks <> [] in
  ((not (me || dl || !lost), me, dl, !lost), r.Explore.stats)

let lock_parity_cases =
  [ ("bakery", 2); ("peterson", 2); ("tournament", 2); ("gt:2", 2) ]

let locks_parity_engines () =
  List.iter
    (fun (name, nprocs) ->
      List.iter
        (fun model ->
          let ref_shape, ref_stats = reference_check name ~model ~nprocs in
          List.iter
            (fun jobs ->
              let label =
                Fmt.str "%s/%a n=%d jobs=%d" name Memory_model.pp model nprocs
                  jobs
              in
              let v =
                Verify.Mutex_check.check ~engine:(`Parallel jobs) ~model
                  (lock name) ~nprocs
              in
              Alcotest.(check bool)
                (label ^ ": verdict") true
                (verdict_shape v = ref_shape);
              check_stats_equal label ref_stats v.Verify.Mutex_check.stats)
            [ 1; 2 ])
        [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ])
    lock_parity_cases

(* The acceptance-scope case: 3-process bakery, the reference explorer
   vs the 1-domain engine, exact agreement. Slow (~700k states per
   explorer) but the one that matters. *)
let bakery3_parity () =
  let model = Memory_model.Pso in
  let ref_shape, ref_stats = reference_check "bakery" ~model ~nprocs:3 in
  let v =
    Verify.Mutex_check.check ~engine:(`Parallel 1) ~model (lock "bakery")
      ~nprocs:3
  in
  Alcotest.(check bool)
    "bakery n=3: verdict" true
    (verdict_shape v = ref_shape);
  check_stats_equal "bakery n=3" ref_stats v.Verify.Mutex_check.stats

let locks_por_preserves_verdicts () =
  let strict_reduction = ref false in
  List.iter
    (fun (name, nprocs) ->
      List.iter
        (fun model ->
          let reference =
            Verify.Mutex_check.check ~model (lock name) ~nprocs
          in
          let v =
            Verify.Mutex_check.check ~engine:(`Parallel 2) ~por:true ~model
              (lock name) ~nprocs
          in
          let label = Fmt.str "%s/%a por" name Memory_model.pp model in
          Alcotest.(check bool)
            (label ^ ": verdict") true
            (verdict_shape v = verdict_shape reference);
          Alcotest.(check bool)
            (label ^ ": states <=") true
            (v.Verify.Mutex_check.stats.Explore.states
            <= reference.Verify.Mutex_check.stats.Explore.states);
          if
            v.Verify.Mutex_check.stats.Explore.states
            < reference.Verify.Mutex_check.stats.Explore.states
          then strict_reduction := true)
        [ Memory_model.Tso; Memory_model.Pso ])
    lock_parity_cases;
  (* the reduction must actually bite somewhere, not just be a no-op *)
  Alcotest.(check bool) "POR reduced some check" true !strict_reduction

(* Verdicts on broken variants survive POR too: a reduced exploration
   must still find the mutual-exclusion violation. *)
let por_still_finds_violations () =
  List.iter
    (fun (name, model) ->
      let v =
        Verify.Mutex_check.check ~engine:(`Parallel 2) ~por:true ~model
          (lock name) ~nprocs:2
      in
      Alcotest.(check bool) (name ^ ": still broken") false
        v.Verify.Mutex_check.holds)
    [
      ("peterson-unfenced", Memory_model.Pso);
      ("peterson-batched", Memory_model.Pso);
      ("peterson-unfenced", Memory_model.Tso);
    ]

(* ------------------------------------------------------------------ *)
(* Counterexample replay determinism                                   *)
(* ------------------------------------------------------------------ *)

let replay_deterministic () =
  let model = Memory_model.Pso in
  List.iter
    (fun jobs ->
      let v =
        Verify.Mutex_check.check ~engine:(`Parallel jobs) ~model
          (lock "peterson-unfenced") ~nprocs:2
      in
      let path =
        match v.Verify.Mutex_check.me_violation with
        | Some p -> p
        | None -> Alcotest.failf "jobs=%d: no violation path" jobs
      in
      (* the recorded schedule, replayed on a fresh configuration,
         reproduces the violating trace — and does so identically on
         every replay *)
      let _, _, cfg =
        Verify.Mutex_check.workload ~model
          (lock "peterson-unfenced")
          ~nprocs:2 ~rounds:1
      in
      let steps1, final1 = Mc.Replay.run cfg path in
      let steps2, final2 = Mc.Replay.run cfg path in
      Alcotest.(check string)
        (Fmt.str "jobs=%d: final state stable" jobs)
        (Statekey.to_string final1) (Statekey.to_string final2);
      Alcotest.(check int)
        (Fmt.str "jobs=%d: trace length stable" jobs)
        (List.length steps1) (List.length steps2);
      match
        Mc.Replay.monitor_verdict ~monitor:Verify.Mutex_check.cs_monitor
          ~init:Pid.Set.empty steps1
      with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "jobs=%d: replayed path does not violate" jobs)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Deadlock capping                                                    *)
(* ------------------------------------------------------------------ *)

let max_deadlocks_caps () =
  let open Program in
  (* p0 branches on a racy read of r3, so two distinct stuck states are
     reachable (r2 = 0 or 1); p1 publishes r3 and then blocks *)
  let cfg =
    Config.make ~model:Memory_model.Pso
      ~layout:(Layout.flat ~nprocs:2 ~nregs:4)
      [|
        run
          (let* v = read 3 in
           let* () = write 2 v in
           let* () = fence in
           let* _ = await 0 (fun v -> v = 1) in
           return 0);
        run
          (let* () = write 3 1 in
           let* () = fence in
           let* _ = await 1 (fun v -> v = 1) in
           return 0);
      |]
  in
  let full = Explore.reference ~monitor:(fun () _ -> Ok ()) ~init:() cfg in
  Alcotest.(check bool)
    "multiple deadlock paths" true
    (List.length full.Explore.deadlocks >= 2);
  let capped =
    Mc.run ~monitor:(fun () _ -> Ok ()) ~init:() ~max_deadlocks:1 cfg
  in
  Alcotest.(check int)
    "capped to one" 1
    (List.length capped.Explore.deadlocks);
  (* same stuck states are still visited; only the path log is capped *)
  check_stats_equal "capped run stats" full.Explore.stats capped.Explore.stats

(* ------------------------------------------------------------------ *)
(* Random programs: engines agree (qcheck)                             *)
(* ------------------------------------------------------------------ *)

type rop = R of int | W of int * int | F | C of int * int

let show_rop = function
  | R r -> Printf.sprintf "R%d" r
  | W (r, v) -> Printf.sprintf "W(%d,%d)" r v
  | F -> "F"
  | C (r, u) -> Printf.sprintf "C(%d,0->%d)" r u

let arb_rops =
  QCheck.(
    make
      ~print:(fun (a, b) ->
        String.concat ";" (List.map show_rop a)
        ^ " || "
        ^ String.concat ";" (List.map show_rop b))
      Gen.(
        let ops =
          list_size (0 -- 4)
            (frequency
               [
                 (3, map2 (fun r v -> W (r, v)) (0 -- 1) (1 -- 2));
                 (3, map (fun r -> R r) (0 -- 1));
                 (1, return F);
                 (1, map2 (fun r u -> C (r, u)) (0 -- 1) (1 -- 2));
               ])
        in
        pair ops ops))

let program_of ops : Program.t =
  let open Program in
  let rec go = function
    | [] -> return 0
    | R r :: rest -> read r >>= fun _ -> go rest
    | W (r, v) :: rest -> write r v >>= fun () -> go rest
    | F :: rest -> fence >>= fun () -> go rest
    | C (r, u) :: rest -> cas r ~expect:0 ~update:u >>= fun _ -> go rest
  in
  run (go ops)

let config_of ~model (a, b) =
  Config.make ~model
    ~layout:(Layout.flat ~nprocs:2 ~nregs:2)
    [| program_of a; program_of b |]

let observe final =
  ( Config.read_mem final 0,
    Config.read_mem final 1,
    List.init (Config.nprocs final) (fun p -> (Config.pstate final p).Config.obs)
  )

let prop_engines_agree =
  QCheck.Test.make ~name:"random programs: engines agree" ~count:40 arb_rops
    (fun progs ->
      List.for_all
        (fun model ->
          let ref_out, ref_res =
            Explore.reference_outcomes ~observe (config_of ~model progs)
          in
          let mc_out, mc_res =
            Mc.reachable_outcomes ~engine:(`Parallel 2) ~observe
              (config_of ~model progs)
          in
          let por_out, por_res =
            Mc.reachable_outcomes ~engine:(`Parallel 2) ~por:true ~observe
              (config_of ~model progs)
          in
          ref_out = mc_out
          && ref_res.Explore.stats.Explore.states
             = mc_res.Explore.stats.Explore.states
          && ref_res.Explore.stats.Explore.transitions
             = mc_res.Explore.stats.Explore.transitions
          && ref_out = por_out
          && por_res.Explore.stats.Explore.states
             <= ref_res.Explore.stats.Explore.states)
        [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ])

(* ------------------------------------------------------------------ *)
(* Fingerprint sanity                                                  *)
(* ------------------------------------------------------------------ *)

let fingerprint_matches_key_equality () =
  (* equal keys => equal fingerprints; and across a real exploration,
     distinct keys never collided (else the parity tests above would
     have caught the state-count mismatch) — here just spot-check both
     directions on a handful of configurations *)
  let model = Memory_model.Pso in
  let mk () =
    Config.make ~model
      ~layout:(Layout.flat ~nprocs:2 ~nregs:2)
      [|
        program_of [ W (0, 1); F ];
        program_of [ R 0; W (1, 2) ];
      |]
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool)
    "equal configs, equal fingerprints" true
    (Mc.Fingerprint.equal (Mc.Fingerprint.of_config a)
       (Mc.Fingerprint.of_config b));
  let _, a' = Exec.exec_elt a (0, None) in
  Alcotest.(check bool)
    "distinct configs, distinct fingerprints" false
    (Mc.Fingerprint.equal (Mc.Fingerprint.of_config a)
       (Mc.Fingerprint.of_config a'))

(* ------------------------------------------------------------------ *)
(* The claim set is the reachable set                                  *)
(* ------------------------------------------------------------------ *)

(* Every normalized state reachable from [cfg0], built eagerly: each
   successor element executed on the full configuration, labels
   flushed, duplicates dropped on the exact key. *)
let reachable_normalized cfg0 =
  let seen = Hashtbl.create 4096 and stack = Stack.create () in
  Stack.push (snd (Exec.flush_labels cfg0)) stack;
  let states = ref [] in
  while not (Stack.is_empty stack) do
    let cfg = Stack.pop stack in
    let k = Statekey.to_string cfg in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      states := cfg :: !states;
      List.iter
        (fun e ->
          let _, child = Exec.exec_elt cfg e in
          Stack.push (snd (Exec.flush_labels child)) stack)
        (Explore.successor_elts cfg)
    end
  done;
  !states

(* The engine keys children from deltas and never builds duplicates.
   Equal state counts would not catch a delta key that is wrong but
   still injective; the claimed keys themselves must be exactly the
   fingerprints of the reachable normalized states. A run's first j=1
   checkpoint, taken once every state is claimed, carries every claim
   verbatim, each once. *)
let claim_set_is_reachable_set () =
  let case name ~monitor ~init cfg0 =
    let n = (Mc.run ~monitor ~init cfg0).Explore.stats.Explore.states in
    let cuts = ref [] in
    let r =
      Mc.run ~monitor ~init ~checkpoint:(n, fun c -> cuts := c :: !cuts) cfg0
    in
    Alcotest.(check int) (name ^ ": states") n r.Explore.stats.Explore.states;
    match !cuts with
    | [ c ] ->
        let logged =
          List.init
            (Bytes.length c.Mc.ck_keys / Mc.Fingerprint.bytes)
            (fun i -> Mc.Fingerprint.read c.Mc.ck_keys (i * Mc.Fingerprint.bytes))
        in
        let claims = List.sort_uniq Mc.Fingerprint.compare logged in
        let reachable = reachable_normalized cfg0 in
        let expected =
          List.sort_uniq Mc.Fingerprint.compare
            (List.map Mc.Fingerprint.of_config reachable)
        in
        Alcotest.(check int) (name ^ ": reachable states") n
          (List.length reachable);
        Alcotest.(check int) (name ^ ": distinct fingerprints") n
          (List.length expected);
        Alcotest.(check int) (name ^ ": claims") n (List.length logged);
        Alcotest.(check int) (name ^ ": distinct claims") n
          (List.length claims);
        Alcotest.(check bool)
          (name ^ ": claim set = {of_config c}")
          true
          (List.equal Mc.Fingerprint.equal claims expected)
    | cuts ->
        Alcotest.failf "%s: %d checkpoints, expected 1" name (List.length cuts)
  in
  let _, _, bakery =
    Verify.Mutex_check.workload ~model:Memory_model.Pso (lock "bakery")
      ~nprocs:2 ~rounds:1
  in
  case "bakery n=2 PSO" ~monitor:Verify.Mutex_check.cs_monitor
    ~init:Pid.Set.empty bakery;
  let fuzz =
    Fuzz.Gen.generate ~seed:6
      { Fuzz.Gen.default_params with procs = 3; len = 5 }
  in
  let _, fuzz_cfg =
    Litmus.Test.configure (Fuzz.Gen.compile fuzz) ~model:Memory_model.Ra
  in
  case
    (Fuzz.Gen.name fuzz ^ " RA")
    ~monitor:(fun () _ -> Ok ())
    ~init:() fuzz_cfg

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A run cut short by its state cap found no violation in a subset of
   the state space: it reads NO VIOLATION FOUND, never OK, and its
   records report holds = false with the verdict in words. The cap is
   enforced per claim: a capped run ends at exactly the cap, at any
   j. An untruncated run keeps its plain OK and adds no field. *)
let truncated_check_is_a_subset_verdict () =
  let bakery = Option.get (Locks.Registry.find "bakery") in
  let check jobs max_states =
    Verify.Mutex_check.check ~engine:(`Parallel jobs) ~max_states
      ~model:Memory_model.Pso bakery ~nprocs:3
  in
  List.iter
    (fun (jobs, cap) ->
      let v = check jobs cap in
      let states = v.Verify.Mutex_check.stats.Explore.states in
      let label = Fmt.str "j=%d cap=%d" jobs cap in
      Alcotest.(check bool) (label ^ ": truncated") true
        v.Verify.Mutex_check.stats.Explore.truncated;
      Alcotest.(check bool) (label ^ ": no violation") true
        v.Verify.Mutex_check.holds;
      Alcotest.(check int) (label ^ ": states = cap") cap states;
      Alcotest.(check string) (label ^ ": verdict")
        "NO VIOLATION FOUND (truncated subset)"
        (Verify.Mutex_check.verdict_text v);
      Alcotest.(check bool) (label ^ ": not established") false
        (Verify.Mutex_check.established v);
      Alcotest.(check bool) (label ^ ": verdict field") true
        (Verify.Mutex_check.truncated_fields v
        = [ ("verdict", Telemetry.Sink.S "NO VIOLATION FOUND (truncated subset)") ]);
      let line = Fmt.str "%a" Verify.Mutex_check.pp_verdict v in
      Alcotest.(check bool) (label ^ ": never OK: " ^ line) false
        (contains line ": OK"))
    [ (1, 1000); (1, 999); (2, 1000); (2, 1001) ];
  let v =
    Verify.Mutex_check.check ~model:Memory_model.Pso
      (Option.get (Locks.Registry.find "peterson")) ~nprocs:2
  in
  Alcotest.(check string) "complete run: OK" "OK" (Verify.Mutex_check.verdict_text v);
  Alcotest.(check bool) "complete run: established" true
    (Verify.Mutex_check.established v);
  Alcotest.(check bool) "complete run: no extra field" true
    (Verify.Mutex_check.truncated_fields v = [])

let suite =
  ( "mc",
    [
      Alcotest.test_case "litmus parity (1/2 domains)" `Quick
        litmus_parity_engines;
      Alcotest.test_case "litmus POR preserves outcomes" `Quick
        litmus_por_preserves_outcomes;
      Alcotest.test_case "lock parity (1/2 domains)" `Quick
        locks_parity_engines;
      Alcotest.test_case "bakery n=3 parity (acceptance)" `Slow bakery3_parity;
      Alcotest.test_case "POR preserves lock verdicts" `Quick
        locks_por_preserves_verdicts;
      Alcotest.test_case "POR still finds violations" `Quick
        por_still_finds_violations;
      Alcotest.test_case "replay deterministic (1/2/4 domains)" `Quick
        replay_deterministic;
      Alcotest.test_case "max_deadlocks caps the path log" `Quick
        max_deadlocks_caps;
      QCheck_alcotest.to_alcotest prop_engines_agree;
      Alcotest.test_case "fingerprint equality" `Quick
        fingerprint_matches_key_equality;
      Alcotest.test_case "claim set is the reachable set" `Quick
        claim_set_is_reachable_set;
      Alcotest.test_case "truncated check is a subset verdict" `Quick
        truncated_check_is_a_subset_verdict;
    ] )
