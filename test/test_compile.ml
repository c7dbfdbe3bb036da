(* Continuation sharing: the shared build (compile:true) and the raw
   closure tree (compile:false) must agree — on a lock's verdict and
   counts, on fence masking, and over generated programs (outcome
   sets, state counts and transition counts at every model x engine,
   and across a program's tree-walk rebuild) — and the post-label
   forcing count stays pinned. *)

open Memsim
module P = Program

let lock_fallback_agrees () =
  (* bakery's computed writes and data spins fill the memo tables with
     data-dependent entries; the verdict and the exploration counts
     must not care *)
  let factory = Option.get (Locks.Registry.find "bakery") in
  let check compile =
    Verify.Mutex_check.check ~compile ~rounds:1 ~model:Memory_model.Tso
      factory ~nprocs:2
  in
  let a = check true and b = check false in
  Alcotest.(check bool) "verdict agrees" b.Verify.Mutex_check.holds
    a.Verify.Mutex_check.holds;
  Alcotest.(check int) "states agree" b.Verify.Mutex_check.stats.Explore.states
    a.Verify.Mutex_check.stats.Explore.states;
  Alcotest.(check int) "transitions agree"
    b.Verify.Mutex_check.stats.Explore.transitions
    a.Verify.Mutex_check.stats.Explore.transitions

(* ------------------------------------------------------------------ *)
(* Fence masking                                                       *)
(* ------------------------------------------------------------------ *)

let fence_mask_extremes () =
  let prog =
    {
      Fuzz.Gen.seed = 0;
      params = Fuzz.Gen.default_params;
      nregs = 2;
      procs =
        [|
          [ Fuzz.Gen.Write (0, 1); Fuzz.Gen.Fence; Fuzz.Gen.Read 1 ];
          [ Fuzz.Gen.Write (1, 1); Fuzz.Gen.Fence; Fuzz.Gen.Read 0 ];
        |];
    }
  in
  let test = Fuzz.Gen.compile prog in
  let run t model = (Litmus.Test.run t ~model).Litmus.Test.outcomes in
  let full = Litmus.Test.with_fence_mask ~keep:(fun _ -> true) test in
  Alcotest.(check bool) "full mask is the identity" true
    (run full Memory_model.Tso = run test Memory_model.Tso);
  let none = Litmus.Test.with_fence_mask ~keep:(fun _ -> false) test in
  Alcotest.(check bool) "empty mask equals the stripped program" true
    (run none Memory_model.Tso
    = run (Fuzz.Gen.compile (Fuzz.Gen.strip_fences prog)) Memory_model.Tso)

(* ------------------------------------------------------------------ *)
(* Post-label caching: forcing-count pin                               *)
(* ------------------------------------------------------------------ *)

let label_forced_once () =
  (* a label continuation that counts its forcings: the cached
     post-label program ([pstate.skipped]) pins the count at exactly
     two per state that steps through the label — once to cache the
     post-label program at pstate construction, once in the
     Note-emitting flush — no matter how many times exploration
     queries the state (blocked checks, kind dispatch, keying), where
     the uncached interpreter re-forced it per query.
     [compile:false] runs the raw tree, so sharing's memo cells do not
     absorb the forcings being counted. *)
  let forced = ref 0 in
  let t =
    {
      Litmus.Test.name = "label-force-count";
      description = "";
      nregs = 1;
      programs =
        (fun r ->
          [|
            P.Write
              ( r.(0),
                1,
                fun () ->
                  P.Label
                    ( "count",
                      fun () ->
                        incr forced;
                        P.Read (r.(0), fun _ -> P.Ret 0) ) );
          |]);
      observed = (fun _ -> []);
    }
  in
  let r = Litmus.Test.run ~compile:false t ~model:Memory_model.Sc in
  Alcotest.(check int) "single completed run" 1
    (List.length r.Litmus.Test.outcomes);
  Alcotest.(check int) "label continuation forced exactly twice" 2 !forced

(* ------------------------------------------------------------------ *)
(* Parity: shared vs raw over generated programs                       *)
(* ------------------------------------------------------------------ *)

(* [`Reference] is the exact-key Explore.reference explorer *)
let run_config ?(rebuild = false) ~compile ~engine ~por seed params model =
  let test = Fuzz.Gen.compile (Fuzz.Gen.generate ~seed params) in
  let test =
    if rebuild then Litmus.Test.with_fence_mask ~keep:(fun _ -> true) test
    else test
  in
  let outcomes, (stats : Explore.stats) =
    match engine with
    | `Reference ->
        let regs, cfg = Litmus.Test.configure ~compile test ~model in
        let outcomes, r =
          Explore.reference_outcomes ~observe:(Litmus.Test.observe test regs)
            cfg
        in
        (outcomes, r.Explore.stats)
    | `Parallel _ as engine ->
        let r = Litmus.Test.run ~compile ~engine ~por test ~model in
        (r.Litmus.Test.outcomes, r.Litmus.Test.stats)
  in
  (outcomes, stats.Explore.states, stats.Explore.transitions)

let engines =
  [ (`Reference, false); (`Parallel 1, false); (`Parallel 1, true) ]

let engine_name (e, por) =
  match e with
  | `Reference -> "reference"
  | `Parallel j -> Fmt.str "mc j=%d%s" j (if por then "+por" else "")

(* Every model x engine: the shared build (compile:true) and the raw
   closure tree (compile:false) must produce identical outcome sets,
   visit the same number of states and take the same number of
   transitions — sharing is semantics- and metrics-invisible. *)
let prop_parity =
  QCheck.Test.make ~name:"compiled = closure at every model x engine"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Fuzz.Gen.default_params with len = 4 } in
      List.for_all
        (fun model ->
          List.for_all
            (fun ((engine, por) as e) ->
              let a = run_config ~compile:true ~engine ~por seed params model
              and b =
                run_config ~compile:false ~engine ~por seed params model
              in
              let _, sa, _ = a and _, sb, _ = b in
              if a <> b then
                QCheck.Test.fail_reportf
                  "seed %d diverges under %a / %s: shared %d states, raw %d \
                   states"
                  seed Memory_model.pp model (engine_name e) sa sb
              else true)
            engines)
        Memory_model.all)

(* The two builds of one program — the generated tree as is, and its
   lazy tree-walk rebuild (the full fence mask, step-for-step the same
   program) — each under compile:true and compile:false: all four
   corners agree on outcomes and counts. *)
let prop_parity_corners =
  QCheck.Test.make ~name:"all four build x compile corners agree" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Fuzz.Gen.default_params with len = 4 } in
      List.for_all
        (fun model ->
          let reference =
            run_config ~compile:false ~engine:`Reference ~por:false seed
              params model
          in
          List.for_all
            (fun (rebuild, compile) ->
              run_config ~rebuild ~compile ~engine:`Reference ~por:false seed
                params model
              = reference)
            [ (true, true); (true, false); (false, true) ])
        [ Memory_model.Sc; Memory_model.Pso; Memory_model.Ra ])

let suite =
  ( "compile",
    [
      Alcotest.test_case "lock fallback agrees with the closure path" `Quick
        lock_fallback_agrees;
      Alcotest.test_case "fence masking: full is identity, empty strips"
        `Quick fence_mask_extremes;
      Alcotest.test_case "post-label forcing count is pinned" `Quick
        label_forced_once;
      QCheck_alcotest.to_alcotest prop_parity;
      QCheck_alcotest.to_alcotest prop_parity_corners;
    ] )
