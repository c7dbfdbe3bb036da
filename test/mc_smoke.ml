(* mc-smoke: a fast standalone check that the multicore engine paths
   (domains, sharded visited set, work sharing, POR) actually run and
   agree with the exact-key reference explorer, plus a bounded leg:
   reorder bound K=2 on the (fenced) bakery certifies saturation at the
   unbounded state count, and one deepening run finds the unfenced
   bakery's PSO violation. Kept separate from the main Alcotest binary
   so `make mc-smoke` has a sub-second entry point; dune runtest
   executes both. *)

open Memsim

let fail fmt = Fmt.kstr (fun m -> prerr_endline ("FAIL " ^ m); exit 1) fmt

let () =
  (* one lock check across engines, POR on and off, against the
     reference explorer on the same workload and monitor *)
  let factory = Option.get (Locks.Registry.find "peterson") in
  let model = Memory_model.Pso in
  let reference =
    let _, _, cfg =
      Verify.Mutex_check.workload ~model factory ~nprocs:2 ~rounds:1
    in
    Explore.reference ~monitor:Verify.Mutex_check.cs_monitor
      ~init:Pid.Set.empty cfg
  in
  let ref_holds =
    reference.Explore.violations = [] && reference.Explore.deadlocks = []
  and ref_states = reference.Explore.stats.Explore.states in
  List.iter
    (fun (engine, por) ->
      let v = Verify.Mutex_check.check ~engine ~por ~model factory ~nprocs:2 in
      if v.Verify.Mutex_check.holds <> ref_holds then
        fail "peterson verdict flipped (por=%b)" por;
      let states = v.Verify.Mutex_check.stats.Explore.states in
      if por then begin
        if states > ref_states then fail "POR grew the state space"
      end
      else if states <> ref_states then
        fail "engine state-count mismatch: reference=%d mc=%d" ref_states
          states)
    [ (`Parallel 1, false); (`Parallel 2, false); (`Parallel 2, true) ];
  (* one litmus case across engines *)
  let sb =
    List.find (fun t -> t.Litmus.Test.name = "SB") Litmus.Cases.all
  in
  let r0, _ =
    let regs, cfg = Litmus.Test.configure sb ~model:Memory_model.Tso in
    Explore.reference_outcomes ~observe:(Litmus.Test.observe sb regs) cfg
  in
  let r1 = Litmus.Test.run ~engine:(`Parallel 2) sb ~model:Memory_model.Tso in
  let r2 =
    Litmus.Test.run ~engine:(`Parallel 2) ~por:true sb ~model:Memory_model.Tso
  in
  if r1.Litmus.Test.outcomes <> r0 then
    fail "SB outcomes differ under the parallel engine";
  if r2.Litmus.Test.outcomes <> r0 then fail "SB outcomes differ under POR";
  (* bounded leg: every bakery write is immediately fenced, so K=2 can
     never be charged — the run must certify saturation and reproduce
     the unbounded state count exactly *)
  let bakery = Option.get (Locks.Registry.find "bakery") in
  let unb = Verify.Mutex_check.check ~model bakery ~nprocs:2 in
  let b2 =
    Verify.Mutex_check.check ~reorder_bound:(`K 2) ~model bakery ~nprocs:2
  in
  if not b2.Verify.Mutex_check.holds then fail "bakery broken at K=2";
  if not b2.Verify.Mutex_check.bound_exact then
    fail "bakery K=2 failed to certify saturation";
  if
    b2.Verify.Mutex_check.stats.Explore.states
    <> unb.Verify.Mutex_check.stats.Explore.states
  then
    fail "bakery K=2 state count drifted: %d vs unbounded %d"
      b2.Verify.Mutex_check.stats.Explore.states
      unb.Verify.Mutex_check.stats.Explore.states;
  (* deepening leg: the driver must find the unfenced bakery's PSO
     violation exactly like the unbounded engine does *)
  let unfenced =
    Locks.Variants.bakery_variant
      (List.find
         (fun s -> s.Locks.Variants.label = "unfenced")
         Locks.Variants.all_specs)
  in
  let exact = Verify.Mutex_check.check ~model unfenced ~nprocs:2 in
  let deep =
    Verify.Mutex_check.check ~reorder_bound:`Deepen ~model unfenced ~nprocs:2
  in
  if exact.Verify.Mutex_check.holds then
    fail "expected the unfenced bakery to break under PSO";
  if deep.Verify.Mutex_check.holds then
    fail "deepen missed the unfenced violation the exact engine finds";
  if deep.Verify.Mutex_check.deepen_levels = [] then
    fail "deepen recorded no levels";
  print_endline "mc-smoke OK"
