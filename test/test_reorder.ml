(* Reorder-bounded exploration: budget semantics (K=0 is the
   SC-consistent core), the unfenced-bakery states-vs-K ladder and the
   n=3 "bounded explores <= 20% of unbounded" acceptance pin,
   saturation certification (fenced bakery at K=0), verdict honesty
   below saturation, iterative-deepening parity with the exact engine
   on the fence-ablation corpus, the widened 62-bit site masks at the
   old 30-site boundary, and qcheck properties: outcome monotonicity
   in K and K=0 = SC on generated programs. *)

open Memsim

let cap = 400_000
let lock name = Option.get (Locks.Registry.find name)

let variant label =
  Locks.Variants.bakery_variant
    (List.find
       (fun s -> s.Locks.Variants.label = label)
       Locks.Variants.all_specs)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Monitor-free reachability of the standard checking workload — the
   metric the states-vs-K pins are stated over. *)
let reach ?reorder_bound ?(por = false) ?(max_states = cap) ~nprocs factory =
  let _, _, cfg =
    Verify.Mutex_check.workload ~model:Memory_model.Pso factory ~nprocs
      ~rounds:1
  in
  Mc.run_plain ~engine:(`Parallel 1) ~por ~max_states ?reorder_bound cfg

(* --- the states-vs-K ladder -------------------------------------------- *)

let unfenced_ladder_pin () =
  (* unfenced bakery n=2 PSO: the bounded state counts grow monotonically
     in K and reach the unbounded count exactly at K=4 (= the max total
     buffer occupancy, 2 procs x 2 pending writes), where the run
     certifies saturation with zero bound hits *)
  let expect = [ (0, 1_040); (1, 8_883); (2, 29_440); (3, 41_131); (4, 43_498) ] in
  let runs =
    List.map
      (fun (k, states) -> (k, states, reach ~reorder_bound:k ~nprocs:2 (variant "unfenced")))
      expect
  in
  List.iter
    (fun (k, states, (r : unit Explore.result)) ->
      Alcotest.(check bool) (Fmt.str "K=%d completes" k) false
        r.Explore.stats.Explore.truncated;
      Alcotest.(check int) (Fmt.str "K=%d states" k) states
        r.Explore.stats.Explore.states)
    runs;
  let hits k = (List.nth runs k |> fun (_, _, r) -> r.Explore.stats.Explore.bound_hits) in
  Alcotest.(check bool) "K=3 is a proper subset and knows it" true (hits 3 > 0);
  Alcotest.(check int) "K=4 certifies saturation" 0 (hits 4);
  let unb = reach ~nprocs:2 (variant "unfenced") in
  Alcotest.(check int) "K=4 = unbounded exactly" unb.Explore.stats.Explore.states
    43_498

let bounded_por_regression () =
  (* the budget-aware ample filter (Por.ample_candidates ?bound):
     bounded+POR explores no more states than bounded-alone at every K
     of the ladder. The POR counts equal the pre-fix values — not
     strictly fewer — because the budget-aware filter is extensionally
     identical to the budget-oblivious one under the current charging
     rules: an empty-buffer local op never flips an overtaken flag, and
     a non-empty buffer always retains an admissible commit (draining
     oldest-first is budget-free), so bound-pruning can never shrink a
     process's admissible set to a fresh local singleton. The filter
     computes admissibility instead of assuming that theorem; these
     pins hold it in place if the charging rules ever change. *)
  let expect =
    [
      (0, 753, 1_040);
      (1, 7_234, 8_883);
      (2, 25_272, 29_440);
      (3, 35_954, 41_131);
      (4, 38_343, 43_498);
    ]
  in
  List.iter
    (fun (k, por_states, plain_states) ->
      let r = reach ~reorder_bound:k ~por:true ~nprocs:2 (variant "unfenced") in
      Alcotest.(check bool) (Fmt.str "K=%d+por completes" k) false
        r.Explore.stats.Explore.truncated;
      Alcotest.(check int) (Fmt.str "K=%d+por states" k) por_states
        r.Explore.stats.Explore.states;
      Alcotest.(check bool) (Fmt.str "K=%d: por <= bounded-alone" k) true
        (r.Explore.stats.Explore.states <= plain_states))
    expect;
  (* unbounded POR is byte-identical to its pre-fix behavior: the
     [?bound:None] path of the filter is the original computation *)
  let u = reach ~por:true ~nprocs:2 (variant "unfenced") in
  Alcotest.(check int) "unbounded+por states" 38_343
    u.Explore.stats.Explore.states;
  Alcotest.(check int) "unbounded+por transitions" 93_423
    u.Explore.stats.Explore.transitions

let bounded_explores_a_fifth_at_n3 () =
  (* the acceptance pin, in its sound form: at n=3 the K=0 run completes
     in S states while the unbounded space still exceeds 5*S (the run
     truncates at that cap), so the bounded run explored <= 20% of the
     unbounded count *)
  let s = 348_294 in
  let b = reach ~reorder_bound:0 ~max_states:600_000 ~nprocs:3 (variant "unfenced") in
  Alcotest.(check bool) "K=0 completes" false b.Explore.stats.Explore.truncated;
  Alcotest.(check int) "K=0 states" s b.Explore.stats.Explore.states;
  let u = reach ~max_states:(5 * s) ~nprocs:3 (variant "unfenced") in
  Alcotest.(check bool) "unbounded exceeds five times the K=0 count" true
    u.Explore.stats.Explore.truncated

(* --- saturation certification and verdict honesty --------------------- *)

let fenced_bakery_saturates_at_k0 () =
  (* every bakery write is immediately fenced, so no write is ever
     overtaken: K=0 never prunes, the run certifies saturation, and the
     verdict is the plain exact OK at the unbounded state count *)
  let v =
    Verify.Mutex_check.check ~max_states:cap ~reorder_bound:(`K 0)
      ~model:Memory_model.Pso (lock "bakery") ~nprocs:2
  in
  Alcotest.(check bool) "holds" true v.Verify.Mutex_check.holds;
  Alcotest.(check bool) "exact" true v.Verify.Mutex_check.bound_exact;
  Alcotest.(check int) "zero bound hits" 0
    v.Verify.Mutex_check.stats.Explore.bound_hits;
  let unb =
    Verify.Mutex_check.check ~max_states:cap ~model:Memory_model.Pso
      (lock "bakery") ~nprocs:2
  in
  Alcotest.(check int) "same states as unbounded"
    unb.Verify.Mutex_check.stats.Explore.states
    v.Verify.Mutex_check.stats.Explore.states;
  let rendered = Fmt.str "%a" Verify.Mutex_check.pp_verdict v in
  Alcotest.(check bool) "prints plain OK" true (contains rendered ": OK (");
  Alcotest.(check bool) "no subset qualifier" false (contains rendered "subset")

let below_saturation_never_plain_ok () =
  (* peterson-unfenced under TSO: K=0 misses the real violation, so the
     clean pass must present itself as a subset verdict *)
  let v =
    Verify.Mutex_check.check ~max_states:cap ~reorder_bound:(`K 0)
      ~model:Memory_model.Tso (lock "peterson-unfenced") ~nprocs:2
  in
  Alcotest.(check bool) "no violation found at K=0" true
    v.Verify.Mutex_check.holds;
  Alcotest.(check bool) "not exact" false v.Verify.Mutex_check.bound_exact;
  let rendered = Fmt.str "%a" Verify.Mutex_check.pp_verdict v in
  Alcotest.(check bool) "says subset" true
    (contains rendered "NO VIOLATION FOUND (reorder-bound 0 subset)");
  Alcotest.(check bool) "never plain OK" false (contains rendered ": OK");
  (* and the unbounded engine does find the violation the bound hid *)
  let unb =
    Verify.Mutex_check.check ~max_states:cap ~model:Memory_model.Tso
      (lock "peterson-unfenced") ~nprocs:2
  in
  Alcotest.(check bool) "unbounded finds it" false unb.Verify.Mutex_check.holds

(* --- iterative deepening ----------------------------------------------- *)

let overlap_of_trace trace =
  List.fold_left
    (fun (inside, seen) s ->
      match s with
      | Step.Note { text = "cs:enter"; _ } -> (inside + 1, max seen (inside + 1))
      | Step.Note { text = "cs:exit"; _ } -> (inside - 1, seen)
      | _ -> (inside, seen))
    (0, 0) trace
  |> snd

let deepen_matches_exact_on_ablation () =
  (* the acceptance claim: deepening finds every seeded mutex violation
     the exact engine finds (and only those), its counterexamples
     replay, and its clean passes are saturation-certified *)
  List.iter
    (fun (spec : Locks.Variants.spec) ->
      let factory = Locks.Variants.bakery_variant spec in
      List.iter
        (fun model ->
          let tag =
            Fmt.str "bakery-%s under %a" spec.Locks.Variants.label
              Memory_model.pp model
          in
          let exact =
            Verify.Mutex_check.check ~max_states:cap ~model factory ~nprocs:2
          in
          let deep =
            Verify.Mutex_check.check ~max_states:cap ~reorder_bound:`Deepen
              ~model factory ~nprocs:2
          in
          Alcotest.(check bool) tag exact.Verify.Mutex_check.holds
            deep.Verify.Mutex_check.holds;
          Alcotest.(check bool) (tag ^ ": levels recorded") true
            (deep.Verify.Mutex_check.deepen_levels <> []);
          if deep.Verify.Mutex_check.holds then
            Alcotest.(check bool) (tag ^ ": clean pass is certified") true
              deep.Verify.Mutex_check.bound_exact
          else
            match deep.Verify.Mutex_check.me_violation with
            | None -> ()
            | Some path ->
                let trace, _ =
                  Verify.Mutex_check.replay ~model factory ~nprocs:2 ~rounds:1
                    path
                in
                Alcotest.(check int) (tag ^ ": counterexample replays") 2
                  (overlap_of_trace trace))
        (* deepening is reorder-bounded exploration: write-buffer
           models only (view models reject the bound — pinned in
           test_ra) *)
        (List.filter
           (fun m -> not (Memory_model.view_based m))
           Memory_model.all))
    Locks.Variants.all_specs

let deepen_replays_first_violation_verbatim () =
  (* the deepening driver is deterministic: two runs produce the same
     first counterexample schedule, and it replays to an overlap *)
  let run () =
    Verify.Mutex_check.check ~max_states:cap ~reorder_bound:`Deepen
      ~model:Memory_model.Pso (variant "unfenced") ~nprocs:2
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "violation found" false a.Verify.Mutex_check.holds;
  Alcotest.(check bool) "same schedule on re-run" true
    (a.Verify.Mutex_check.me_violation = b.Verify.Mutex_check.me_violation);
  match a.Verify.Mutex_check.me_violation with
  | None -> Alcotest.fail "expected a mutual-exclusion counterexample"
  | Some path ->
      let trace, _ =
        Verify.Mutex_check.replay ~model:Memory_model.Pso (variant "unfenced")
          ~nprocs:2 ~rounds:1 path
      in
      Alcotest.(check int) "replays verbatim to an overlap" 2
        (overlap_of_trace trace)

let violation_monotone_in_k () =
  (* a violation found at the deepening driver's final bound K is found
     again at K and at K+1 by direct bounded runs *)
  let deep =
    Verify.Mutex_check.check ~max_states:cap ~reorder_bound:`Deepen
      ~model:Memory_model.Pso (variant "unfenced") ~nprocs:2
  in
  Alcotest.(check bool) "deepen finds the violation" false
    deep.Verify.Mutex_check.holds;
  let k = Option.get deep.Verify.Mutex_check.reorder_bound in
  List.iter
    (fun k' ->
      let v =
        Verify.Mutex_check.check ~max_states:cap ~reorder_bound:(`K k')
          ~model:Memory_model.Pso (variant "unfenced") ~nprocs:2
      in
      Alcotest.(check bool) (Fmt.str "violated at K=%d" k') false
        v.Verify.Mutex_check.holds)
    [ k; k + 1 ]

(* --- qcheck properties over generated programs ------------------------- *)

let gen_params = { Fuzz.Gen.default_params with len = 5; nregs = 2 }

let prop_outcomes_monotone_in_k =
  QCheck.Test.make ~name:"bounded outcome sets are monotone in K" ~count:30
    QCheck.(pair (int_bound 9_999) (int_bound 2))
    (fun (seed, k) ->
      let test = Fuzz.Gen.compile (Fuzz.Gen.generate ~seed gen_params) in
      let at k =
        (Litmus.Test.run ~reorder_bound:(`K k) test ~model:Memory_model.Pso)
          .Litmus.Test.outcomes
      in
      let smaller = at k and larger = at (k + 1) in
      List.for_all (fun o -> List.mem o larger) smaller)

let prop_deepen_levels_jobs_invariant =
  (* satellite pin: deepen's level records are deterministic at any
     --jobs — the boundary reseed is sorted by bounded key, so the
     per-level NDJSON (rendered through the same sink the CLI uses)
     is byte-identical across j ∈ {1, 4} *)
  QCheck.Test.make ~name:"deepen level NDJSON is byte-identical at j=1 and j=4"
    ~count:15
    QCheck.(int_bound 9_999)
    (fun seed ->
      let test = Fuzz.Gen.compile (Fuzz.Gen.generate ~seed gen_params) in
      let _, cfg = Litmus.Test.configure test ~model:Memory_model.Pso in
      let ndjson jobs =
        let _, (d : unit Mc.deepen_result) =
          Mc.deepen_outcomes ~jobs ~observe:(fun _ -> ()) cfg
        in
        let path = Filename.temp_file "fencelab_deepen" ".ndjson" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let s = Telemetry.Sink.create path in
            List.iter
              (fun (l : Mc.deepen_level) ->
                Telemetry.Sink.emit s ~kind:"deepen_level"
                  Telemetry.Sink.
                    [
                      ("bound", I l.Mc.bound);
                      ("states", I l.Mc.states);
                      ("transitions", I l.Mc.transitions);
                      ("bound_hits", I l.Mc.bound_hits);
                      ("violations", I l.Mc.violations);
                    ])
              d.Mc.levels;
            Telemetry.Sink.close s;
            let ic = open_in_bin path in
            let n = in_channel_length ic in
            let bytes = really_input_string ic n in
            close_in ic;
            bytes)
      in
      ndjson 1 = ndjson 4)

let prop_k0_equals_sc =
  QCheck.Test.make
    ~name:"K=0 outcome set = SC on buffered models (generated programs)"
    ~count:40
    QCheck.(int_bound 9_999)
    (fun seed ->
      let test = Fuzz.Gen.compile (Fuzz.Gen.generate ~seed gen_params) in
      let sc = (Litmus.Test.run test ~model:Memory_model.Sc).Litmus.Test.outcomes in
      List.for_all
        (fun model ->
          (Litmus.Test.run ~reorder_bound:(`K 0) test ~model).Litmus.Test.outcomes
          = sc)
        [ Memory_model.Tso; Memory_model.Pso; Memory_model.Rmo ])

(* --- widened site masks ------------------------------------------------ *)

let sites_boundary_after_widening () =
  (* the old 30-site cap is now well inside range... *)
  let m30 = Synth.Sites.full 30 in
  Alcotest.(check int) "30 sites all kept" 30 (Synth.Sites.popcount m30);
  Alcotest.(check int) "full 30 = 2^30 - 1" ((1 lsl 30) - 1) m30;
  Alcotest.(check bool) "site 29 in, site 30 out" true
    (Synth.Sites.mem m30 29 && not (Synth.Sites.mem m30 30));
  (* ... the new capacity packs 62 sites into a non-negative int ... *)
  let m62 = Synth.Sites.full Synth.Sites.max_sites in
  Alcotest.(check int) "max_sites" 62 Synth.Sites.max_sites;
  Alcotest.(check int) "62 sites all kept" 62 (Synth.Sites.popcount m62);
  Alcotest.(check bool) "full 62 is non-negative" true (m62 >= 0);
  Alcotest.(check bool) "full is monotone at the top" true
    (Synth.Sites.subset (Synth.Sites.full 61) m62);
  (* ... and past it the cap errors instead of silently truncating *)
  Alcotest.check_raises "63 sites rejected"
    (Invalid_argument "Sites: 63 sites (max 62: one int bitset)") (fun () ->
      ignore (Synth.Sites.full 63))

let suite =
  ( "reorder-bound",
    [
      Alcotest.test_case "unfenced bakery n=2: states-vs-K ladder" `Quick
        unfenced_ladder_pin;
      Alcotest.test_case "bounded+POR: budget-aware ample regression" `Quick
        bounded_por_regression;
      Alcotest.test_case "unfenced bakery n=3: K=0 explores <= 20%" `Slow
        bounded_explores_a_fifth_at_n3;
      Alcotest.test_case "fenced bakery saturates at K=0 (exact OK)" `Quick
        fenced_bakery_saturates_at_k0;
      Alcotest.test_case "below saturation never prints plain OK" `Quick
        below_saturation_never_plain_ok;
      Alcotest.test_case "deepen = exact engine on the ablation corpus" `Slow
        deepen_matches_exact_on_ablation;
      Alcotest.test_case "deepen replays its first violation verbatim" `Quick
        deepen_replays_first_violation_verbatim;
      Alcotest.test_case "violations are monotone in K" `Quick
        violation_monotone_in_k;
      QCheck_alcotest.to_alcotest prop_outcomes_monotone_in_k;
      QCheck_alcotest.to_alcotest prop_deepen_levels_jobs_invariant;
      QCheck_alcotest.to_alcotest prop_k0_equals_sc;
      Alcotest.test_case "site masks: old 30-site boundary, new 62 cap" `Quick
        sites_boundary_after_widening;
    ] )
