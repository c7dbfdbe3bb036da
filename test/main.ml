(* Test runner: one Alcotest binary aggregating every suite.

   `dune runtest` executes quick tests; slow (exhaustive-exploration)
   cases are included too — the whole run is sized to stay in CI
   territory (~a minute). *)

let () =
  Alcotest.run "fencelab"
    [
      Test_wbuf.suite;
      Test_layout.suite;
      Test_exec.suite;
      Test_compile.suite;
      Test_statekey.suite;
      Test_semantics.suite;
      Test_metrics.suite;
      Test_scheduler.suite;
      Test_explore.suite;
      Test_litmus.suite;
      Test_locks.suite;
      Test_gt.suite;
      Test_synthesis.suite;
      Test_synth.suite;
      Test_objects.suite;
      Test_decoder.suite;
      Test_encoding.suite;
      Test_lemma51.suite;
      Test_tradeoff.suite;
      Test_mc.suite;
      Test_frontier.suite;
      Test_reorder.suite;
      Test_ra.suite;
      Test_fuzz.suite;
      Test_stress.suite;
      Test_telemetry.suite;
      Test_serve.suite;
    ]
