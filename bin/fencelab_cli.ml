(* fencelab — command-line front end.

   Subcommands:
     locks            list available lock algorithms
     passage          fence/RMR cost of one uncontended passage
     sweep            GT_f tradeoff sweep (Equation 2)
     check            exhaustive mutual-exclusion check (+ counterexample)
     stress           randomized stress test
     litmus           reachable litmus outcomes per memory model
     fuzz             differential fuzzing of programs, models, engines
     synth            counterexample-guided fence synthesis + Pareto frontier
     encode           run the Section 5 encoder on a permutation
     serve            job-queue daemon: check/litmus/fuzz/synth/atlas specs
                      over a worker pool, with checkpoint/resume         *)

open Cmdliner
open Memsim

let model_conv =
  let parse s =
    match Memory_model.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Fmt.str "unknown memory model %S" s))
  in
  Arg.conv (parse, Memory_model.pp)

let model_doc =
  Fmt.str "Memory model: %s."
    (String.concat ", " (List.map Memory_model.to_string Memory_model.all))

let model_t =
  Arg.(
    value
    & opt model_conv Memory_model.Pso
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:model_doc)

let lock_conv =
  let parse s =
    match Locks.Registry.find s with
    | Some f -> Ok (s, f)
    | None ->
        Error
          (`Msg
             (Fmt.str "unknown lock %S (have: %s)" s
                (String.concat ", " Locks.Registry.names)))
  in
  Arg.conv (parse, fun ppf (s, _) -> Fmt.string ppf s)

let lock_t =
  Arg.(
    required
    & pos 0 (some lock_conv) None
    & info [] ~docv:"LOCK" ~doc:"Lock algorithm (see $(b,fencelab locks)).")

let nprocs_t =
  Arg.(value & opt int 4 & info [ "n"; "nprocs" ] ~docv:"N" ~doc:"Process count.")

let jobs_t =
  let domains =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | _ -> Error (`Msg (Fmt.str "expected a domain count J >= 1, got %S" s))
    in
    Arg.conv (parse, Fmt.int)
  in
  Arg.(
    value
    & opt domains 1
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Domains the model-checking engine explores with (J >= 1; \
           default 1, which runs in a deterministic order).")

let por_t =
  Arg.(
    value
    & flag
    & info [ "por" ]
        ~doc:
          "Partial-order reduction (safe-step persistent sets).")

(* --reorder-bound K | deepen: the reorder-bounded under-approximation
   (fixed budget) or iterative deepening until violation/saturation. *)
let bound_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "deepen" -> Ok `Deepen
    | s -> (
        match int_of_string_opt s with
        | Some k when k >= 0 -> Ok (`K k)
        | _ ->
            Error
              (`Msg
                 (Fmt.str
                    "expected a non-negative reorder bound or 'deepen', got %S"
                    s)))
  in
  let print ppf = function
    | `Deepen -> Fmt.string ppf "deepen"
    | `K k -> Fmt.int ppf k
  in
  Arg.conv (parse, print)

let reorder_bound_t =
  Arg.(
    value
    & opt (some bound_conv) None
    & info [ "reorder-bound" ] ~docv:"K|deepen"
        ~doc:
          "Bound the number of reorderings in flight per execution: an \
           edge whose successor carries more than $(docv) pending writes \
           overtaken by younger operations is pruned. 0 restricts \
           buffered models to their SC-consistent executions; a bound \
           at least the maximal buffer occupancy changes nothing. A \
           clean verdict below saturation is reported as a subset \
           ('NO VIOLATION FOUND (reorder-bound K subset)'), never as a \
           plain OK; a run that never hit the bound certifies saturation \
           and stays exact. $(b,deepen) starts at 0 and widens the bound \
           until a violation or saturation, resuming the visited set \
           between levels.")

(* --- observability ------------------------------------------------ *)

let progress_t =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Print a live progress line to stderr every $(b,--interval) \
           seconds: elapsed time, primary rate (states/s or programs/s), \
           and the run's counters and gauges (frontier depth, visited \
           occupancy and skew, steals, sleeps, reduction prunes). The \
           sampler runs on its own domain; workers only ever bump plain \
           pre-allocated counters, so throughput is unaffected.")

let interval_t =
  Arg.(
    value
    & opt float 1.0
    & info [ "interval" ] ~docv:"SEC"
        ~doc:"Seconds between progress/stats samples (default 1.0).")

let stats_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-out" ] ~docv:"FILE"
        ~doc:
          "Append NDJSON telemetry to $(docv): one flat JSON object per \
           line, $(b,\"type\":\"sample\") records at each interval and a \
           final $(b,\"type\":\"run\") record whose states/transitions \
           fields are the authoritative verdict values.")

(* Shared --progress/--interval/--stats-out plumbing. [f] receives the
   hub and a [finish] continuation: call [finish fields] once the
   verdict is known — it stops the sampler (flushing one last sample)
   and appends the final ["run"] record with [fields] prepended to the
   hub's counter totals, so authoritative verdict fields win over any
   same-named counter (Sink.emit drops duplicate keys). If [f] escapes
   by exception the sampler is still stopped and the sink closed, but
   no ["run"] record is written — an interrupted file ends in samples,
   never a bogus verdict. *)
let with_telemetry ~progress ~interval ~stats_out ~workers ~label f =
  let tel = Telemetry.Hub.create ~workers () in
  let sink = Option.map Telemetry.Sink.create stats_out in
  let sampler =
    if progress || Option.is_some sink then
      Some
        (Telemetry.Sampler.start ~hub:tel ~interval ~label
           ?progress:(if progress then Some Fmt.stderr else None)
           ?sink ())
    else None
  in
  let finished = ref false in
  (* [records] lets a verdict ship auxiliary NDJSON records (e.g. one
     "deepen_level" per widening step) ahead of the final "run" record;
     they are written after the sampler stops, so nothing interleaves. *)
  let cleanup ~run_record ?(records = []) fields =
    if not !finished then begin
      finished := true;
      Option.iter Telemetry.Sampler.stop sampler;
      Option.iter
        (fun s ->
          if run_record then begin
            List.iter
              (fun (kind, flds) -> Telemetry.Sink.emit s ~kind flds)
              records;
            Telemetry.Sink.emit s ~kind:"run"
              (fields
              @ List.map
                  (fun (k, v) -> (k, Telemetry.Sink.I v))
                  (Telemetry.Hub.counter_fields tel))
          end;
          Telemetry.Sink.close s)
        sink
    end
  in
  Fun.protect
    ~finally:(fun () -> cleanup ~run_record:false [])
    (fun () -> f tel (fun ?records fields -> cleanup ~run_record:true ?records fields))

(* Surface algorithm preconditions (e.g. Peterson is 2-process) and
   scheduler stalls as clean CLI errors rather than backtraces. *)
let protect f =
  try f () with
  | Invalid_argument msg -> `Error (false, msg)
  | Memsim.Scheduler.Stuck (_, msg) -> `Error (false, msg)

let locks_cmd =
  let run () =
    List.iter print_endline Locks.Registry.names;
    `Ok ()
  in
  Cmd.v (Cmd.info "locks" ~doc:"List available lock algorithms")
    Term.(ret (const run $ const ()))

let passage_cmd =
  let run (name, factory) model nprocs =
   protect @@ fun () ->
    ignore name;
    let c = Fencelab.Experiment.passage_cost ~model factory ~nprocs in
    Fmt.pr
      "%s n=%d %a: fences=%d rmr=%d (dsm %d, cc %d) f(log(r/f)+1)=%.2f \
       log2(n)=%.2f@."
      c.Fencelab.Experiment.lock_name nprocs Memory_model.pp model
      c.Fencelab.Experiment.fences c.Fencelab.Experiment.rmr
      c.Fencelab.Experiment.rmr_dsm c.Fencelab.Experiment.rmr_cc
      c.Fencelab.Experiment.product
      (Fencelab.Tradeoff.floor_log_n ~nprocs);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "passage" ~doc:"Fence/RMR cost of one uncontended lock passage")
    Term.(ret (const run $ lock_t $ model_t $ nprocs_t))

let sweep_cmd =
  let run nprocs =
   protect @@ fun () ->
    let max_f =
      int_of_float (ceil (Fencelab.Tradeoff.floor_log_n ~nprocs))
    in
    let rows =
      List.map
        (fun f ->
          let c =
            Fencelab.Experiment.passage_cost ~model:Memory_model.Pso
              (Locks.Gt.lock ~height:f) ~nprocs
          in
          [
            string_of_int f;
            c.Fencelab.Experiment.lock_name;
            string_of_int c.Fencelab.Experiment.fences;
            string_of_int c.Fencelab.Experiment.rmr;
            Fmt.str "%.1f" c.Fencelab.Experiment.product;
          ])
        (List.init (max 1 max_f) (fun i -> i + 1))
    in
    Fencelab.Report.print
      ~headers:[ "f"; "lock"; "fences"; "rmr"; "f(log(r/f)+1)" ]
      rows;
    `Ok ()
  in
  Cmd.v (Cmd.info "sweep" ~doc:"GT_f tradeoff sweep at a given process count")
    Term.(ret (const run $ nprocs_t))

let check_cmd =
  let trace_t =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the counterexample trace.")
  in
  let rounds_t =
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"R" ~doc:"Passages per process.")
  in
  let max_states_t =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "max-states" ] ~docv:"K" ~doc:"State cap for exploration.")
  in
  let run (name, factory) model nprocs rounds max_states trace jobs por
      reorder_bound progress interval stats_out =
   protect @@ fun () ->
    with_telemetry ~progress ~interval ~stats_out ~workers:jobs ~label:"check"
    @@ fun tel finish ->
    let v =
      Verify.Mutex_check.check ~tel ~rounds
        ~max_states ~engine:(`Parallel jobs) ~por ?reorder_bound ~model
        factory ~nprocs
    in
    let level_records =
      List.map
        (fun (l : Mc.deepen_level) ->
          ( "deepen_level",
            Telemetry.Sink.
              [
                ("cmd", S "check");
                ("lock", S name);
                ("model", S (Memory_model.to_string model));
                ("bound", I l.Mc.bound);
                ("states", I l.Mc.states);
                ("transitions", I l.Mc.transitions);
                ("bound_hits", I l.Mc.bound_hits);
                ("violations", I l.Mc.violations);
              ] ))
        v.Verify.Mutex_check.deepen_levels
    in
    finish ~records:level_records
      (Telemetry.Sink.
         [
           ("cmd", S "check");
           ("lock", S name);
           ("model", S (Memory_model.to_string model));
           ("nprocs", I nprocs);
           ("rounds", I rounds);
           ("holds", B (Verify.Mutex_check.established v));
           ("states", I v.Verify.Mutex_check.stats.Explore.states);
           ("transitions", I v.Verify.Mutex_check.stats.Explore.transitions);
           ("truncated", B v.Verify.Mutex_check.stats.Explore.truncated);
           ("bound_hits", I v.Verify.Mutex_check.stats.Explore.bound_hits);
           ( "reorder_bound",
             match v.Verify.Mutex_check.reorder_bound with
             | Some k -> I k
             | None -> S "none" );
           ("bound_exact", B v.Verify.Mutex_check.bound_exact);
         ]
      @ Verify.Mutex_check.truncated_fields v);
    Fmt.pr "%a@." Verify.Mutex_check.pp_verdict v;
    List.iter
      (fun (l : Mc.deepen_level) ->
        Fmt.pr "  deepen level %d: %d states, %d transitions, %d bound hits%s@."
          l.Mc.bound l.Mc.states l.Mc.transitions l.Mc.bound_hits
          (if l.Mc.violations > 0 then
             Fmt.str ", %d violation(s)" l.Mc.violations
           else ""))
      v.Verify.Mutex_check.deepen_levels;
    (match (trace, v.Verify.Mutex_check.me_violation) with
    | true, Some path ->
        let t, _ = Verify.Mutex_check.replay ~model factory ~nprocs ~rounds path in
        List.iter (fun s -> Fmt.pr "  %a@." Step.pp s) t
    | _ -> ());
    if v.Verify.Mutex_check.holds then `Ok () else `Error (false, "check failed")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Exhaustive mutual-exclusion / deadlock check")
    Term.(
      ret
        (const run $ lock_t $ model_t $ nprocs_t $ rounds_t $ max_states_t
       $ trace_t $ jobs_t $ por_t $ reorder_bound_t
       $ progress_t $ interval_t $ stats_out_t))

let stress_cmd =
  let seeds_t =
    Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"K" ~doc:"Number of seeded runs.")
  in
  let rounds_t =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Passages per process.")
  in
  let run (name, factory) model nprocs seeds rounds =
   protect @@ fun () ->
    ignore name;
    let r = Verify.Stress.run ~seeds ~rounds ~model factory ~nprocs in
    Fmt.pr "%a@." Verify.Stress.pp_report r;
    if r.Verify.Stress.failures = [] then `Ok ()
    else `Error (false, "stress failures")
  in
  Cmd.v (Cmd.info "stress" ~doc:"Randomized stress test")
    Term.(ret (const run $ lock_t $ model_t $ nprocs_t $ seeds_t $ rounds_t))

let obstruction_cmd =
  let max_states_t =
    Arg.(
      value
      & opt int 500_000
      & info [ "max-states" ] ~docv:"K" ~doc:"State cap for exploration.")
  in
  let run (name, factory) model nprocs max_states =
   protect @@ fun () ->
    ignore name;
    let v = Verify.Obstruction.check ~max_states ~model factory ~nprocs in
    Fmt.pr "%a@." Verify.Obstruction.pp_verdict v;
    if v.Verify.Obstruction.holds then `Ok ()
    else `Error (false, "not obstruction-free")
  in
  Cmd.v
    (Cmd.info "obstruction"
       ~doc:"Check weak obstruction-freedom (the paper's Section 2 property)")
    Term.(ret (const run $ lock_t $ model_t $ nprocs_t $ max_states_t))

let litmus_cmd =
  let test_t =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TEST" ~doc:"Test name.")
  in
  let one_model_t =
    Arg.(
      value
      & opt (some model_conv) None
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:
            (model_doc
            ^ " Default: sweep every model; when $(b,--reorder-bound) is \
               set, view-based cells print an explicit skipped marker — \
               they have no write buffer to meter — and naming one \
               explicitly is an error."))
  in
  let run test model jobs por reorder_bound progress interval stats_out =
   protect @@ fun () ->
    let engine = `Parallel jobs in
    let models, sweeping =
      match model with
      | Some m ->
          (* an explicit view model under a reorder bound falls through
             to the engine's Invalid_argument, surfaced by [protect] *)
          ([ m ], false)
      | None -> (Memory_model.all, true)
    in
    let tests =
      match test with
      | None -> Litmus.Cases.all
      | Some name -> (
          match
            List.find_opt
              (fun t -> String.lowercase_ascii t.Litmus.Test.name = String.lowercase_ascii name)
              Litmus.Cases.all
          with
          | Some t -> [ t ]
          | None -> [])
    in
    if tests = [] then `Error (false, "unknown litmus test")
    else
      with_telemetry ~progress ~interval ~stats_out ~workers:jobs
        ~label:"litmus"
      @@ fun tel finish ->
      (* one hub across the whole test x model sweep: counters
         accumulate over runs, gauges are re-registered (replaced) by
         each exploration, so samples always show the live run *)
      let states = ref 0 and transitions = ref 0 and runs = ref 0 in
      let hits = ref 0 in
      (* skipped cells ship as explicit "skip" NDJSON records ahead of
         the final "run" record, mirroring the human per-cell marker —
         a bounded sweep never silently drops a row *)
      let skips = ref [] in
      List.iter
        (fun t ->
          List.iter
            (fun model ->
              match
                if sweeping then Litmus.Test.skip_reason ?reorder_bound model
                else None
              with
              | Some reason ->
                  Fmt.pr "%s under %a: skipped (%s)@." t.Litmus.Test.name
                    Memory_model.pp model reason;
                  skips :=
                    ( "skip",
                      Telemetry.Sink.
                        [
                          ("test", S t.Litmus.Test.name);
                          ("model", S (Fmt.str "%a" Memory_model.pp model));
                          ("reason", S reason);
                        ] )
                    :: !skips
              | None ->
                  let r =
                    Litmus.Test.run ~tel ~engine
                      ~por ?reorder_bound t ~model
                  in
                  incr runs;
                  states := !states + r.Litmus.Test.stats.Explore.states;
                  transitions :=
                    !transitions + r.Litmus.Test.stats.Explore.transitions;
                  hits := !hits + r.Litmus.Test.stats.Explore.bound_hits;
                  Fmt.pr "%a@." Litmus.Test.pp_run r)
            models)
        tests;
      finish ~records:(List.rev !skips)
        Telemetry.Sink.
          [
            ("cmd", S "litmus");
            ("tests", I (List.length tests));
            ("runs", I !runs);
            ("skipped", I (List.length !skips));
            ("states", I !states);
            ("transitions", I !transitions);
            ("bound_hits", I !hits);
          ];
      `Ok ()
  in
  Cmd.v (Cmd.info "litmus" ~doc:"Reachable litmus outcomes per memory model")
    Term.(
      ret
        (const run $ test_t $ one_model_t $ jobs_t $ por_t $ reorder_bound_t
       $ progress_t $ interval_t $ stats_out_t))

let fuzz_cmd =
  let seed_t =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Base seed.")
  in
  let count_t =
    Arg.(
      value
      & opt int 200
      & info [ "count" ] ~docv:"K" ~doc:"Generated programs (seeds S..S+K-1).")
  in
  let procs_t =
    Arg.(
      value
      & opt int Fuzz.Gen.default_params.Fuzz.Gen.procs
      & info [ "procs" ] ~docv:"P" ~doc:"Processes per generated program.")
  in
  let len_t =
    Arg.(
      value
      & opt int Fuzz.Gen.default_params.Fuzz.Gen.len
      & info [ "len" ] ~docv:"L" ~doc:"Max instructions per process.")
  in
  let regs_t =
    Arg.(
      value
      & opt int Fuzz.Gen.default_params.Fuzz.Gen.nregs
      & info [ "regs" ] ~docv:"R" ~doc:"Shared registers.")
  in
  let values_t =
    Arg.(
      value
      & opt int Fuzz.Gen.default_params.Fuzz.Gen.values
      & info [ "values" ] ~docv:"V" ~doc:"Write values drawn from 1..V.")
  in
  let artifact_dir_t =
    Arg.(
      value
      & opt string "_fuzz"
      & info [ "artifact-dir" ] ~docv:"DIR"
          ~doc:"Where shrunk counterexample artifacts are written.")
  in
  let run seed count procs len regs values model jobs artifact_dir progress
      interval stats_out =
   protect @@ fun () ->
    let params = { Fuzz.Gen.procs; len; nregs = regs; values } in
    let jobs_list = List.filter (fun j -> j <= jobs) [ 1; 2; 4 ] in
    let config = { Fuzz.Oracle.default_config with model; jobs = jobs_list } in
    with_telemetry ~progress ~interval ~stats_out ~workers:1 ~label:"fuzz"
    @@ fun tel finish ->
    let summary = Fuzz.run ~tel ~config ~params ~seed ~count () in
    finish
      Telemetry.Sink.
        [
          ("cmd", S "fuzz");
          ("seed", I seed);
          ("count", I count);
          ("checked", I summary.Fuzz.checked);
          ("skipped", I (List.length summary.Fuzz.skipped));
          ("violations", I (List.length summary.Fuzz.findings));
        ];
    List.iter
      (fun (s, reason) -> Fmt.epr "skipped seed %d: %s@." s reason)
      summary.Fuzz.skipped;
    List.iter
      (fun (f : Fuzz.finding) ->
        Fmt.epr "%s@." f.Fuzz.artifact;
        (try
           if not (Sys.file_exists artifact_dir) then Unix.mkdir artifact_dir 0o755;
           let path =
             Filename.concat artifact_dir
               (Fmt.str "counterexample-%d.txt"
                  f.Fuzz.violation.Fuzz.Oracle.prog.Fuzz.Gen.seed)
           in
           let oc = open_out path in
           output_string oc f.Fuzz.artifact;
           close_out oc;
           Fmt.epr "artifact written to %s@." path
         with Sys_error msg | Unix.Unix_error (_, msg, _) ->
           Fmt.epr "could not write artifact: %s@." msg))
      summary.Fuzz.findings;
    Fmt.pr "%a@." Fuzz.pp_summary summary;
    if summary.Fuzz.findings = [] then `Ok ()
    else `Error (false, "fuzz oracle violations")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generated programs through the model-nesting, \
          engine-parity, fence-saturation and random-schedule oracles, with \
          shrinking to minimal litmus counterexamples")
    Term.(
      ret
        (const run $ seed_t $ count_t $ procs_t $ len_t $ regs_t $ values_t
       $ model_t $ jobs_t $ artifact_dir_t $ progress_t $ interval_t
       $ stats_out_t))

let synth_cmd =
  let family_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "family" ] ~docv:"NAME"
          ~doc:
            (Fmt.str
               "Lock family to synthesize fences for (have: %s). Sites are \
                the base algorithm's fence positions, acquire first, then \
                release."
               (String.concat ", " Synth.Family.names)))
  in
  let litmus_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "litmus" ] ~docv:"TEST"
          ~doc:
            "Litmus subject: a corpus test name (see $(b,fencelab litmus)) \
             or $(b,fuzz:)$(i,SEED) for a generated program. The spec is \
             the fully fenced test's own reachable outcomes under the \
             model; $(b,--nprocs) is ignored (the test fixes it).")
  in
  let strategy_t =
    let strategy_conv =
      let parse s =
        match Synth.Runner.strategy_of_string s with
        | Some st -> Ok st
        | None -> Error (`Msg (Fmt.str "unknown strategy %S" s))
      in
      Arg.conv (parse, fun ppf s -> Fmt.string ppf (Synth.Runner.strategy_name s))
    in
    Arg.(
      value
      & opt strategy_conv `Cegar
      & info [ "strategy" ] ~docv:"S"
          ~doc:
            "$(b,cegar) (default) prunes by upward closure and inherited \
             counterexamples; $(b,exhaustive) oracles every mask. Both \
             return the same frontier — the stats counters price the \
             difference.")
  in
  let rounds_t =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"R" ~doc:"Passages per process (lock oracles).")
  in
  let max_states_t =
    Arg.(
      value
      & opt int 400_000
      & info [ "max-states" ] ~docv:"K" ~doc:"State cap per oracle call.")
  in
  let frontier_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "frontier-out" ] ~docv:"FILE"
          ~doc:
            "Write the result as one self-contained JSON object: stats, \
             minimal placements, measured points, frontier and the \
             analytic GT_f curve.")
  in
  let run family litmus model nprocs rounds max_states strategy jobs progress
      interval stats_out frontier_out =
   protect @@ fun () ->
    let problem =
      match (family, litmus) with
      | Some _, Some _ -> Error "--family and --litmus are mutually exclusive"
      | None, None -> Error "one of --family or --litmus is required"
      | Some name, None -> (
          match Synth.Family.find name with
          | Some fam ->
              Ok (Synth.Oracle.lock_problem ~rounds ~max_states ~model fam ~nprocs)
          | None ->
              Error
                (Fmt.str "unknown family %S (have: %s)" name
                   (String.concat ", " Synth.Family.names)))
      | None, Some subject -> (
          let test =
            match String.index_opt subject ':' with
            | Some i when String.sub subject 0 i = "fuzz" -> (
                let rest = String.sub subject (i + 1) (String.length subject - i - 1) in
                match int_of_string_opt rest with
                | Some seed ->
                    Ok (Fuzz.Gen.compile (Fuzz.Gen.generate ~seed Fuzz.Gen.default_params))
                | None -> Error (Fmt.str "bad seed in %S" subject))
            | _ -> (
                match
                  List.find_opt
                    (fun t ->
                      String.lowercase_ascii t.Litmus.Test.name
                      = String.lowercase_ascii subject)
                    Litmus.Cases.all
                with
                | Some t -> Ok t
                | None -> Error (Fmt.str "unknown litmus test %S" subject))
          in
          Result.map (fun t -> Synth.Oracle.litmus_problem ~max_states ~model t) test)
    in
    match problem with
    | Error msg -> `Error (false, msg)
    | Ok p ->
        with_telemetry ~progress ~interval ~stats_out ~workers:jobs
          ~label:"synth"
        @@ fun tel finish ->
        let r = Synth.Runner.run ~tel ~jobs ~strategy p in
        finish
          Telemetry.Sink.
            [
              ("cmd", S "synth");
              ("subject", S p.Synth.Oracle.name);
              ("model", S (Memory_model.to_string p.Synth.Oracle.model));
              ("strategy", S (Synth.Runner.strategy_name strategy));
              ("nprocs", I p.Synth.Oracle.nprocs);
              ("nsites", I p.Synth.Oracle.nsites);
              ("jobs", I jobs);
              ("correct", I (List.length r.Synth.Runner.correct));
              ("minimal", I (List.length r.Synth.Runner.minimal));
              ("frontier_size", I (List.length r.Synth.Runner.frontier));
            ];
        Fmt.pr "%a@." Synth.Runner.pp r;
        (match frontier_out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (Synth.Runner.frontier_json r);
            output_char oc '\n';
            close_out oc;
            Fmt.epr "frontier written to %s@." path);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Counterexample-guided fence synthesis: search the lattice of \
          fence-site subsets for inclusion-minimal correct placements, cost \
          them in measured RMRs, and report the (fences, RMRs) Pareto \
          frontier against the paper's GT_f curve")
    Term.(
      ret
        (const run $ family_t $ litmus_t $ model_t $ nprocs_t $ rounds_t
       $ max_states_t $ strategy_t $ jobs_t $ progress_t $ interval_t
       $ stats_out_t $ frontier_out_t))

let serve_cmd =
  let spool_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Serve jobs from $(docv): every $(b,*.job) file, one JSON spec \
             per line. Completed jobs leave $(b,<id>.done) markers and are \
             skipped on restart; an in-flight check job's \
             $(b,<id>.ckpt) checkpoint (with its $(b,<id>.ckpt.keys) key \
             log) is resumed. Without $(b,--spool), \
             specs are read from stdin (one per line) until EOF.")
  in
  let window_t =
    Arg.(
      value
      & opt int 2
      & info [ "window" ] ~docv:"W"
          ~doc:
            "In-flight window: $(docv) worker domains, and at most $(docv) \
             queued jobs — submission backpressures instead of growing the \
             queue, so the daemon never spawns unboundedly.")
  in
  let checkpoint_every_t =
    Arg.(
      value
      & opt int 25_000
      & info [ "checkpoint-every" ] ~docv:"STATES"
          ~doc:
            "States between checkpoint cuts for check jobs (each cut \
             appends its new keys to a log and renames a small head into \
             place; a killed daemon resumes from the last cut with \
             identical verdict and counts).")
  in
  let checkpoint_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Where checkpoint files live (default: the spool directory; \
             stdin mode has no checkpointing unless this is set).")
  in
  let crash_after_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after-checkpoints" ] ~docv:"N"
          ~doc:
            "Testing hook: exit(70) immediately after the N-th checkpoint \
             is persisted — simulates a daemon killed mid-job for the \
             kill/resume smoke leg.")
  in
  let watch_t =
    Arg.(
      value
      & flag
      & info [ "watch" ]
          ~doc:
            "Keep polling the spool for new job files instead of exiting \
             once the backlog drains.")
  in
  let run spool window checkpoint_every checkpoint_dir crash_after watch
      stats_out =
   protect @@ fun () ->
    let source = match spool with Some d -> `Spool d | None -> `Stdin in
    let r =
      Serve.Daemon.run ~window ~checkpoint_every ?checkpoint_dir ?stats_out
        ?crash_after_checkpoints:crash_after ~watch source
    in
    if Serve.Daemon.exit_code r = 0 then `Ok ()
    else `Error (false, "serve: rejected or failed jobs")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Job-queue daemon: JSON job specs (check/litmus/fuzz/synth/atlas) \
          from stdin or a spool directory, executed across a bounded pool \
          of domains with per-job NDJSON telemetry and checkpoint/resume \
          for long explorations")
    Term.(
      ret
        (const run $ spool_t $ window_t $ checkpoint_every_t
       $ checkpoint_dir_t $ crash_after_t $ watch_t $ stats_out_t))

let encode_cmd =
  let pi_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "pi" ] ~docv:"DIGITS" ~doc:"Permutation as digits, e.g. 2031.")
  in
  let run (name, factory) nprocs pi =
   protect @@ fun () ->
    ignore name;
    let pi =
      match pi with
      | Some s -> Array.init (String.length s) (fun i -> Char.code s.[i] - Char.code '0')
      | None -> Fencelab.Experiment.random_permutation ~seed:0 nprocs
    in
    let n = Array.length pi in
    let _, cinit =
      Objects.Count.configure factory ~model:Memory_model.Pso ~nprocs:n
    in
    let r = Encoding.Encoder.encode ~cinit ~pi () in
    Fmt.pr "%a@." Encoding.Bound.pp_report (Encoding.Bound.report_of r);
    for p = 0 to n - 1 do
      Fmt.pr "p%d: %a@." p Encoding.Cstack.pp
        (Option.value ~default:Encoding.Cstack.empty
           (Pid.Map.find_opt p r.Encoding.Encoder.stacks))
    done;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Run the Section 5 encoder on a permutation")
    Term.(ret (const run $ lock_t $ nprocs_t $ pi_t))

let () =
  let doc = "the fence/RMR tradeoff laboratory (PODC'15 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "fencelab" ~doc)
          [
            locks_cmd; passage_cmd; sweep_cmd; check_cmd; stress_cmd;
            obstruction_cmd; litmus_cmd; fuzz_cmd; synth_cmd; encode_cmd;
            serve_cmd;
          ]))
