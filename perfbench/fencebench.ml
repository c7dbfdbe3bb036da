(** fencebench — the benchmark's measuring program. Each mode does one
    job in a fresh process and prints one JSON record as its last line;
    [run.py] drives the modes, checks the answers and aggregates.

    {v
    fencebench selftest
    fencebench explore WORKLOAD JOBS FUZZ_SEED
    fencebench serve SPOOL STATS_OUT
    fencebench trace WORKLOAD FUZZ_SEED
    fencebench trace-serve SPOOL JOB_FILE
    v} *)

let usage () =
  prerr_endline
    "usage: fencebench (selftest | explore WORKLOAD JOBS FUZZ_SEED | serve \
     SPOOL STATS_OUT | trace WORKLOAD FUZZ_SEED | trace-serve SPOOL JOB_FILE)";
  exit 2

let workload name fuzz_seed =
  match Workloads.find ~fuzz_seed name with
  | Some w -> w
  | None ->
      Fmt.epr "fencebench: unknown workload %S@." name;
      exit 2

(** Two domains allocate a known number of words each; the all-domain
    count read after they join must see both, where the caller-only
    [Gc.minor_words] sees neither. Guards the allocation metric. *)
let selftest () =
  let per_domain = 1_000_000 in
  (* a [ref] is a header plus one field: two words *)
  let alloc () =
    for i = 1 to per_domain / 2 do
      ignore (Sys.opaque_identity (ref i))
    done
  in
  let g0 = Probe.gc () and w0 = Gc.minor_words () in
  let ds = Array.init 2 (fun _ -> Domain.spawn alloc) in
  Array.iter Domain.join ds;
  let g = Probe.gc_diff g0 (Probe.gc ()) and caller = Gc.minor_words () -. w0 in
  let expected = float_of_int (2 * per_domain) in
  let ok = Float.abs (g.Probe.minor_words -. expected) <= 0.01 *. expected in
  Probe.emit
    [
      ("mode", S "selftest");
      ("correct", B ok);
      ("expected_words", F expected);
      ("quick_stat_words", F g.Probe.minor_words);
      ("caller_minor_words", F caller);
      ("cpus", I (Probe.cpus ()));
    ]

(** One exploration in a fresh process: the first set-up a user would
    pay, then the exploration, with all-domain GC deltas taken after the
    engine's worker domains have joined and the process's peak memory. *)
let explore (w : Workloads.t) ~jobs =
  let t0 = Probe.now_ns () in
  ignore (Sys.opaque_identity (w.Workloads.setup ()));
  let setup_s = Probe.seconds_since t0 in
  let g0 = Probe.gc () in
  let t0 = Probe.now_ns () in
  let o = w.Workloads.run ~jobs () in
  let wall_s = Probe.seconds_since t0 in
  let g = Probe.gc_diff g0 (Probe.gc ()) in
  Probe.emit
    [
      ("mode", S "explore");
      ("workload", S w.Workloads.name);
      ("jobs", I jobs);
      ("correct", B (Workloads.correct w ~jobs o));
      ("states", I o.Workloads.states);
      ("transitions", I o.Workloads.transitions);
      ("truncated", B o.Workloads.truncated);
      ("setup_s", F setup_s);
      ("wall_s", F wall_s);
      ("minor_words", F g.Probe.minor_words);
      ("promoted_words", F g.Probe.promoted_words);
      ("minor_collections", I g.Probe.minor_collections);
      ("major_collections", I g.Probe.major_collections);
      ("top_heap_mb", F (Probe.top_heap_mb ()));
      ("cpus", I (Probe.cpus ()));
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)

(** The serve layers' per-layer metrics. Trace records carry these and
    the exploration layers' metrics; on the exploration workloads, which
    run no serve layer, the serve group reads zero. *)
let serve_kinds =
  [ "check"; "check_por"; "check_ckpt"; "litmus"; "synth"; "fuzz"; "atlas" ]

let serve_metrics =
  [ "serve.parse_us_per_job" ]
  @ List.map (fun k -> "serve.service_s." ^ k) serve_kinds
  @ [
      "checkpoint.cuts"; "checkpoint.bytes_per_cut"; "checkpoint.overhead_s";
      "pool.idle_share"; "por.prune_ratio";
    ]


(** One untraced exploration: wall seconds, outcome, all-domain GC
    deltas. *)
let timed (w : Workloads.t) ?tel ~jobs () =
  let g0 = Probe.gc () in
  let t0 = Probe.now_ns () in
  let o = w.Workloads.run ?tel ~jobs () in
  let wall = Probe.seconds_since t0 in
  (wall, o, Probe.gc_diff g0 (Probe.gc ()))

(** Split one exploration by layer: untraced j=1 runs on both sides of
    the traced run (the overhead baseline and the GC counts), a j=2 run
    with a telemetry hub for the frontier's steal and sleep counters,
    and the traced run itself, which must reproduce the engine's counts.
    Returns the metrics and whether every count matched. *)
let exploration_trace (w : Workloads.t) =
  let wall1, o1, g1 = timed w ~jobs:1 () in
  let r = Traced.run (w.Workloads.spec ()) in
  let wall1', o1', _ = timed w ~jobs:1 () in
  let hub = Telemetry.Hub.create ~workers:2 () in
  let wall2, o2, _ = timed w ~tel:hub ~jobs:2 () in
  let counter name =
    float_of_int (Option.value ~default:0 (Telemetry.Hub.read_int hub name))
  in
  let inside_ns, span_ns, span_words = Traced.span_cost () in
  let bytes_per_state = Traced.visited_bytes_per_state r.Traced.fingerprints in
  let matches =
    r.Traced.states = o1.Workloads.states
    && r.Traced.transitions = o1.Workloads.transitions
    && r.Traced.truncated = o1.Workloads.truncated
    && r.Traced.violations = 0 && r.Traced.deadlocks = 0 && o1' = o1
    && Workloads.correct w ~jobs:1 o1
    && Workloads.correct w ~jobs:2 o2
    && span_words = 0
  in
  let states = float_of_int r.Traced.states in
  let l = r.Traced.layers in
  (* a span's own interval includes [inside_ns] of probe cost; the rest
     of each span's cost lands between spans *)
  let self_ns (x : Traced.layer) =
    Float.max 0.
      (float_of_int x.Traced.ns -. (float_of_int x.Traced.calls *. inside_ns))
  in
  let ns_per_state x = self_ns x /. states in
  let words_per_state (x : Traced.layer) =
    float_of_int x.Traced.words /. states
  in
  let spans =
    List.fold_left
      (fun acc (x : Traced.layer) -> acc + x.Traced.calls)
      0 (Traced.all l)
  in
  let traced_wall = float_of_int r.Traced.wall_ns in
  let untraced_wall = (wall1 +. wall1') /. 2. in
  let attributed =
    List.fold_left (fun acc x -> acc +. self_ns x) 0. (Traced.all l)
    /. (traced_wall -. (float_of_int spans *. span_ns))
  in
  let rate1 = float_of_int o1.Workloads.states /. untraced_wall
  and rate2 = float_of_int o2.Workloads.states /. wall2 in
  ( matches,
    [
      ("step.ns_per_state", ns_per_state l.Traced.step);
      ("step.words_per_state", words_per_state l.Traced.step);
      ("step.calls", float_of_int l.Traced.step.Traced.calls);
      ("enum.ns_per_state", ns_per_state l.Traced.enum);
      ("normalize.ns_per_state", ns_per_state l.Traced.normalize);
      ("normalize.words_per_state", words_per_state l.Traced.normalize);
      ("key.ns_per_state", ns_per_state l.Traced.key);
      ("key.words_per_state", words_per_state l.Traced.key);
      ("visited.ns_per_state", ns_per_state l.Traced.visited);
      ("visited.words_per_state", words_per_state l.Traced.visited);
      ("visited.fresh_ratio", states /. float_of_int r.Traced.probes);
      ("visited.skew", r.Traced.skew);
      ("visited.bytes_per_state", bytes_per_state);
      ("frontier.ns_per_state", ns_per_state l.Traced.frontier);
      ("frontier.steals", counter "steals");
      ( "frontier.sleep_ns_per_state",
        counter "sleep_ns" /. float_of_int o2.Workloads.states );
      ("scaling.j2_over_j1", rate2 /. rate1);
      ("monitor.ns_per_state", ns_per_state l.Traced.monitor);
      ("gc.minor_collections", float_of_int g1.Probe.minor_collections);
      ("gc.major_collections", float_of_int g1.Probe.major_collections);
      ( "gc.promoted_words_per_state",
        g1.Probe.promoted_words /. float_of_int o1.Workloads.states );
      ("trace.attributed_share", attributed);
      ("trace.overhead", traced_wall *. 1e-9 /. untraced_wall);
      ("trace.span_ns", span_ns);
    ],
    Probe.
      [
        ("states", I r.Traced.states);
        ("transitions", I r.Traced.transitions);
        ("truncated", B r.Traced.truncated);
        ("traced_wall_s", F (traced_wall *. 1e-9));
        ("untraced_wall_s", F untraced_wall);
        ("spans", I spans);
        ("span_inside_ns", F inside_ns);
      ] )

let emit_trace ~workload ~correct ~metrics ~detail =
  Probe.emit
    ([
       ("mode", Probe.S "trace");
       ("workload", S workload);
       ("correct", B correct);
       ("cpus", I (Probe.cpus ()));
       ("metrics", O (List.map (fun (k, v) -> (k, Probe.F v)) metrics));
     ]
    @ detail)

let trace (w : Workloads.t) =
  let correct, metrics, detail = exploration_trace w in
  emit_trace ~workload:w.Workloads.name ~correct
    ~metrics:(metrics @ List.map (fun n -> (n, 0.)) serve_metrics)
    ~detail

(* ------------------------------------------------------------------ *)
(* Serve                                                                *)

(* States between checkpoint cuts ([fencelab serve --checkpoint-every]):
   a cut writes the whole visited set, so the batch's bakery n=3 check
   takes seven cuts, where the default of 25,000 would take 28. *)
let checkpoint_every = 100_000

(** The daemon on a spool, as [fencelab serve --spool] runs it; the
    stats stream goes to [stats_out], where run.py reads it. *)
let serve ~spool ~stats_out =
  let g0 = Probe.gc () in
  let r =
    Serve.Daemon.run ~window:2 ~checkpoint_every ~stats_out (`Spool spool)
  in
  let g = Probe.gc_diff g0 (Probe.gc ()) in
  Probe.emit
    [
      ("mode", S "serve");
      ("accepted", I r.Serve.Daemon.accepted);
      ("rejected", I r.Serve.Daemon.rejected);
      ("failed", I r.Serve.Daemon.failed);
      ("skipped", I r.Serve.Daemon.skipped);
      ("minor_words", F g.Probe.minor_words);
      ("top_heap_mb", F (Probe.top_heap_mb ()));
      ("cpus", I (Probe.cpus ()));
    ]

(** The job kind a spec's id names: ids are [<kind>.<n>]. *)
let kind_of_id id =
  match String.index_opt id '.' with Some i -> String.sub id 0 i | None -> id

(** Split the serve batch by layer: job parsing, per-kind service time
    through [Job.run] on a window-2 pool (checkpointing as the daemon
    does), checkpoint cuts and sizes through the [on_checkpoint] hook,
    the checkpointed check's cost over the same check without cuts, POR
    pruning from the engine's counters, and the layer split of the
    batch's longest exploration. *)
let trace_serve ~spool ~job_file =
  let lines =
    In_channel.with_open_text job_file In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  let parse_reps = 50 in
  let t0 = Probe.now_ns () in
  for _ = 1 to parse_reps do
    List.iter (fun l -> ignore (Serve.Job.of_line l)) lines
  done;
  let parse_us =
    float_of_int (Probe.now_ns () - t0)
    *. 1e-3
    /. float_of_int (parse_reps * List.length lines)
  in
  let jobs =
    List.map
      (fun l ->
        match Serve.Job.of_line l with
        | Ok j -> j
        | Error e -> Fmt.failwith "bad job line %S: %s" l e)
      lines
  in
  let lock = Mutex.create () in
  let service = Hashtbl.create 8 in
  let failures = ref 0 and cuts = ref 0 and cut_bytes = ref 0 in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let run_job (job : Serve.Job.t) =
    let path = Filename.concat spool (job.Serve.Job.id ^ ".ckpt") in
    let on_checkpoint () =
      let size =
        try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
      in
      locked (fun () ->
          incr cuts;
          cut_bytes := !cut_bytes + size)
    in
    let t0 = Probe.now_ns () in
    let o =
      Serve.Job.run ~checkpoint:(checkpoint_every, spool) ~on_checkpoint job
    in
    let dt = Probe.seconds_since t0 in
    locked (fun () ->
        if not o.Serve.Job.ok then incr failures;
        let k = kind_of_id job.Serve.Job.id in
        Hashtbl.replace service k
          (dt +. Option.value ~default:0. (Hashtbl.find_opt service k)))
  in
  let pool = Serve.Pool.create ~window:2 in
  let t0 = Probe.now_ns () in
  List.iter
    (fun job ->
      Serve.Pool.submit pool
        ~on_error:(fun _ -> locked (fun () -> incr failures))
        (fun () -> run_job job))
    jobs;
  Serve.Pool.drain pool;
  let makespan = Probe.seconds_since t0 in
  Serve.Pool.shutdown pool;
  let service_of k = Option.value ~default:0. (Hashtbl.find_opt service k) in
  let total_service = Hashtbl.fold (fun _ s acc -> acc +. s) service 0. in
  (* the checkpointed check again, without cuts *)
  let ckpt_jobs =
    List.filter (fun j -> kind_of_id j.Serve.Job.id = "check_ckpt") jobs
  in
  let uncut =
    List.fold_left
      (fun acc job ->
        let t0 = Probe.now_ns () in
        let o = Serve.Job.run job in
        if not o.Serve.Job.ok then incr failures;
        acc +. Probe.seconds_since t0)
      0. ckpt_jobs
  in
  (* POR pruning: the engine's counters over the batch's POR checks *)
  let hub = Telemetry.Hub.create ~workers:1 () in
  List.iter
    (fun (job : Serve.Job.t) ->
      match job.Serve.Job.spec with
      | Serve.Job.Check c when c.por ->
          let factory = Option.get (Locks.Registry.find c.lock) in
          let v =
            Verify.Mutex_check.check ~tel:hub ~engine:(`Parallel 1) ~por:true
              ~model:c.model factory ~nprocs:c.nprocs
          in
          if not v.Verify.Mutex_check.holds then incr failures
      | _ -> ())
    jobs;
  let count name =
    float_of_int (Option.value ~default:0 (Telemetry.Hub.read_int hub name))
  in
  let prunes = count "por_prunes" and children = count "children" in
  let explored, emetrics, detail = exploration_trace Workloads.bakery3_tso in
  let smetrics =
    [ ("serve.parse_us_per_job", parse_us) ]
    @ List.map (fun k -> ("serve.service_s." ^ k, service_of k)) serve_kinds
    @ [
        ("checkpoint.cuts", float_of_int !cuts);
        ( "checkpoint.bytes_per_cut",
          float_of_int !cut_bytes /. float_of_int (max 1 !cuts) );
        ("checkpoint.overhead_s", service_of "check_ckpt" -. uncut);
        ("pool.idle_share", 1. -. (total_service /. (2. *. makespan)));
        ("por.prune_ratio", prunes /. Float.max 1. (prunes +. children));
      ]
  in
  emit_trace ~workload:"serve-mix"
    ~correct:(explored && !failures = 0)
    ~metrics:(emetrics @ smetrics)
    ~detail:
      ([ ("jobs", Probe.I (List.length jobs)); ("makespan_s", F makespan) ]
      @ detail)

let int_arg s =
  match int_of_string_opt s with Some n -> n | None -> usage ()

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "selftest" ] -> selftest ()
  | [ "explore"; name; jobs; seed ] ->
      explore (workload name (int_arg seed)) ~jobs:(int_arg jobs)
  | [ "trace"; name; seed ] -> trace (workload name (int_arg seed))
  | [ "serve"; spool; stats_out ] -> serve ~spool ~stats_out
  | [ "trace-serve"; spool; job_file ] -> trace_serve ~spool ~job_file
  | _ -> usage ()
