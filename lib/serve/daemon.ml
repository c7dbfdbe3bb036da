(** The serve daemon loop.

    One {!Pool} of [window] worker domains; the feeder (this domain)
    parses job lines and submits — blocking when the pool's queue is
    full, which is the whole backpressure story: a burst of jobs
    queues, bounded, and never spawns a domain per job. All NDJSON
    records go through one mutex-serialized {!Telemetry.Sink}, each
    tagged with its [job_id], so interleaved jobs stream into one file
    a consumer can demultiplex by field.

    Crash safety is file-shaped (see the mli): [.done] markers make
    completed jobs idempotent to replay, [.ckpt] heads over
    [.ckpt.keys] logs make the in-flight check job resumable, and each
    is written atomically, last, or append-only behind its head — a daemon killed at any instant restarts into a consistent
    spool. *)

type source = [ `Stdin | `Spool of string ]

type result = {
  accepted : int;
  rejected : int;
  failed : int;
  skipped : int;
}

let exit_code r = if r.rejected = 0 && r.failed = 0 then 0 else 1

type st = {
  pool : Pool.t;
  sink : Telemetry.Sink.t option;
  checkpoint : (int * string) option;
  crash_after : int option;
  checkpoints_written : int Atomic.t;
  (* result counters; [failed] is bumped from worker domains *)
  mutable accepted : int;
  mutable rejected : int;
  mutable skipped : int;
  failures : int Atomic.t;
}

let emit st ~kind fields =
  Option.iter (fun s -> Telemetry.Sink.emit s ~kind fields) st.sink

let on_checkpoint st () =
  let n = Atomic.fetch_and_add st.checkpoints_written 1 + 1 in
  match st.crash_after with
  | Some k when n >= k ->
      (* the smoke harness's kill switch: die as abruptly as a SIGKILL
         would, right after a cut is safely on disk *)
      Fmt.epr "serve: crash-after-checkpoints %d reached, exiting@." k;
      Stdlib.exit 70
  | _ -> ()

(* [done_marker] both gates re-execution (spool mode) and records the
   outcome; written after the job's checkpoint file is removed, so a
   crash between the two re-runs the job (idempotent) rather than
   orphaning a marker for work never finished. *)
let run_job st ?done_marker (job : Job.t) =
  let finish (o : Job.outcome) =
    if not o.Job.ok then ignore (Atomic.fetch_and_add st.failures 1);
    emit st ~kind:"job_done"
      (o.Job.fields @ [ ("ok", Telemetry.Sink.B o.Job.ok) ]);
    Fmt.pr "[%s] %s@." job.Job.id o.Job.summary;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (if o.Job.ok then "ok\n" else "failed\n");
        output_string oc o.Job.summary;
        output_char oc '\n';
        close_out oc)
      done_marker
  in
  match
    Job.run ?sink:st.sink ?checkpoint:st.checkpoint
      ~on_checkpoint:(on_checkpoint st) job
  with
  | o -> finish o
  | exception e ->
      finish
        {
          Job.ok = false;
          summary = Fmt.str "raised: %s" (Printexc.to_string e);
          fields =
            Telemetry.Sink.
              [
                ("job_id", S job.Job.id);
                ("error", S (Printexc.to_string e));
              ];
        }

let submit st ?done_marker (job : Job.t) =
  st.accepted <- st.accepted + 1;
  emit st ~kind:"ack" (Job.ack_fields job);
  Pool.submit st.pool (fun () -> run_job st ?done_marker job)

let reject st ~where line msg =
  st.rejected <- st.rejected + 1;
  emit st ~kind:"reject"
    Telemetry.Sink.[ ("where", S where); ("error", S msg) ];
  Fmt.epr "serve: rejected %s: %s (%s)@." where msg line

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

let feed_stdin st =
  let rec go () =
    match In_channel.input_line In_channel.stdin with
    | None -> ()
    | Some line ->
        (if String.trim line <> "" then
           match Job.of_line line with
           | Ok job -> submit st job
           | Error e -> reject st ~where:"stdin" line e);
        go ()
  in
  go ()

(* One spool pass: every [*.job] file in sorted order, every line of
   each; jobs with a [.done] marker are skipped (and counted), the
   rest submitted. Returns how many jobs were submitted this pass. *)
let feed_spool st dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".job")
    |> List.sort String.compare
  in
  let submitted = ref 0 in
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      List.iteri
        (fun lineno line ->
          if String.trim line <> "" then
            match Job.of_line line with
            | Error e ->
                reject st ~where:(Fmt.str "%s:%d" file (lineno + 1)) line e
            | Ok job ->
                let marker = Filename.concat dir (job.Job.id ^ ".done") in
                if Sys.file_exists marker then
                  st.skipped <- st.skipped + 1
                else begin
                  incr submitted;
                  submit st ~done_marker:marker job
                end)
        lines)
    files;
  !submitted

let run ?(window = 2) ?(checkpoint_every = 25_000) ?checkpoint_dir ?stats_out
    ?crash_after_checkpoints ?(watch = false) ?(poll_interval = 0.2)
    (source : source) : result =
  let checkpoint_dir =
    match (checkpoint_dir, source) with
    | Some d, _ -> Some d
    | None, `Spool d -> Some d
    | None, `Stdin -> None
  in
  let st =
    {
      pool = Pool.create ~window;
      sink = Option.map Telemetry.Sink.create stats_out;
      checkpoint =
        Option.map (fun d -> (checkpoint_every, d)) checkpoint_dir;
      crash_after = crash_after_checkpoints;
      checkpoints_written = Atomic.make 0;
      accepted = 0;
      rejected = 0;
      skipped = 0;
      failures = Atomic.make 0;
    }
  in
  (match source with
  | `Stdin -> feed_stdin st
  | `Spool dir ->
      let rec loop () =
        ignore (feed_spool st dir);
        Pool.drain st.pool;
        if watch then begin
          Unix.sleepf poll_interval;
          loop ()
        end
      in
      loop ());
  Pool.shutdown st.pool;
  let r =
    {
      accepted = st.accepted;
      rejected = st.rejected;
      failed = Atomic.get st.failures;
      skipped = st.skipped;
    }
  in
  emit st ~kind:"serve_done"
    Telemetry.Sink.
      [
        ("accepted", I r.accepted);
        ("rejected", I r.rejected);
        ("failed", I r.failed);
        ("skipped", I r.skipped);
        ("max_queue_depth", I (Pool.max_queue_depth st.pool));
        ("window", I window);
      ];
  Option.iter Telemetry.Sink.close st.sink;
  Fmt.pr "serve: %d accepted, %d rejected, %d failed, %d skipped@." r.accepted
    r.rejected r.failed r.skipped;
  r
