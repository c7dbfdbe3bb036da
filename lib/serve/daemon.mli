(** The serve daemon: jobs in (JSON lines on stdin, or a spool
    directory of [*.job] files), acks + per-job NDJSON telemetry out,
    bounded concurrency in between ({!Pool}), checkpoint/resume for
    long check jobs underneath ({!Checkpoint}).

    Spool protocol — everything is a file, so a killed daemon loses
    nothing:
    - [<name>.job]: one JSON job spec per line (processed in sorted
      file order, then line order);
    - [<id>.done]: written after job [id] completes (first line
      [ok]/[failed]) — a restarted daemon skips these;
    - [<id>.ckpt] and [<id>.ckpt.keys]: the job's latest checkpoint,
      a small JSON head (atomic rename) over an append-only key log; a
      restarted daemon resumes the exploration from them and removes
      both on completion. *)

type source = [ `Stdin | `Spool of string ]

type result = {
  accepted : int;
  rejected : int;  (** malformed lines — reported, never fatal *)
  failed : int;  (** completed jobs with [ok = false], or raised *)
  skipped : int;  (** spool jobs with a [.done] marker already *)
}

(** [run source] processes the backlog and returns once it drains.
    [window] bounds worker domains and queue depth (default 2);
    [checkpoint_every] is the states-between-cuts for check jobs
    (default 25_000); [checkpoint_dir] defaults to the spool directory
    ([`Stdin] disables checkpointing unless one is given);
    [stats_out] streams NDJSON (ack/skip/checkpoint/resume/job_done
    records, each with [job_id]); [watch] keeps polling a spool every
    [poll_interval] seconds instead of exiting on drain.

    [crash_after_checkpoints n] is the smoke harness's kill switch:
    the process calls [exit 70] right after the [n]-th checkpoint file
    is persisted — a genuine mid-job death, leaving the spool exactly
    as a SIGKILL would. *)
val run :
  ?window:int ->
  ?checkpoint_every:int ->
  ?checkpoint_dir:string ->
  ?stats_out:string ->
  ?crash_after_checkpoints:int ->
  ?watch:bool ->
  ?poll_interval:float ->
  source ->
  result

(** [0] when nothing was rejected and every job succeeded, [1]
    otherwise. *)
val exit_code : result -> int
