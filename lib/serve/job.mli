(** Job specs: what the daemon accepts, one JSON object per line.

    Five job kinds — [check], [litmus], [fuzz], [synth], [atlas] —
    mirroring the CLI subcommands; every spec carries a caller-chosen
    [id] that tags all of the job's NDJSON telemetry ([job_id] field)
    and names its checkpoint file. *)

open Memsim

type spec =
  | Check of {
      lock : string;
      model : Memory_model.t;
      nprocs : int;
      rounds : int;
      max_states : int;
      por : bool;
      reorder_bound : int option;
    }
  | Litmus of {
      test : string option;  (** [None] = whole corpus *)
      model : Memory_model.t option;  (** [None] = sweep all models *)
      reorder_bound : int option;
    }
  | Fuzz of { seed : int; count : int; model : Memory_model.t option }
  | Synth of {
      family : string;
      model : Memory_model.t;
      nprocs : int;
      rounds : int;
      max_states : int;
    }
  | Atlas of {
      model : Memory_model.t;
      nprocs : int list;
      out : string option;  (** atlas JSON path; default [<id>.atlas.json] *)
    }

type t = { id : string; spec : spec }

val kind : t -> string

(** Wire decoding: [{"job": <kind>, "id": <id>, ...}]. Unknown kinds,
    missing mandatory fields and ill-typed values are [Error]s naming
    the field — a daemon rejects the line and keeps serving. *)
val of_json : Json.t -> (t, string) result

val of_line : string -> (t, string) result

(** Wire encoding; [of_json (to_json j) = Ok j] (golden-pinned). *)
val to_json : t -> Json.t

(** Fields of the ["ack"] record the daemon emits on accepting a job. *)
val ack_fields : t -> (string * Telemetry.Sink.value) list

type outcome = {
  ok : bool;
  summary : string;  (** one human line *)
  fields : (string * Telemetry.Sink.value) list;
      (** the job's ["job_done"] record payload, [job_id] first *)
}

(** Execute a job. [sink] (if any) receives the job's streaming
    records — ack is the daemon's business, but per-job progress
    ("checkpoint", "skip", ...) and the final ["job_done"] are emitted
    here, every one tagged [job_id].

    [checkpoint] enables checkpoint/resume for [Check] jobs: cuts
    every [every] states land in [dir ^ "/" ^ id ^ ".ckpt"] (the
    atomically renamed head) and its append-only key log
    ({!Checkpoint.log_path}); an existing head there is resumed from,
    and both files are removed once the job completes. Each cut emits a
    ["checkpoint"] record with the log's [keys] and the [bytes] the cut
    wrote. Checkpointed checks run on
    [`Parallel 1] — the only engine with an exact pending cut; other
    job kinds ignore [checkpoint]. [on_checkpoint] fires after each
    cut is persisted (the smoke harness's crash hook). *)
val run :
  ?sink:Telemetry.Sink.t ->
  ?checkpoint:int * string ->
  ?on_checkpoint:(unit -> unit) ->
  t ->
  outcome
