(** Checkpoint persistence: a job's cuts as two files.

    - The {e key log} ([log_path path]) is append-only binary: every
      claim key the exploration has cut so far, 16 bytes each
      ({!Mc.Fingerprint.write}). A cut appends only the keys claimed
      since the previous cut.
    - The {e head} ([path]) is one small JSON object: the counters,
      pending paths, violations, deadlocks, the exploration's identity,
      the file-format version (["format"]: 2; heads of any other format
      are refused), and [keys], the number of log keys that belong to
      this cut. It is replaced by write-to-temp + rename.

    A cut appends to the log, flushes it, then renames the new head
    into place, so it costs O(keys claimed since the last cut + pending
    paths), not O(visited set). A process killed at any point leaves a
    head whose keys are all in the log; a resume reads exactly the
    head's [keys] and cuts off any torn tail behind them. Nothing is
    fsynced: cuts survive a killed process, not a power cut.

    Every head carries an identity naming the exploration it belongs
    to, so a resume never restores another exploration's keys. *)

(** The identity of an exploration whose canonical spec is [spec]: a
    digest of [spec] and the version of the visited-set key format,
    so a cut is refused both by a different job and by code that keys
    states differently. *)
val identity : spec:string -> string

(** The key log beside the head at [path]: [path ^ ".keys"]. *)
val log_path : string -> string

(** Wire encoding of a head: the cut without its keys — schedule
    elements as [[pid, reg|null]] pairs — plus [keys], the log keys
    that belong to it, and a trailing ["identity"] field. *)
val head_to_json : identity:string -> keys:int -> Mc.checkpoint -> Json.t

(** Decoding a head: the cut (with empty [ck_keys]) and its log key
    count. A record of another format, or whose ["identity"] field is
    missing or differs from [identity], is an [Error]. *)
val head_of_json :
  identity:string -> Json.t -> (Mc.checkpoint * int, string) result

(** A job's open cut files: where they are, whose they are, and how
    many keys the log holds. *)
type t

(** Start a fresh exploration's files at [path]: any head there is
    removed and the log emptied. *)
val create : identity:string -> path:string -> t

(** Resume from the head at [path]: the cut with [ck_keys] read from
    exactly the head's [keys] log records, and the files ready for the
    next cut — a torn tail behind those records is cut off. [Error] on
    a missing or unreadable head, schema or format mismatch, a cut
    saved under a different identity, or a log shorter than the head
    says. *)
val load : identity:string -> path:string -> (Mc.checkpoint * t, string) result

(** Persist a cut: append its [ck_keys] to the log, then rename a new
    head into place. Returns the bytes this cut wrote (head plus log
    append). *)
val save : t -> Mc.checkpoint -> int

(** Keys in the log, as of the last {!create}, {!load} or {!save}. *)
val keys : t -> int

(** Remove the head at [path] and its log, whichever exist. *)
val remove : path:string -> unit
