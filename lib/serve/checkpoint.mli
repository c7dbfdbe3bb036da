(** Checkpoint persistence: {!Mc.checkpoint} as a single JSON object,
    written atomically so a daemon killed mid-checkpoint leaves either
    the previous cut or the new one on disk — never a torn file. Every
    cut carries an identity naming the exploration it belongs to, so a
    resume never restores another exploration's fingerprints. *)

(** The identity of an exploration whose canonical spec is [spec]: a
    digest of [spec] and the version of the visited-set key format,
    so a cut is refused both by a different job and by code that keys
    states differently. *)
val identity : spec:string -> string

(** Wire encoding of a cut: schedule elements as [[pid, reg|null]]
    pairs, fingerprints as [[a, b]] lanes ({!Mc.Fingerprint.t} is a
    concrete record, read directly), and a trailing ["identity"]
    field. *)
val to_json : identity:string -> Mc.checkpoint -> Json.t

(** Decoding; a record whose ["identity"] field is missing or differs
    from [identity] is an [Error]. *)
val of_json : identity:string -> Json.t -> (Mc.checkpoint, string) result

(** Write-to-temp + rename; the rename is atomic on POSIX, so readers
    (and a restarted daemon) only ever see complete checkpoints. *)
val save : identity:string -> path:string -> Mc.checkpoint -> unit

(** [Error] on missing file, unreadable bytes, schema mismatch or a cut
    saved under a different identity. *)
val load : identity:string -> path:string -> (Mc.checkpoint, string) result
