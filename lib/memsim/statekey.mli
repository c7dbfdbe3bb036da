(** Canonical state-key components shared by the sequential explorer
    and the parallel checker's fingerprinting. The key is the committed
    memory (exact) plus, per process, two cached 63-bit hash lanes over
    its local components (observation log, op count, write-buffer
    contents, last-read pair, final value) — see the implementation
    header for the soundness argument and the collision trade-off. *)

(** Feed the key components of a configuration as a flat integer
    stream: exact committed memory, then per-process cached lanes.
    O(bound registers + processes); allocates nothing but the
    closure. *)
val iter : Config.t -> (int -> unit) -> unit

(** The stream serialized to a byte string — the sequential explorer's
    hash-table key. Componentwise-equal configurations yield equal
    strings; distinct ones distinct strings (up to lane collision,
    ~2^-126 per pair). *)
val to_string : Config.t -> string

(** Cached local-component lanes of a process state, and their
    from-scratch recomputation (for incrementality tests). *)
val proc_lanes : Config.pstate -> int * int

val proc_lanes_scratch : Config.pstate -> int * int

(** Incrementally maintained shared-memory lanes (committed memory,
    xor the modification-log store under view-based models), one at a
    time and both, and their from-scratch recomputation. *)
val mem_lane_a : Config.t -> int

val mem_lane_b : Config.t -> int
val mem_lanes : Config.t -> int * int

val mem_lanes_scratch : Config.t -> int * int
