(** Memory models as write-buffer disciplines.

    - {!Sc}: writes commit at the write step; no buffering.
    - {!Tso}: FIFO buffer, head-only commits, store forwarding — the
      only relaxation is a read passing an earlier buffered write.
    - {!Pso}: the paper's unordered buffer; any pending write may
      commit at any time (write-write reordering).
    - {!Rmo}: treated identically to {!Pso} on the write side; the
      paper's lower bound needs only write reordering ("in RMO or even
      PSO") and its operational model is the PSO buffer. Kept distinct
      so reports label runs honestly.
    - {!Ra} / {!Sra}: release/acquire and strong release/acquire — not
      buffer disciplines but the view-based backend ({!View}/{!Modlog}):
      per-location timestamped modification logs and per-process views.
      SRA writes must append above the location's current maximum; RA
      may insert into the middle of the log. The buffer-policy functions
      below are never consulted for them. *)

type t = Sc | Tso | Pso | Rmo | Ra | Sra

val all : t list
val to_string : t -> string
val of_string : string -> t option
val pp : t Fmt.t
val equal : t -> t -> bool

(** Does the model run on the view-based backend ({!View}/{!Modlog})
    rather than a write buffer? *)
val view_based : t -> bool

(** Does the model buffer writes at all? ([false] for view-based
    models — their relaxations live in the log, not a buffer.) *)
val buffered : t -> bool

(** May writes to different locations be observed out of program order?
    The property the paper's tradeoff hinges on. Advisory for
    view-based models (RA mid-log insertion vs SRA append-only). *)
val reorders_writes : t -> bool

(** Insert a write under this model's discipline (unused for [Sc];
    raises [Invalid_argument] for view-based models). *)
val buffer_write : t -> Wbuf.t -> Reg.t -> int -> Wbuf.t

(** Registers whose pending write may commit right now, in increasing
    order. *)
val commit_candidates : t -> Wbuf.t -> Reg.t list

(** The largest of {!commit_candidates} below the bound, or [-1] —
    iterated down from [max_int], the candidates without the list. *)
val commit_candidate_below : t -> Wbuf.t -> Reg.t -> Reg.t

(** Membership in {!commit_candidates}, without building the list. *)
val may_commit : t -> Wbuf.t -> Reg.t -> bool

(** Would committing [r] now land out of buffer order (an older pending
    write still ahead of it)? The commits the reorder-budget accounting
    charges: never under [Sc]/[Tso], the non-head commits under
    [Pso]/[Rmo]. *)
val commit_reorders : t -> Wbuf.t -> Reg.t -> bool

(** The register the executor commits when the process is poised at a
    fence over a non-empty buffer: smallest buffered register for
    unordered buffers (the paper's rule), the FIFO head for TSO. *)
val forced_commit_reg : t -> Wbuf.t -> Reg.t option
