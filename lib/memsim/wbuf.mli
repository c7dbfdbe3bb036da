(** Per-process write buffers (Section 2).

    The paper's PSO/RMO buffer is an {e unordered} set [WB_p ⊆ R × D]
    without duplicates — [write_replace]. TSO needs a FIFO queue with
    duplicates — [write_fifo] — since coalescing a newer store into an
    older slot would break store ordering. The representation is shared
    (a persistent two-list queue, O(1) enqueue and amortized-linear
    drains); {!Memory_model} picks the discipline. Buffers are
    immutable. *)

type entry = { reg : Reg.t; value : int; overtaken : bool }
(** [overtaken]: this pending write has been reordered past — its owner
    executed a later operation, or a younger write committed, while it
    sat in the buffer. Pure accounting for the reorder-budget engines;
    never a state-key or model-semantic component, so unbounded runs
    are byte-identical with or without the flags. *)

type t

val empty : t
val is_empty : t -> bool

(** O(1) (stored, not recounted). *)
val size : t -> int

(** Number of pending entries currently overtaken — this buffer's
    contribution to the "reorderings in flight" budget. O(1). *)
val overtaken : t -> int

(** Overtaken flags as a bitset, oldest entry = bit 0 — the budget
    component bounded engines append to their state keys. *)
val overtaken_bits : t -> int

(** Mark every pending entry overtaken (the owner executes an operation
    while they are uncommitted). No-op when all are already marked. *)
val overtake_all : t -> t

(** Newest pending value for a register — what a read by the owner must
    return (store forwarding). *)
val find : t -> Reg.t -> int option

(** Sentinel returned by {!find_entry} on a miss; physically unique,
    never stored in a buffer. *)
val no_entry : entry

(** Newest pending entry for the register, or (physically) {!no_entry}
    — the allocation-free probe behind {!find}, for paths that run once
    per read/spin step. Compare against {!no_entry} with [==]. *)
val find_entry : t -> Reg.t -> entry

val mem : t -> Reg.t -> bool

(** Unordered-buffer write: replaces any pending write to the register. *)
val write_replace : t -> Reg.t -> int -> t

(** FIFO write: appends, keeping duplicates. O(1). *)
val write_fifo : t -> Reg.t -> int -> t

(** Oldest entry, for TSO head-only commits. *)
val head : t -> entry option

(** Remove the {e oldest} entry for the register and return its value.
    Leaves other entries' overtaken flags untouched. *)
val take : t -> Reg.t -> (int * t) option

(** Like {!take}, but marks every entry older than the removed one as
    overtaken (a younger write committed past them) and returns the new
    buffer alone — read the committed value with {!oldest_entry}. The
    executor's commit path. Committing the oldest entry marks nothing
    and may {e reduce} the in-flight count, so oldest-first drains are
    always budget-free. Raises [Invalid_argument] when nothing is
    pending for the register. *)
val commit : t -> Reg.t -> t

(** Oldest pending entry for the register — the one {!commit} removes —
    or (physically) {!no_entry}. Allocation-free. *)
val oldest_entry : t -> Reg.t -> entry

(** The largest register strictly below the bound with a pending write,
    or [-1]. Iterating it from [max_int] enumerates the distinct
    buffered registers in decreasing order without allocating. *)
val max_reg_below : t -> Reg.t -> Reg.t

(** Fold over entries, oldest first, without materializing a list and,
    for a closed function over an immediate accumulator, without
    allocating. *)
val fold : ('a -> entry -> 'a) -> 'a -> t -> 'a

(** Distinct registers with a pending write. *)
val regs : t -> Reg.Set.t

val smallest_reg : t -> Reg.t option

(** Entries, oldest first (materializes a list; cold paths only). *)
val entries : t -> entry list

val pp : t Fmt.t
