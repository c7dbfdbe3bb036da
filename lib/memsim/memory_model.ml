(** Memory models as write-buffer disciplines.

    The paper proves its tradeoff for models that allow write
    reordering (PSO, RMO) and contrasts them with TSO, where writes
    drain in program order, and SC, where there is no buffering at all.
    We realise each model as a policy over {!Wbuf}:

    - {!Sc}: writes commit at the write step; the buffer is always empty.
    - {!Tso}: FIFO buffer; only the head may commit; reads forward from
      the buffer. Read-after-write to a different location may still be
      reordered (the read executes while the write sits buffered), which
      is exactly TSO's one relaxation.
    - {!Pso}: the paper's unordered buffer; any pending write may commit
      at any time (write-write reordering).
    - {!Rmo}: treated identically to {!Pso} on the write side. The
      paper's lower bound needs only write reordering ("in RMO or even
      PSO"), and its operational model is the PSO buffer; RMO's
      additional read reordering is not exercised by any algorithm or
      bound here. Kept as a distinct constructor so reports label runs
      honestly.

    {!Ra} and {!Sra} are not buffer disciplines at all: they run on the
    view-based storage backend ({!View}/{!Modlog}) — per-location
    timestamped modification logs and per-process views, with
    release/acquire synchronization through message base views:

    - {!Ra}: release/acquire; a write may insert into the middle of a
      location's log (anywhere above the writer's own view), which is
      RA's extra write-reordering freedom.
    - {!Sra}: strong release/acquire; writes must take a timestamp
      above the location's current maximum (append-only logs), i.e.
      per-location writes are totally ordered the moment they happen.

    {!view_based} partitions the two families; the buffer-policy
    functions below are never consulted for view-based models (the
    executor dispatches on the storage discipline first), and the ones
    that would be meaningless raise. *)

type t = Sc | Tso | Pso | Rmo | Ra | Sra

let all = [ Sc; Tso; Pso; Rmo; Ra; Sra ]

let to_string = function
  | Sc -> "SC"
  | Tso -> "TSO"
  | Pso -> "PSO"
  | Rmo -> "RMO"
  | Ra -> "RA"
  | Sra -> "SRA"

let pp = Fmt.of_to_string to_string

let of_string = function
  | "SC" | "sc" -> Some Sc
  | "TSO" | "tso" -> Some Tso
  | "PSO" | "pso" -> Some Pso
  | "RMO" | "rmo" -> Some Rmo
  | "RA" | "ra" -> Some Ra
  | "SRA" | "sra" -> Some Sra
  | _ -> None

let equal (a : t) b = a = b

(** Does the model run on the view-based storage backend
    ({!View}/{!Modlog}) rather than a write buffer? *)
let view_based = function Ra | Sra -> true | Sc | Tso | Pso | Rmo -> false

(** Does the model buffer writes at all? (View-based models don't —
    their relaxations live in the log, not a buffer.) *)
let buffered = function Sc | Ra | Sra -> false | Tso | Pso | Rmo -> true

(** Does the model allow writes to different locations to be observed
    out of program order? This is the property the paper's tradeoff
    hinges on. For buffer models it is the commit discipline; for
    view-based models it is advisory only (RA's mid-log insertion vs
    SRA's append-only logs) — no buffer machinery consults it. *)
let reorders_writes = function
  | Sc | Tso | Sra -> false
  | Pso | Rmo | Ra -> true

(** Insert a write into the buffer under this model's discipline.
    Unused for [Sc] (the executor commits directly). *)
let buffer_write t wb r v =
  match t with
  | Sc -> wb (* never called; Sc writes bypass the buffer *)
  | Tso -> Wbuf.write_fifo wb r v
  | Pso | Rmo -> Wbuf.write_replace wb r v
  | Ra | Sra ->
      Fmt.invalid_arg "Memory_model.buffer_write: %s has no write buffer"
        (to_string t)

(** The largest register below [bound] whose pending write may be
    committed right now, or [-1]: iterated down from [max_int], the
    commit candidates in decreasing order, with no list built. *)
let commit_candidate_below t wb bound =
  match t with
  | Sc | Ra | Sra -> -1
  | Tso -> (
      match Wbuf.head wb with
      | Some e when e.Wbuf.reg < bound -> e.Wbuf.reg
      | Some _ | None -> -1)
  | Pso | Rmo -> Wbuf.max_reg_below wb bound

(** Registers whose pending write may be committed right now, in
    increasing order: the FIFO head under TSO, every buffered register
    under PSO/RMO. *)
let commit_candidates t wb =
  let rec go bound acc =
    let r = commit_candidate_below t wb bound in
    if r < 0 then acc else go r (r :: acc)
  in
  go max_int []

(** [may_commit t wb r] iff [r] is among [commit_candidates t wb] —
    the executor's explicit-commit test, without materializing the
    candidate list on every schedule element. *)
let may_commit t wb r =
  match t with
  | Sc | Ra | Sra -> false
  | Tso -> (
      match Wbuf.head wb with
      | Some e -> Reg.equal e.Wbuf.reg r
      | None -> false)
  | Pso | Rmo -> Wbuf.mem wb r

(** [commit_reorders t wb r]: would committing [r] right now land out
    of buffer order — i.e. does an older pending write (necessarily to
    another location, under either discipline) still sit ahead of it?
    These are exactly the commits the reorder-budget accounting
    ({!Wbuf.commit} marking, [Mc.run ?reorder_bound]) charges:
    never under [Sc] (no buffer) or [Tso] (head-only commits), and
    precisely the non-head commits [commit_candidates] enumerates
    under [Pso]/[Rmo]. *)
let commit_reorders t wb r =
  match t with
  | Sc | Tso | Ra | Sra -> false
  | Pso | Rmo -> (
      match Wbuf.head wb with
      | Some e -> not (Reg.equal e.Wbuf.reg r)
      | None -> false)

(** The register the executor must commit when the process is poised at
    a fence with a non-empty buffer: the smallest buffered register for
    unordered buffers (the paper's rule), the FIFO head for TSO. *)
let forced_commit_reg t wb =
  match t with
  | Sc | Ra | Sra -> None
  | Tso -> Option.map (fun e -> e.Wbuf.reg) (Wbuf.head wb)
  | Pso | Rmo -> Wbuf.smallest_reg wb
