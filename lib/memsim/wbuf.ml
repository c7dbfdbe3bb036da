(** Per-process write buffers.

    The paper's model (Section 2) equips each process with an
    {e unordered} write buffer [WB_p ⊆ R × D] without duplicates: a
    [write(R,x)] replaces any pending write to [R]. That is the PSO/RMO
    buffer. For TSO we additionally need a FIFO discipline {e with}
    duplicates (coalescing a newer store into an older slot would break
    TSO's store ordering), so the representation keeps insertion order
    and each memory model interprets it through {!Memory_model}.

    Representation: a persistent two-list queue — [front] holds the
    oldest entries front-first, [rback] the newest entries in reverse —
    so enqueuing ([write_fifo]) is O(1) instead of the former [t @ [e]]
    rebuild, TSO drain loops ([head]/[take]) reverse each entry at most
    once, and [size] is a stored field rather than [List.length]. The
    logical entry order (oldest first, a replaced register moving to
    the back) is unchanged: it is part of the model-checker state key
    under TSO, where FIFO order is semantic.

    The buffer is immutable; the executor threads it through
    configurations so snapshots are free. *)

type entry = { reg : Reg.t; value : int; overtaken : bool }

type t = {
  front : entry list;  (** oldest first *)
  rback : entry list;  (** newest first *)
  size : int;
  ot : int;  (** number of entries with [overtaken = true] *)
}
(** Logical order = [front @ List.rev rback], oldest first. Invariant
    maintained by [write_replace]: at most one entry per register.
    [write_fifo] may create duplicates.

    The [overtaken] flag supports the reorder-budget accounting
    ({!Memsim.Explore}'s [reorder_bound]): a pending write is overtaken
    once its owner executed a later operation before it committed
    ({!overtake_all}) or a younger write committed past it ({!commit}).
    Flags never feed the state-key lanes or any model-semantic
    decision — unbounded runs are byte-identical with or without
    them — the bounded engines fold {!overtaken_bits} into their keys
    themselves. *)

let empty : t = { front = []; rback = []; size = 0; ot = 0 }
let is_empty t = t.size = 0
let size t = t.size

(** Number of pending entries currently overtaken — this buffer's
    contribution to the "reorderings in flight" budget. O(1). *)
let overtaken t = t.ot

(** Overtaken flags as a bitset, oldest entry = bit 0 — the exact
    budget component a bounded engine appends to its state key.
    Buffers are tiny (bounded by distinct registers under replace
    semantics), far below the 62-bit capacity. *)
let overtaken_bits t =
  let bits = ref 0 and i = ref 0 in
  let feed e =
    if e.overtaken then bits := !bits lor (1 lsl !i);
    incr i
  in
  List.iter feed t.front;
  List.fold_right (fun e () -> feed e) t.rback ();
  !bits

let mark e = if e.overtaken then e else { e with overtaken = true }

(** Mark every pending entry overtaken: the owner is about to execute
    an operation while they are still uncommitted (the write→op
    reordering TSO and PSO both allow). No-op (and no allocation) when
    everything is already overtaken — so repeated ops over the same
    pending buffer charge the budget once, not per op. *)
let overtake_all t =
  if t.ot = t.size then t
  else
    {
      t with
      front = List.map mark t.front;
      rback = List.map mark t.rback;
      ot = t.size;
    }

(** Sentinel for {!find_entry}: physically unique, never stored in a
    buffer (register ids are non-negative). *)
let no_entry = { reg = -1; value = 0; overtaken = false }

(* The list walks below are top-level functions taking the register as
   an argument: a local [let rec] closing over it would allocate a
   closure on every probe, and these run once or more per step. *)

(* The first [r] entry of a list, or {!no_entry}. *)
let rec first_entry r = function
  | [] -> no_entry
  | e :: rest -> if Reg.equal e.reg r then e else first_entry r rest

(* The last [r] entry of a list, or [acc]. *)
let rec last_entry r acc = function
  | [] -> acc
  | e :: rest -> last_entry r (if Reg.equal e.reg r then e else acc) rest

(** Newest pending entry for [r], or (physically) {!no_entry} — the
    allocation-free probe behind {!find}, for hot paths that run once
    per read/spin step. *)
let find_entry t r =
  let e = first_entry r t.rback in
  if e != no_entry then e else last_entry r no_entry t.front

(** Newest pending value for [r], if any — the value a read by the owner
    must return (store forwarding), under every buffered model. *)
let find t r =
  let e = find_entry t r in
  if e == no_entry then None else Some e.value

let mem t r = find_entry t r != no_entry

(** Oldest pending entry for [r], or (physically) {!no_entry} — the
    entry {!commit} removes, probed without allocating. *)
let oldest_entry t r =
  let e = first_entry r t.front in
  if e != no_entry then e else last_entry r no_entry t.rback

(* A list without its [r] entries — physically the list when it has
   none. *)
let rec without r = function
  | [] -> []
  | e :: rest as l ->
      let rest' = without r rest in
      if Reg.equal e.reg r then rest'
      else if rest' == rest then l
      else e :: rest'

let rec count_reg r = function
  | [] -> 0
  | e :: rest -> (if Reg.equal e.reg r then 1 else 0) + count_reg r rest

let rec count_overtaken_reg r = function
  | [] -> 0
  | e :: rest ->
      (if Reg.equal e.reg r && e.overtaken then 1 else 0)
      + count_overtaken_reg r rest

(** Unordered-buffer write: replace any pending write to the same
    register (the paper's [WB_p - {(R,_)} ∪ {(R,x)}]); the entry moves
    to the logical back, as with the former filter-and-append. *)
let write_replace t r v =
  let e = find_entry t r in
  let front, rback =
    if e == no_entry then (t.front, t.rback)
    else (without r t.front, without r t.rback)
  in
  {
    front;
    rback = { reg = r; value = v; overtaken = false } :: rback;
    size = t.size - count_reg r t.front - count_reg r t.rback + 1;
    ot = t.ot - count_overtaken_reg r t.front - count_overtaken_reg r t.rback;
  }

(** FIFO write: append, keeping duplicates, for TSO. O(1). *)
let write_fifo t r v =
  {
    t with
    rback = { reg = r; value = v; overtaken = false } :: t.rback;
    size = t.size + 1;
  }

(** Oldest entry, for TSO head-only commits. *)
let head t =
  match t.front with
  | e :: _ -> Some e
  | [] -> (
      let rec last = function
        | [] -> None
        | [ e ] -> Some e
        | _ :: rest -> last rest
      in
      last t.rback)

(** Remove the oldest entry for [r] and return its value. Under the
    no-duplicate invariant this is the unique entry. Normalizes the
    queue when the match sits in the back half, so a drain loop
    reverses each entry at most once. *)
let take t r =
  let rec remove acc = function
    | [] -> None
    | e :: rest ->
        if Reg.equal e.reg r then Some (e, List.rev_append acc rest)
        else remove (e :: acc) rest
  in
  let drop_ot (e : entry) = t.ot - if e.overtaken then 1 else 0 in
  match remove [] t.front with
  | Some (e, front) ->
      Some (e.value, { t with front; size = t.size - 1; ot = drop_ot e })
  | None -> (
      match remove [] (List.rev t.rback) with
      | Some (e, back) ->
          (* keep the (matchless) front prefix ahead of the normalized
             back half *)
          Some
            ( e.value,
              {
                front = t.front @ back;
                rback = [];
                size = t.size - 1;
                ot = drop_ot e;
              } )
      | None -> None)

(* The list (oldest first) without its first [r] entry, every entry
   before that one marked overtaken. *)
let rec commit_front r = function
  | [] -> []
  | e :: rest -> if Reg.equal e.reg r then rest else mark e :: commit_front r rest

(* Unflagged entries before the first [r] entry (all of them when there
   is none) — what {!commit_front} newly marks. *)
let rec unmarked_before r = function
  | [] -> 0
  | e :: rest ->
      if Reg.equal e.reg r then 0
      else (if e.overtaken then 0 else 1) + unmarked_before r rest

(** Like {!take}, but additionally marks every entry {e older} than the
    removed one as overtaken — a younger write just committed past
    them — and returns the new buffer alone (read the committed value
    with {!oldest_entry} first). The executor's commit path; {!take}
    keeps the historical flag-neutral semantics for direct buffer
    surgery (tests, tools). Committing the oldest entry marks nothing
    (and, if that entry was itself overtaken, {e reduces} the in-flight
    count) — draining oldest-first is always budget-free, so a reorder
    bound can never wedge a fence. *)
let commit t r =
  let e = oldest_entry t r in
  if e == no_entry then Fmt.invalid_arg "Wbuf.commit: no pending write to %d" r;
  let retired = if e.overtaken then 1 else 0 in
  if first_entry r t.front != no_entry then
    {
      t with
      front = commit_front r t.front;
      size = t.size - 1;
      ot = t.ot + unmarked_before r t.front - retired;
    }
  else
    (* the whole front is older than the committed back entry *)
    let back = List.rev t.rback in
    {
      front = List.map mark t.front @ commit_front r back;
      rback = [];
      size = t.size - 1;
      ot = t.ot + unmarked_before r t.front + unmarked_before r back - retired;
    }

let rec max_below bound m = function
  | [] -> m
  | e :: rest ->
      max_below bound (if e.reg < bound && e.reg > m then e.reg else m) rest

(** The largest register below [bound] with a pending write, or [-1]:
    descending from [max_int], the distinct buffered registers without
    building a list. *)
let max_reg_below t bound = max_below bound (max_below bound (-1) t.front) t.rback

(* The back list's entries oldest first: the deepest element is
   applied first. Top-level, so a fold allocates no closure. *)
let rec fold_back f acc = function
  | [] -> acc
  | e :: rest -> f (fold_back f acc rest) e

(** Fold over entries, oldest first. With a closed [f] and an
    immediate accumulator it allocates nothing — the lane refresh's
    per-step path. *)
let fold f acc t = fold_back f (List.fold_left f acc t.front) t.rback

(** Distinct registers with a pending write, as a set (cold paths: the
    §5 encoder's footprint computation). *)
let regs t =
  let add s e = Reg.Set.add e.reg s in
  List.fold_left add (List.fold_left add Reg.Set.empty t.front) t.rback

let smallest_reg t =
  let min acc e =
    match acc with
    | None -> Some e.reg
    | Some r -> if Reg.compare e.reg r < 0 then Some e.reg else acc
  in
  List.fold_left min (List.fold_left min None t.front) t.rback

(** Entries, oldest first, as a materialized list (tests, printing). *)
let entries t = t.front @ List.rev t.rback

let pp ppf t =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf e ->
         Fmt.pf ppf "%a:=%d" Reg.pp e.reg e.value))
    (entries t)
