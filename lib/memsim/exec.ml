(** The executor: the paper's [Exec_A(C; σ)] function (Section 2).

    A schedule element is a pair [(p, R)] with [R ∈ R ∪ {⊥}] and is
    interpreted against a configuration as follows:

    + if [R ≠ ⊥] and the model currently allows committing [p]'s
      buffered write to [R], the step is that commit;
    + otherwise, if [p] is poised at a [fence()] (or a [cas], which
      carries an implicit barrier) and its buffer is non-empty, the
      step is a {e forced} commit — of the write to the smallest
      buffered register under an unordered (PSO/RMO) buffer, per the
      paper, or of the FIFO head under TSO;
    + otherwise the step is [p]'s next operation (read, write, fence,
      cas or return).

    Under [Sc] a write commits at the write step itself: the element
    yields a write step immediately followed by its commit — two model
    steps in the trace and in the step census (the write and its
    commit), exactly as one buffered write eventually costs two steps
    under TSO/PSO — so buffers are always empty and schedules
    degenerate to process choices.

    Reads are served from the process's own buffer when it holds a
    pending write to the register (store forwarding), from committed
    memory otherwise; only the latter can be remote.

    [Label]s in programs are consumed transparently before dispatch and
    surface as costless {!Step.Note}s.

    Every element touches at most one process's state and possibly
    committed memory, so {!step_into} writes its effect into a
    reusable scratch {!Config.delta} — the steps, plus what the state
    key and the monitors read of that process's successor state, the
    commit and the store — and builds no configuration and no process
    state. Every step below writes the delta's fields and returns its
    step list; none counts, logs an observation or updates the CC
    cache: [Config.apply] derives those from the steps, once, for the
    children it installs. The model checker keys children from the
    delta and installs only new states; [exec_elt_d] is [Config.apply]
    of a fresh delta and reports what changed ({!dirty}), so callers
    can re-fingerprint only the changed components. *)

type elt = Pid.t * Reg.t option

(** Which state-key components executing an element changed: at most
    one process's local state, and possibly committed memory. The
    last-committer table and metrics also change but are not key
    components. [proc = None] means the element was a no-op (and
    [mem] is then [false]). *)
type dirty = { proc : Pid.t option; mem : bool }

let pp_elt ppf ((p, r) : elt) =
  match r with
  | None -> Fmt.pf ppf "(p%a,⊥)" Pid.pp p
  | Some r -> Fmt.pf ppf "(p%a,%a)" Pid.pp p Reg.pp r

(* Preallocated hot-path records: dirty reports are structurally
   determined by (pid, mem-bit) — share one immutable record per case
   instead of allocating per element. Initialized at module load
   (before any domain spawns); read-only thereafter, so cross-domain
   sharing is safe. *)
let dirty_none = { proc = None; mem = false }
let dirty_clean = Array.init 64 (fun p -> { proc = Some p; mem = false })
let dirty_mem = Array.init 64 (fun p -> { proc = Some p; mem = true })

let[@inline] b2i b = if b then 1 else 0

(** The dirty report for process [p]; allocation-free for [p < 64]. *)
let dirty_of p ~mem =
  if p < 64 then if mem then dirty_mem.(p) else dirty_clean.(p)
  else { proc = Some p; mem }

(* Every step below writes into the caller's delta [d], already loaded
   with [p]'s state [st] (all but the program and the steps), returns
   its step list, and allocates only its steps and what the successor
   state must hold anew (a buffer, a view, a store). *)

(* An operation step's successor program: one op more, no last read. *)
let advance (d : Config.delta) prog =
  d.Config.prog <- prog;
  d.Config.lr_reg <- Config.no_reg;
  d.Config.ops <- d.Config.ops + 1

let commit (d : Config.delta) r v =
  d.Config.commit_reg <- r;
  d.Config.commit_value <- v

(* Commit the pending write to [r] from [p]'s buffer. [Wbuf.commit]
   marks entries older than the committed one as overtaken — the
   write-write half of the reorder-budget accounting; the flags are
   invisible to state keys and model semantics. *)
let commit_write cfg d p (st : Config.pstate) r =
  let e = Wbuf.oldest_entry st.Config.wb r in
  if e == Wbuf.no_entry then
    Fmt.invalid_arg "Exec.commit_write: no pending write to %d" r;
  let v = e.Wbuf.value in
  let loc = Config.commit_locality cfg p r in
  Config.set_wb d st (Wbuf.commit st.Config.wb r);
  d.Config.lr_reg <- Config.no_reg;
  commit d r v;
  [ Step.Commit { p; reg = r; value = v; loc } ]

(* [p]'s newest buffered entry for [r] under a buffered model — what a
   read forwards — or (physically) [Wbuf.no_entry]. *)
let forwarded cfg (st : Config.pstate) r =
  if cfg.Config.buffered then Wbuf.find_entry st.Config.wb r else Wbuf.no_entry

(* The value a read of [r] by [p] would return right now: store
   forwarding from [p]'s own buffer under a buffered model, committed
   memory otherwise. No option or tuple allocated; read steps that also
   need the forwarding flag probe {!forwarded} themselves. *)
let visible_only cfg (st : Config.pstate) r =
  let e = forwarded cfg st r in
  if e != Wbuf.no_entry then e.Wbuf.value else Config.read_mem cfg r

(* Would a spinv round over [regs] replay the previous round [prev] —
   does every register still show the value it read last time? The
   blocked test, compared in place rather than on a built list. *)
let rec same_round cfg st regs vs =
  match (regs, vs) with
  | [], [] -> true
  | r :: regs, v :: vs -> visible_only cfg st r = v && same_round cfg st regs vs
  | _ -> false

let replays cfg st regs prev =
  match prev with None -> false | Some vs -> same_round cfg st regs vs

(* A read of [r] returning [v] served as [from_wbuf] tells (the caller
   resolved visibility and applied the continuation). [wb] is the
   buffer to install (the caller's overtake-marked view of [st]'s). *)
let read_step cfg d p (st : Config.pstate) ~wb r v from_wbuf ~prog =
  let loc =
    if from_wbuf then Step.local else Config.read_locality cfg p st r v
  in
  advance d prog;
  Config.set_wb d st wb;
  d.Config.lr_reg <- r;
  d.Config.lr_value <- v;
  Config.observe d v;
  [ Step.Read { p; reg = r; value = v; from_wbuf; loc } ]

(* Strong read-modify-write primitives (swap, faa): like cas, they act
   on committed memory behind an implicit barrier (the executor forces
   the buffer empty before dispatching here) and charge commit
   locality. Billed to the [rmw] counter — the [cas] counter is for
   cas steps only, so swap/faa-based locks report honest censuses.
   [read] is the committed value (the caller already fetched it to
   build [prog], the successor program continuing on it). *)
let rmw_op cfg d p (st : Config.pstate) r ~op ~arg ~read ~prog =
  assert (Wbuf.is_empty st.Config.wb);
  let wrote = match op with `Swap -> arg | `Faa -> read + arg in
  let loc = Config.commit_locality cfg p r in
  advance d prog;
  Config.observe d read;
  commit d r wrote;
  [ Step.Rmw { p; reg = r; op; arg; read; wrote; loc } ]

(* ------------------------------------------------------------------ *)
(* View-based execution (RA/SRA). See DESIGN.md §6f.

   Under a view-based model a schedule element's register slot is
   reinterpreted as a CHOICE INDEX: [(p, ⊥)] is choice 0 and
   [(p, Some k)] the k-th alternative of [p]'s current operation,
   ordered newest-first — choice 0 reads the newest eligible message /
   appends at the log maximum, so the [(p, ⊥)]-only schedules every
   wbuf-unaware caller (run_solo, drain_once, …) produces remain
   meaningful. Reads choose among the messages at or above the
   process's view; RA writes choose an insertion position strictly
   above the writer's view (SRA has the append as its only choice);
   everything else is deterministic (one choice). *)

(* One alternative of the current operation. *)
type vchoice =
  | VDet  (** deterministic op: ret, fence, cas, swap, faa *)
  | VRead of Modlog.msg * int  (** read this message (at this position) *)
  | VSpinRead of Modlog.msg * int  (** productive spin read *)
  | VWriteAt of int  (** insert the write at this log position *)
  | VRound of (Reg.t * Modlog.msg) list
      (** one atomic spinv round: per-register message picks, in
          program order, each eligible under the view as updated by
          the acquires before it *)

(* Acquire message [m] read at [r]: join its base into [view], then
   advance the [r] entry to [m] (sound: eligibility guarantees [m] is
   at or above the view, and a base never contains the message
   itself). *)
let acquire store view (m : Modlog.msg) r =
  View.set (Modlog.join store view m.Modlog.base) r m.Modlog.mid

(* Messages of [r] readable under [view] — positions at or above the
   view entry — newest first. *)
let eligible_msgs store view r =
  let n = Modlog.nmsgs store r in
  let vp = Modlog.view_pos store r view in
  List.init (n - vp) (fun i ->
      let pos = n - 1 - i in
      (Modlog.msg_at store r pos, pos))

(* All executable spinv rounds: per-register picks threaded through
   the acquires (a message eligible against the round's start view may
   be below it once an earlier pick's base joined in), paired with the
   view the round ends on. Newest-first lexicographic in program
   order, so tuple 0 is the all-newest round. *)
let rec round_tuples store view acc = function
  | [] -> [ (List.rev acc, view) ]
  | r :: rest ->
      List.concat_map
        (fun ((m : Modlog.msg), _pos) ->
          round_tuples store (acquire store view m r) ((r, m) :: acc) rest)
        (eligible_msgs store view r)

(** The alternatives of [st]'s current operation (at its label-free
    [skipped] program), newest-first; [[]] iff the process is final or blocked.
    Spins restrict to {e productive} reads — satisfying, or
    view-advancing, or not a repeat of the last observation — which is
    what makes spinning terminate within a fixed store: each
    unproductive candidate is exactly a re-read the wbuf backend's
    blocked rule would also suppress. *)
let view_choices cfg (st : Config.pstate) : vchoice list =
  let store = Config.store_exn cfg in
  match (st.Config.skipped : Program.t) with
  | Program.Done _ -> []
  | Label _ -> assert false
  | Ret _ | Fence _ | Cas _ | Swap _ | Faa _ -> [ VDet ]
  | Read (r, _) ->
      List.map
        (fun (m, pos) -> VRead (m, pos))
        (eligible_msgs store st.Config.view r)
  | Spin (r, pred, _) ->
      let vp = Modlog.view_pos store r st.Config.view in
      List.filter_map
        (fun ((m : Modlog.msg), pos) ->
          if
            pred m.Modlog.value || pos > vp
            || not (st.Config.lr_reg = r && st.Config.lr_value = m.Modlog.value)
          then Some (VSpinRead (m, pos))
          else None)
        (eligible_msgs store st.Config.view r)
  | Spinv (regs, prev, pred, _) ->
      (* a round is productive when it satisfies the predicate, is the
         first round, or advances the view — an unproductive round is
         an exact replay of the previous one (same messages, same
         values), the view-backend analogue of the wbuf blocked rule *)
      List.filter_map
        (fun (tuple, view') ->
          let vs =
            List.map (fun (_, (m : Modlog.msg)) -> m.Modlog.value) tuple
          in
          if pred vs || prev = None || not (View.equal view' st.Config.view)
          then Some (VRound tuple)
          else None)
        (round_tuples store st.Config.view [] regs)
  | Write (r, _, _) -> (
      let n = Modlog.nmsgs store r in
      match cfg.Config.model with
      | Memory_model.Sra ->
          (* strong RA: the write must take a timestamp above the
             location's current maximum — append only *)
          [ VWriteAt n ]
      | Memory_model.Ra ->
          (* RA: any position strictly above the writer's own view —
             except directly below an RMW message, which is attached
             to the message it read (RMW atomicity) *)
          let vp = Modlog.view_pos store r st.Config.view in
          List.filter_map
            (fun i ->
              let at = n - i in
              if at < n && (Modlog.msg_at store r at).Modlog.rmw then None
              else Some (VWriteAt at))
            (List.init (n - vp) Fun.id)
      | Sc | Tso | Pso | Rmo -> assert false)

(** Number of alternatives of [p]'s current operation (labels skipped);
    [0] iff final or blocked. The scheduler's draw range. *)
let view_nchoices cfg p =
  let st = Config.pstate cfg p in
  match (st.Config.skipped : Program.t) with
  | Done _ -> 0
  | Ret _ | Fence _ | Cas _ | Swap _ | Faa _ -> 1
  | Read (r, _) ->
      let store = Config.store_exn cfg in
      Modlog.nmsgs store r - Modlog.view_pos store r st.Config.view
  | Write _ when cfg.Config.model = Memory_model.Sra -> 1
  | Write _ | Spin _ | Spinv _ | Label _ -> List.length (view_choices cfg st)

(* Alternative [idx] of [st]'s current operation — [List.nth_opt] of
   {!view_choices}, without building the list for the single-choice
   operations and plain reads, the common steps. *)
let view_choice cfg (st : Config.pstate) idx =
  match (st.Config.skipped : Program.t) with
  | Done _ -> None
  | Ret _ | Fence _ | Cas _ | Swap _ | Faa _ -> if idx = 0 then Some VDet else None
  | Read (r, _) ->
      let store = Config.store_exn cfg in
      let n = Modlog.nmsgs store r in
      if idx >= n - Modlog.view_pos store r st.Config.view then None
      else
        let pos = n - 1 - idx in
        Some (VRead (Modlog.msg_at store r pos, pos))
  | Write (r, _, _) when cfg.Config.model = Memory_model.Sra ->
      if idx = 0 then Some (VWriteAt (Modlog.nmsgs (Config.store_exn cfg) r))
      else None
  | Write _ | Spin _ | Spinv _ | Label _ -> List.nth_opt (view_choices cfg st) idx

(* Read message [m] at [r]: acquire its base, observe its value.
   Mirrors {!read_step}; locality is the paper's read rule — view reads
   are never store-forwarded. *)
let view_read_step cfg d p (st : Config.pstate) r (m : Modlog.msg) ~prog =
  let v = m.Modlog.value in
  let loc = Config.read_locality cfg p st r v in
  advance d prog;
  d.Config.lr_reg <- r;
  d.Config.lr_value <- v;
  Config.observe d v;
  Config.set_view d st (acquire (Config.store_exn cfg) st.Config.view m r);
  [ Step.Read { p; reg = r; value = v; from_wbuf = false; loc } ]

(* Write [v] to [r] at log position [at], base = the release view.
   Appends are commits: they advance the location's log maximum, so
   committed memory (kept materialized at the maximum) and the
   last-committer table update; an RA mid-log insertion changes
   neither. Either way the store changed, so the step is mem-dirty.
   Commit locality is charged once, on the write step itself. *)
let view_write_step cfg d p (st : Config.pstate) r v ~at ~prog =
  let store = Config.store_exn cfg in
  let appended = at = Modlog.nmsgs store r in
  let loc = Config.commit_locality cfg p r in
  let m, store = Modlog.insert store r ~at ~value:v ~base:st.Config.rel in
  advance d prog;
  Config.set_view d st (View.set st.Config.view r m.Modlog.mid);
  Config.set_store d store;
  if appended then commit d r v;
  [ Step.Write { p; reg = r; value = v; loc } ]

(* The SC fence: join the process's view into the global fence view
   and adopt the join; the release view catches up. Fences are thereby
   totally ordered (each adopts every earlier one's knowledge), which
   is what collapses fully fenced programs onto SC. *)
let view_fence_step cfg d p (st : Config.pstate) ~prog =
  let store = Config.store_exn cfg in
  let view = Modlog.join store st.Config.view (Modlog.sc store) in
  advance d prog;
  Config.set_view d st view;
  Config.set_rel d st view;
  Config.set_store d (Modlog.with_sc store view);
  [ Step.Fence { p } ]

(* Strong RMW (swap/faa): an SC fence, a read of the location's log
   MAXIMUM, and an append, atomically; the new message's base is the
   full post-read view and both the SC and release views adopt the
   result — an RMW is a release and an acquire. Reading the maximum
   (rather than any eligible message) is the "strong RMW"
   simplification documented in DESIGN.md §6f: it keeps RMW chains
   totally ordered per location, which the mutex algorithms rely on.
   Billing mirrors the wbuf {!rmw_op}. *)
let view_rmw_step cfg d p (st : Config.pstate) r ~op ~arg ~k =
  let store = Config.store_exn cfg in
  let view = Modlog.join store st.Config.view (Modlog.sc store) in
  let m = Modlog.max_msg store r in
  let read = m.Modlog.value in
  let view = acquire store view m r in
  let wrote = match op with `Swap -> arg | `Faa -> read + arg in
  let loc = Config.commit_locality cfg p r in
  let wm, store =
    Modlog.insert ~rmw:true store r ~at:(Modlog.nmsgs store r) ~value:wrote
      ~base:view
  in
  let view = View.set view r wm.Modlog.mid in
  advance d (k read);
  Config.observe d read;
  Config.set_view d st view;
  Config.set_rel d st view;
  Config.set_store d (Modlog.with_sc store view);
  commit d r wrote;
  [ Step.Rmw { p; reg = r; op; arg; read; wrote; loc } ]

(* Cas: same barrier + read-the-maximum discipline as {!view_rmw_step};
   on success the update appends and publishes, on failure only the
   read-enriched view is published (the barrier still happened). *)
let view_cas_step cfg d p (st : Config.pstate) r ~expect ~update ~k =
  let store = Config.store_exn cfg in
  let view = Modlog.join store st.Config.view (Modlog.sc store) in
  let m = Modlog.max_msg store r in
  let read = m.Modlog.value in
  let view = acquire store view m r in
  let success = read = expect in
  let loc = Config.commit_locality cfg p r in
  let view, store =
    if success then begin
      let wm, store =
        Modlog.insert ~rmw:true store r ~at:(Modlog.nmsgs store r)
          ~value:update ~base:view
      in
      (View.set view r wm.Modlog.mid, store)
    end
    else (view, store)
  in
  advance d (k success);
  Config.observe d read;
  Config.observe d (b2i success);
  Config.set_view d st view;
  Config.set_rel d st view;
  Config.set_store d (Modlog.with_sc store view);
  if success then commit d r update;
  [ Step.Cas { p; reg = r; expect; update; read; success; loc } ]

(* One atomic spinv round: the per-register reads of [tuple] in
   program order, each acquiring its message's base. Executing the
   round whole is outcome-equivalent to unrolling it into reads (the
   tuple was enumerated against the threaded view), and sidesteps the
   unrolled form's unbounded unproductive interleavings. One read step
   (and one op) per register; a value read earlier in the round is a
   cache hit. *)
let view_round_step cfg d p (st : Config.pstate) regs pred k tuple =
  let store = Config.store_exn cfg in
  let read (view, known, steps) (r, (m : Modlog.msg)) =
    let v = m.Modlog.value in
    let cc_local = Config.Known.mem known r v in
    let loc =
      Step.locality ~dsm_local:(Layout.is_local cfg.Config.layout p r) ~cc_local
    in
    Config.observe d v;
    ( acquire store view m r,
      (if cc_local then known else Config.Known.add known r v),
      Step.Read { p; reg = r; value = v; from_wbuf = false; loc } :: steps )
  in
  let view, _, steps =
    List.fold_left read (st.Config.view, st.Config.known, []) tuple
  in
  let vs = List.map (fun (_, (m : Modlog.msg)) -> m.Modlog.value) tuple in
  advance d (if pred vs then k vs else Program.Spinv (regs, Some vs, pred, k));
  d.Config.ops <- st.Config.ops + List.length tuple;
  Config.set_view d st view;
  List.rev steps

(* One view-backend step of [p], taking alternative [idx] of its
   current operation. A no-op when there is nothing to do — final, or
   blocked — for [idx = 0]; an out-of-range explicit alternative is a
   schedule bug and raises. *)
let view_op_step cfg d p (st : Config.pstate) idx =
  match view_choice cfg st idx with
  | None ->
      if idx <> 0 then
        Fmt.invalid_arg "Exec: view choice %d out of range (%d available)" idx
          (List.length (view_choices cfg st));
      []
  | Some c -> (
      match ((st.Config.skipped : Program.t), c) with
      | Program.Ret v, VDet ->
          advance d (Program.Done v);
          [ Step.Return { p; value = v } ]
      | Read (r, k), VRead (m, _) ->
          view_read_step cfg d p st r m ~prog:(k m.Modlog.value)
      | (Spin (r, pred, k) as spin), VSpinRead (m, _) ->
          let prog = if pred m.Modlog.value then k m.Modlog.value else spin in
          view_read_step cfg d p st r m ~prog
      | Spinv (regs, _, pred, k), VRound tuple ->
          view_round_step cfg d p st regs pred k tuple
      | Write (r, v, k), VWriteAt at ->
          view_write_step cfg d p st r v ~at ~prog:(k ())
      | Fence k, VDet -> view_fence_step cfg d p st ~prog:(k ())
      | Cas (r, expect, update, k), VDet ->
          view_cas_step cfg d p st r ~expect ~update ~k
      | Swap (r, arg, k), VDet -> view_rmw_step cfg d p st r ~op:`Swap ~arg ~k
      | Faa (r, arg, k), VDet -> view_rmw_step cfg d p st r ~op:`Faa ~arg ~k
      | _ -> assert false)

(* The return step: the process becomes [Done v]. *)
let ret_op d p st ~wb v =
  advance d (Program.Done v);
  Config.set_wb d st wb;
  [ Step.Return { p; value = v } ]

(* The write step: buffered models enqueue into [wb] (the caller's
   overtake-marked view of [st]'s buffer); SC commits immediately —
   two model steps (the write and its commit) from one element, as
   the module header promises. Commit locality is charged (once, on
   the commit), so SC algorithms still pay DSM RMRs for writing remote
   registers, as in the classical literature. *)
let write_op cfg d p st ~wb r v ~prog =
  advance d prog;
  let write = Step.Write { p; reg = r; value = v; loc = Step.local } in
  if cfg.Config.buffered then begin
    Config.set_wb d st (Memory_model.buffer_write cfg.Config.model wb r v);
    [ write ]
  end
  else begin
    commit d r v;
    [
      write;
      Step.Commit { p; reg = r; value = v; loc = Config.commit_locality cfg p r };
    ]
  end

(* The fence step: the dispatcher already forced the buffer empty. *)
let fence_op d p (st : Config.pstate) ~prog =
  assert (Wbuf.is_empty st.Config.wb);
  advance d prog;
  [ Step.Fence { p } ]

(* The cas step: [read]/[success] precomputed by the caller (it needed
   them to build [prog]). *)
let cas_op cfg d p (st : Config.pstate) r ~expect ~update ~read ~success ~prog =
  assert (Wbuf.is_empty st.Config.wb);
  let loc = Config.commit_locality cfg p r in
  advance d prog;
  Config.observe d read;
  Config.observe d (b2i success);
  if success then commit d r update;
  [ Step.Cas { p; reg = r; expect; update; read; success; loc } ]

(* One operation step of [p] at its label-free program [prog] ([st] is
   [p]'s installed state), returning its steps. Nothing happens — no
   steps, the delta stays the no-op — when [p] has no step to take: it is final, or blocked on a spin
   whose register still holds the value it last observed. Dispatch is
   on the tree node; under [Config.make]'s default the node's
   continuations are memoized ({!Compile}), so re-stepping a visited
   position rebuilds nothing. *)
let op_step cfg d p (st : Config.pstate) ~wb prog =
  match (prog : Program.t) with
  | Program.Done _ -> []
  | Label _ -> assert false
  | Ret v -> ret_op d p st ~wb v
  | Read (r, k) ->
      let e = forwarded cfg st r in
      let fw = e != Wbuf.no_entry in
      let v = if fw then e.Wbuf.value else Config.read_mem cfg r in
      read_step cfg d p st ~wb r v fw ~prog:(k v)
  | Spin (r, pred, k) ->
      let e = forwarded cfg st r in
      let fw = e != Wbuf.no_entry in
      let v = if fw then e.Wbuf.value else Config.read_mem cfg r in
      if pred v then read_step cfg d p st ~wb r v fw ~prog:(k v)
      else if not (st.Config.lr_reg = r && st.Config.lr_value = v) then
        (* observe the (new) unsatisfying value: a real read step that
           leaves the process poised at the same spin; a repeat is
           blocked — a cache hit and a no-op *)
        read_step cfg d p st ~wb r v fw ~prog
      else []
  | Spinv (regs, prev, pred, k) ->
      if not (replays cfg st regs prev) then begin
        (* not blocked (a round would not replay): unroll one round
           into ordinary fine-grained reads; execute the first now *)
        let rec round acc = function
          | [] ->
              let vs = List.rev acc in
              if pred vs then k vs else Program.Spinv (regs, Some vs, pred, k)
          | r :: rest -> Program.Read (r, fun v -> round (v :: acc) rest)
        in
        match round [] regs with
        | Program.Read (r, k') ->
            let e = forwarded cfg st r in
            let fw = e != Wbuf.no_entry in
            let v = if fw then e.Wbuf.value else Config.read_mem cfg r in
            read_step cfg d p st ~wb r v fw ~prog:(k' v)
        | _ -> invalid_arg "Exec: Spinv over no registers"
      end
      else []
  | Write (r, v, k) -> write_op cfg d p st ~wb r v ~prog:(k ())
  | Fence k -> fence_op d p st ~prog:(k ())
  | Cas (r, expect, update, k) ->
      let read = Config.read_mem cfg r in
      let success = read = expect in
      cas_op cfg d p st r ~expect ~update ~read ~success ~prog:(k success)
  | Swap (r, arg, k) ->
      let read = Config.read_mem cfg r in
      rmw_op cfg d p st r ~op:`Swap ~arg ~read ~prog:(k read)
  | Faa (r, arg, k) ->
      let read = Config.read_mem cfg r in
      rmw_op cfg d p st r ~op:`Faa ~arg ~read ~prog:(k read)

(* The notes of the labels [prog] is poised at. Only called when there
   are some: [prog == skipped] is an exact pending-label test, since
   [Program.post_labels] returns its argument physically when there is
   nothing to skip. The walk is for note emission only; the installed
   program is the cached [skipped], so continuations past a label are
   never re-forced here. *)
let label_notes p prog =
  let notes = ref [] in
  ignore
    (Program.skip_labels
       ~emit:(fun s -> notes := Step.Note { p; text = s } :: !notes)
       prog);
  List.rev !notes

(** Consume pending labels of every process, returning the notes and
    the processes whose state changed. The model checker normalizes
    states this way so that annotation boundaries never split
    semantically identical states; the dirtied-process list lets it
    carry fingerprints across the normalization. *)
let flush_labels_d cfg : Step.t list * Config.t * Pid.t list =
  (* The label mask makes the dominant no-label case O(1) and lets the
     general case probe only processes whose (exact, for p < 62) bit is
     set. *)
  if cfg.Config.label_mask = 0 then ([], cfg, [])
  else
    let n = Config.nprocs cfg in
    let rec go p acc dirtied cfg =
      if p >= n then (List.rev acc, cfg, List.rev dirtied)
      else
        let st = Config.pstate cfg p in
        if st.Config.prog == st.Config.skipped then go (p + 1) acc dirtied cfg
        else
          let notes = label_notes p st.Config.prog in
          go (p + 1)
            (List.rev_append notes acc)
            (if notes <> [] then p :: dirtied else dirtied)
            (Config.set_pstate cfg p { st with Config.prog = st.Config.skipped })
    in
    go 0 [] [] cfg

let flush_labels cfg : Step.t list * Config.t =
  let notes, cfg, _ = flush_labels_d cfg in
  (notes, cfg)

(** Whether [p] must commit before doing anything else: poised at a
    fence (or cas) with a non-empty buffer. *)
let forced_commit_pending cfg p =
  let st = Config.pstate cfg p in
  (not (Wbuf.is_empty st.Config.wb))
  &&
  match Program.next_kind st.Config.skipped with
  | Program.Op_fence | Program.Op_cas -> true
  | Op_read | Op_write | Op_spin | Op_return _ | Op_done -> false

(* The element [(p, r)] at [p]'s state [st], labels consumed. Commits
   are system steps — they remain possible even after the process
   reached its final state with a non-empty buffer (only programs that
   fence before returning are guaranteed an empty buffer at return,
   and our ablations deliberately break that). *)
let dispatch cfg d p (st : Config.pstate) r =
  if cfg.Config.view_based then
    (* view backend: the register slot is a choice index (see the view
       section header); there are no commits or buffers to overtake *)
    view_op_step cfg d p st (match r with None -> 0 | Some k -> k)
  else
    let prog = st.Config.skipped in
    let wb = st.Config.wb in
    match r with
    | Some r when Memory_model.may_commit cfg.Config.model wb r ->
        commit_write cfg d p st r
    | Some _ | None -> (
        if Program.is_done prog then []
        else
          let forced =
            match Program.next_kind prog with
            | Program.Op_fence | Program.Op_cas ->
                if Wbuf.is_empty wb then None
                else Memory_model.forced_commit_reg cfg.Config.model wb
            | Op_read | Op_write | Op_spin | Op_return _ | Op_done -> None
          in
          match forced with
          | Some r -> commit_write cfg d p st r
          | None ->
              (* The op is about to execute while [p]'s buffered writes
                 are still uncommitted: mark them overtaken (the
                 write→op half of the reorder-budget accounting — under
                 SC those writes would already have committed). A
                 blocked op is a no-op, discarding the marking, so
                 no-ops never charge. No-op when the buffer is empty or
                 already fully marked. *)
              let owb = if Wbuf.is_empty wb then wb else Wbuf.overtake_all wb in
              op_step cfg d p st ~wb:owb prog)

(** Step one schedule element into [d], building no configuration:
    [p]'s pending labels are consumed first (their notes lead the
    steps), then the element is interpreted per the module header, and
    the stepped process's lanes are refreshed. [d] is overwritten
    whole; it stays valid until the next step into it. Every pointer
    field is written at most once (a write into the long-lived scratch
    record goes through the write barrier).

    Hot-loop audit note: the [notes @ steps] append here is {e not}
    the quadratic accumulation pattern fixed in {!Scheduler.sequential}
    — [notes] is the pending-label list of one process at one program
    point, bounded by the longest run of consecutive [label]s in the
    program text, and the model checker's normalized states never have
    any. Callers that accumulate whole traces ({!exec}, the schedulers,
    the explorers) all use rev-append with a single final reverse. *)
let step_into d cfg ((p, r) : elt) =
  let st = Config.pstate cfg p in
  Config.load d p st;
  let steps = dispatch cfg d p st r in
  if d.Config.ops = st.Config.ops then begin
    (* a commit or a no-op: the program stays, its labels consumed *)
    if d.Config.prog != st.Config.skipped then d.Config.prog <- st.Config.skipped
  end;
  d.Config.steps <-
    (if st.Config.prog == st.Config.skipped then steps
     else label_notes p st.Config.prog @ steps);
  if Config.changes cfg d then Config.refresh d st

(** {!step_into} a fresh delta — for cold callers. *)
let step cfg e =
  let d = Config.scratch () in
  step_into d cfg e;
  d

(** Does the delta leave its process poised at a label? *)
let unsettled (d : Config.delta) = Program.at_label d.Config.prog

(** Consume the labels the delta's process is poised at, in place, and
    return their notes ([cfg] is the configuration stepped from) — what {!flush_labels_d} does to the installed
    child, when the parent had no pending labels (then only the stepped
    process can have any). *)
let settle cfg (d : Config.delta) =
  if not (unsettled d) then []
  else begin
    let notes = label_notes d.Config.pid d.Config.prog in
    d.Config.prog <- Program.post_labels d.Config.prog;
    Config.refresh d (Config.pstate cfg d.Config.pid);
    notes
  end

(* What installing the delta dirtied. *)
let dirty_of_delta cfg (d : Config.delta) =
  if not (Config.changes cfg d) then dirty_none
  else
    dirty_of d.Config.pid
      ~mem:
        (d.Config.commit_reg <> Config.no_reg
        || Option.is_some (Config.next_store d))

(** Execute one schedule element, reporting the steps produced, the
    successor configuration and the dirtied key components:
    [Config.apply] of a fresh {!step}. *)
let exec_elt_d cfg (e : elt) : Step.t list * Config.t * dirty =
  let d = step cfg e in
  (d.Config.steps, Config.apply cfg d, dirty_of_delta cfg d)


(** Execute one schedule element. Returns the steps it produced (empty
    when the element is a no-op, e.g. names a finished process) and the
    successor configuration. *)
let exec_elt cfg (e : elt) : Step.t list * Config.t =
  let steps, cfg, _ = exec_elt_d cfg e in
  (steps, cfg)

(** Run a whole schedule, accumulating the trace. *)
let exec cfg (sched : elt list) : Step.t list * Config.t =
  let rec go acc cfg = function
    | [] -> (List.rev acc, cfg)
    | e :: rest ->
        let steps, cfg = exec_elt cfg e in
        go (List.rev_append steps acc) cfg rest
  in
  go [] cfg sched

(** All schedule elements that would produce a step for [p] right now:
    the op element plus one commit element per committable register. *)
let enabled_elts cfg p : elt list =
  if Config.is_final cfg p then []
  else if cfg.Config.view_based then
    (* one element per alternative of the current op, newest-first;
       empty when blocked. Choice indices reuse the preallocated
       element tables; an index beyond [nregs] (deep modification
       logs) allocates. *)
    let elts = cfg.Config.commit_elts.(p) in
    let nregs = Array.length elts in
    List.init (view_nchoices cfg p) (fun i ->
        if i = 0 then cfg.Config.op_elts.(p)
        else if i < nregs then elts.(i)
        else (p, Some i))
  else
    let commits =
      Memory_model.commit_candidates cfg.Config.model (Config.wbuf cfg p)
      |> List.map (fun r -> cfg.Config.commit_elts.(p).(r))
    in
    cfg.Config.op_elts.(p) :: commits

(** Run process [p] alone until it reaches a final state, with forced
    commits at fences per the executor rule. Returns [Some (steps,
    config)] on termination, [None] if [p] blocks (a spin that no solo
    schedule can satisfy — its own commits cannot change what it sees,
    thanks to store forwarding) or exceeds [fuel].

    This implements the decoder's side condition "[p] enters a final
    state in every [p]-only execution from [C]": with spins primitive,
    solo termination is independent of the solo schedule chosen, so
    running the canonical one decides it. *)
let run_solo ?(fuel = 1_000_000) cfg p : (Step.t list * Config.t) option =
  let rec go acc fuel cfg =
    if Config.is_final cfg p then Some (List.rev acc, cfg)
    else if fuel <= 0 then None
    else
      let steps, cfg' = exec_elt cfg (p, None) in
      if List.exists Step.is_model_step steps then
        go (List.rev_append steps acc) (fuel - 1) cfg'
      else if Config.is_final cfg' p then Some (List.rev acc, cfg')
      else None (* blocked on a spin: no solo schedule can unblock it *)
  in
  go [] fuel cfg

(** Does [p] terminate when run alone from [cfg]? *)
let terminates_solo ?fuel cfg p = Option.is_some (run_solo ?fuel cfg p)

(** Is [p] currently blocked: not final, poised at a spin whose register
    still holds the unsatisfying value [p] already observed, with no
    forced commit pending? A blocked process's [(p, ⊥)] element is a
    no-op until someone commits to the spun-on register. *)
let blocked cfg (st : Config.pstate) =
  if cfg.Config.view_based then
    (not (Program.is_done st.Config.skipped))
    && view_choices cfg st = []
  else
    (* dispatch on the cached post-label program directly; the spin
       probes below read only the buffer and the last read, which labels
       don't touch *)
    match (st.Config.skipped : Program.t) with
    | Program.Spin (r, pred, _) -> (
        let v = visible_only cfg st r in
        (not (pred v)) && st.Config.lr_reg = r && st.Config.lr_value = v)
    | Program.Spinv (regs, prev, _, _) -> replays cfg st regs prev
    | Done _ | Ret _ | Read _ | Write _ | Fence _ | Cas _ | Swap _ | Faa _
    | Label _ -> false

let is_blocked cfg p = blocked cfg (Config.pstate cfg p)
