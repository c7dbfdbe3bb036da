(** Complexity counters.

    The paper counts two quantities per execution: fences β(E) and
    remote memory references ρ(E). Its remoteness definition combines
    the DSM and CC models — a step is an RMR only if it touches a
    non-local segment {e and} misses the process's cache — so a lower
    bound in the combined model holds in both. For the algorithm-side
    measurements we additionally report what each pure model would
    charge, which is how the classical Θ(n)/Θ(log n) figures for the
    Bakery and tournament locks are usually quoted. *)

type counters = {
  steps : int;  (** all observable steps (incl. commits) *)
  reads : int;
  reads_from_wbuf : int;  (** reads served by store forwarding *)
  writes : int;
  fences : int;
  commits : int;
  cas : int;
  rmw : int;  (** swap/faa steps (strong RMWs other than cas) *)
  returns : int;
  rmr : int;  (** combined DSM+CC remoteness — the paper's ρ *)
  rmr_dsm : int;  (** non-local-segment memory accesses *)
  rmr_cc : int;  (** cache misses, ignoring segments *)
}

let zero =
  {
    steps = 0;
    reads = 0;
    reads_from_wbuf = 0;
    writes = 0;
    fences = 0;
    commits = 0;
    cas = 0;
    rmw = 0;
    returns = 0;
    rmr = 0;
    rmr_dsm = 0;
    rmr_cc = 0;
  }

let add a b =
  {
    steps = a.steps + b.steps;
    reads = a.reads + b.reads;
    reads_from_wbuf = a.reads_from_wbuf + b.reads_from_wbuf;
    writes = a.writes + b.writes;
    fences = a.fences + b.fences;
    commits = a.commits + b.commits;
    cas = a.cas + b.cas;
    rmw = a.rmw + b.rmw;
    returns = a.returns + b.returns;
    rmr = a.rmr + b.rmr;
    rmr_dsm = a.rmr_dsm + b.rmr_dsm;
    rmr_cc = a.rmr_cc + b.rmr_cc;
  }

(** [sub a b] is the counter delta [a - b]; used to attribute costs to a
    program phase (e.g. one lock passage) by differencing snapshots. *)
let sub a b =
  {
    steps = a.steps - b.steps;
    reads = a.reads - b.reads;
    reads_from_wbuf = a.reads_from_wbuf - b.reads_from_wbuf;
    writes = a.writes - b.writes;
    fences = a.fences - b.fences;
    commits = a.commits - b.commits;
    cas = a.cas - b.cas;
    rmw = a.rmw - b.rmw;
    returns = a.returns - b.returns;
    rmr = a.rmr - b.rmr;
    rmr_dsm = a.rmr_dsm - b.rmr_dsm;
    rmr_cc = a.rmr_cc - b.rmr_cc;
  }

(* Every field, each under its own label, so debug dumps are
   trustworthy: the old printer omitted [returns] and [rmw] entirely
   and hid the pure-model RMR counts behind unlabeled parentheses. *)
let[@inline] b2i b = if b then 1 else 0

(** What one step costs: the single place the census and the RMR
    counts are charged. A cas or strong RMW also counts as a fence —
    it carries an implicit full barrier, and counting it keeps
    comparisons with read/write algorithms fair (the paper's remark
    that strong primitives "also incur significant overhead"). A
    store-forwarded read is fully local; a note costs nothing. One
    record build per step: this runs once per step of every new state. *)
let charge (s : Step.t) c =
  match s with
  | Step.Note _ -> c
  | Read { from_wbuf; loc; _ } ->
      {
        c with
        steps = c.steps + 1;
        reads = c.reads + 1;
        reads_from_wbuf = c.reads_from_wbuf + b2i from_wbuf;
        rmr = c.rmr + b2i (Step.is_rmr loc);
        rmr_dsm = c.rmr_dsm + b2i (not loc.Step.dsm_local);
        rmr_cc = c.rmr_cc + b2i (not loc.Step.cc_local);
      }
  | Write { loc; _ } ->
      {
        c with
        steps = c.steps + 1;
        writes = c.writes + 1;
        rmr = c.rmr + b2i (Step.is_rmr loc);
        rmr_dsm = c.rmr_dsm + b2i (not loc.Step.dsm_local);
        rmr_cc = c.rmr_cc + b2i (not loc.Step.cc_local);
      }
  | Commit { loc; _ } ->
      {
        c with
        steps = c.steps + 1;
        commits = c.commits + 1;
        rmr = c.rmr + b2i (Step.is_rmr loc);
        rmr_dsm = c.rmr_dsm + b2i (not loc.Step.dsm_local);
        rmr_cc = c.rmr_cc + b2i (not loc.Step.cc_local);
      }
  | Fence _ -> { c with steps = c.steps + 1; fences = c.fences + 1 }
  | Return _ -> { c with steps = c.steps + 1; returns = c.returns + 1 }
  | Cas { loc; _ } ->
      {
        c with
        steps = c.steps + 1;
        cas = c.cas + 1;
        fences = c.fences + 1;
        rmr = c.rmr + b2i (Step.is_rmr loc);
        rmr_dsm = c.rmr_dsm + b2i (not loc.Step.dsm_local);
        rmr_cc = c.rmr_cc + b2i (not loc.Step.cc_local);
      }
  | Rmw { loc; _ } ->
      {
        c with
        steps = c.steps + 1;
        rmw = c.rmw + 1;
        fences = c.fences + 1;
        rmr = c.rmr + b2i (Step.is_rmr loc);
        rmr_dsm = c.rmr_dsm + b2i (not loc.Step.dsm_local);
        rmr_cc = c.rmr_cc + b2i (not loc.Step.cc_local);
      }

let pp ppf c =
  Fmt.pf ppf
    "steps=%d reads=%d (wbuf %d) writes=%d fences=%d commits=%d cas=%d \
     rmw=%d returns=%d rmr=%d rmr_dsm=%d rmr_cc=%d"
    c.steps c.reads c.reads_from_wbuf c.writes c.fences c.commits c.cas c.rmw
    c.returns c.rmr c.rmr_dsm c.rmr_cc

type t = counters Pid.Map.t

let empty : t = Pid.Map.empty

let of_pid (t : t) p =
  match Pid.Map.find_opt p t with None -> zero | Some c -> c

let update (t : t) p f : t = Pid.Map.add p (f (of_pid t p)) t
let total (t : t) = Pid.Map.fold (fun _ c acc -> add acc c) t zero

(** Total fences — the paper's β(E). *)
let beta (t : t) = (total t).fences

(** Total combined RMRs — the paper's ρ(E). *)
let rho (t : t) = (total t).rmr
