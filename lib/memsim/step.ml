(** Observable execution steps.

    An execution is a sequence of steps (Section 2): read, write, fence,
    return steps taken by processes, plus commit steps in which the
    system moves a buffered write to shared memory. Each step records
    enough to re-derive complexity measures and to drive the Section 5
    encoder (which needs to know, e.g., which reads were served from
    shared memory and which commits were overwritten before being read). *)

type locality = {
  dsm_local : bool;  (** register lies in the acting process's segment *)
  cc_local : bool;  (** served by the acting process's cache *)
}

(** Combined-model locality: remote only if remote in both senses. *)
let is_rmr l = (not l.dsm_local) && not l.cc_local

(* The four locality values, shared: localities decorate every read,
   commit and RMW step, so hot paths fetch a preallocated record
   instead of allocating one per step. *)
let loc_ll = { dsm_local = true; cc_local = true }
let loc_lr = { dsm_local = true; cc_local = false }
let loc_rl = { dsm_local = false; cc_local = true }
let loc_rr = { dsm_local = false; cc_local = false }

(** The interned locality record for a (dsm, cc) pair. *)
let[@inline] locality ~dsm_local ~cc_local =
  if dsm_local then if cc_local then loc_ll else loc_lr
  else if cc_local then loc_rl
  else loc_rr

(** Fully local: never an RMR in any model. *)
let local = loc_ll

type t =
  | Read of { p : Pid.t; reg : Reg.t; value : int; from_wbuf : bool; loc : locality }
  | Write of { p : Pid.t; reg : Reg.t; value : int; loc : locality }
      (** [loc]: the locality the write itself is charged — a commit's
          under RA/SRA, where the write lands in the log at once; fully
          local ({!local}) for a buffered or SC write, whose cost is
          its commit step's *)
  | Fence of { p : Pid.t }
  | Commit of { p : Pid.t; reg : Reg.t; value : int; loc : locality }
  | Cas of {
      p : Pid.t;
      reg : Reg.t;
      expect : int;
      update : int;
      read : int;  (** the value found in memory *)
      success : bool;
      loc : locality;
    }
  | Rmw of {
      p : Pid.t;
      reg : Reg.t;
      op : [ `Swap | `Faa ];
      arg : int;
      read : int;  (** the previous value, returned to the program *)
      wrote : int;
      loc : locality;
    }  (** fetch-and-store / fetch-and-add *)
  | Return of { p : Pid.t; value : int }
  | Note of { p : Pid.t; text : string }
      (** label annotation; not a step of the paper's model, carries no
          cost, never occupies a schedule slot *)

let pid = function
  | Read { p; _ } | Write { p; _ } | Fence { p; _ } | Commit { p; _ }
  | Cas { p; _ } | Rmw { p; _ } | Return { p; _ } | Note { p; _ } ->
      p

(** Is this one of the paper's model steps (i.e. not an annotation)? *)
let is_model_step = function Note _ -> false | _ -> true

let pp ppf = function
  | Read { p; reg; value; from_wbuf; loc } ->
      Fmt.pf ppf "p%a: read  %a -> %d%s%s" Pid.pp p Reg.pp reg value
        (if from_wbuf then " (wbuf)" else "")
        (if is_rmr loc then " [RMR]" else "")
  | Write { p; reg; value; _ } -> Fmt.pf ppf "p%a: write %a := %d" Pid.pp p Reg.pp reg value
  | Fence { p } -> Fmt.pf ppf "p%a: fence" Pid.pp p
  | Commit { p; reg; value; loc } ->
      Fmt.pf ppf "p%a: commit %a := %d%s" Pid.pp p Reg.pp reg value
        (if is_rmr loc then " [RMR]" else "")
  | Cas { p; reg; expect; update; read; success; loc } ->
      Fmt.pf ppf "p%a: cas %a (%d->%d) read %d %s%s" Pid.pp p Reg.pp reg expect
        update read
        (if success then "ok" else "fail")
        (if is_rmr loc then " [RMR]" else "")
  | Rmw { p; reg; op; arg; read; wrote; loc } ->
      Fmt.pf ppf "p%a: %s %a %d: %d -> %d%s" Pid.pp p
        (match op with `Swap -> "swap" | `Faa -> "faa")
        Reg.pp reg arg read wrote
        (if is_rmr loc then " [RMR]" else "")
  | Return { p; value } -> Fmt.pf ppf "p%a: return %d" Pid.pp p value
  | Note { p; text } -> Fmt.pf ppf "p%a: # %s" Pid.pp p text
