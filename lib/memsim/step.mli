(** Observable execution steps (Section 2): read, write, fence, return
    steps by processes plus system commit steps, annotated with the
    locality information the complexity measures need. *)

type locality = {
  dsm_local : bool;  (** register lies in the acting process's segment *)
  cc_local : bool;  (** served by the acting process's cache *)
}

(** Combined-model remoteness: remote in both senses (the paper's
    RMR). *)
val is_rmr : locality -> bool

(** The interned (preallocated) locality record for a (dsm, cc) pair —
    hot paths should prefer this over a record literal. *)
val locality : dsm_local:bool -> cc_local:bool -> locality

(** Fully local (both senses): never an RMR. *)
val local : locality

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
      read : int;
      success : bool;
      loc : locality;
    }
  | Rmw of {
      p : Pid.t;
      reg : Reg.t;
      op : [ `Swap | `Faa ];
      arg : int;
      read : int;
      wrote : int;
      loc : locality;
    }  (** fetch-and-store / fetch-and-add *)
  | Return of { p : Pid.t; value : int }
  | Note of { p : Pid.t; text : string }
      (** label annotation; not a model step, carries no cost *)

val pid : t -> Pid.t

(** Is this one of the paper's model steps (i.e. not a [Note])? *)
val is_model_step : t -> bool

val pp : t Fmt.t
