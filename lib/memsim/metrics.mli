(** Complexity counters: the paper's β (fences) and ρ (RMRs in the
    combined DSM+CC model), plus pure-DSM and pure-CC counts and step
    census, per process and in aggregate. *)

type counters = {
  steps : int;  (** all model steps, commits included *)
  reads : int;
  reads_from_wbuf : int;
  writes : int;
  fences : int;
  commits : int;
  cas : int;
  rmw : int;  (** swap/faa steps (strong RMWs other than cas) *)
  returns : int;
  rmr : int;  (** combined DSM+CC remoteness — the paper's ρ *)
  rmr_dsm : int;  (** non-local-segment memory accesses *)
  rmr_cc : int;  (** cache misses, segments ignored *)
}

val zero : counters
val add : counters -> counters -> counters

(** [sub a b] is the delta [a - b], for attributing costs to a phase by
    differencing snapshots. *)
val sub : counters -> counters -> counters

(** [charge s c]: the counters after step [s] — one step (commits
    included), its kind's count, and the RMRs its locality calls for; a
    cas or strong RMW also counts as a fence; a note costs nothing. *)
val charge : Step.t -> counters -> counters

val pp : counters Fmt.t

type t = counters Pid.Map.t

val empty : t
val of_pid : t -> Pid.t -> counters
val update : t -> Pid.t -> (counters -> counters) -> t
val total : t -> counters

(** Total fences — β(E). *)
val beta : t -> int

(** Total combined-model RMRs — ρ(E). *)
val rho : t -> int
