(** Seeded generation of small concurrent programs over the full
    [Program.t] grammar (reads, writes, fences, cas/swap/faa, spins,
    labels), kept as first-class instruction lists so the shrinker can
    edit them. Generated spins are always satisfiable, so every
    generated program terminates under every scheduler — see the
    implementation header. *)

type instr =
  | Read of int  (** load a shared register (by index) *)
  | Write of int * int  (** store a constant *)
  | Fence
  | Cas of int * int * int  (** [Cas (r, expect, update)] *)
  | Swap of int * int
  | Faa of int * int
  | Spin of int  (** always-satisfiable busy-wait: observes the value *)
  | Label  (** zero-cost annotation, exercises label flushing *)

type params = {
  procs : int;  (** process count *)
  len : int;  (** maximum instructions per process *)
  nregs : int;  (** shared registers *)
  values : int;  (** write values drawn from [1..values] *)
}

val default_params : params

type t = {
  seed : int;
  params : params;  (** generation parameters, for seed replay *)
  nregs : int;
  procs : instr list array;
}

(** Total instruction count across processes — the shrinker's primary
    size metric. *)
val size : t -> int

val nprocs : t -> int

(** Structural equality of the program text (seed/params ignored). *)
val equal : t -> t -> bool

(** Deterministic: same seed and params, same program. *)
val generate : seed:int -> params -> t

val name : t -> string

(** Close the program into a litmus test whose outcomes are the packed
    per-process observation logs plus every register's final value.
    Each process is a {!Memsim.Program.t} closure tree, one node per
    instruction; whether its continuations are shared is the runner's
    [?compile] choice, as for every other test. *)
val compile : t -> Litmus.Test.t

(** Insert a fence after every plain write (oracle 3's transform). *)
val saturate : t -> t

(** Insert a fence before every instruction and a trailing one — the
    stronger transform that also collapses the view-based models onto
    SC (fenced reads, not just fenced writes). *)
val saturate_full : t -> t

(** Per-process counts of literal [Fence] instructions — the program's
    fence sites, numbered globally by prefix-sum offsets exactly as
    [Litmus.Test.with_fence_mask] numbers the compiled test. *)
val fence_sites : t -> int array

(** Keep only the fence sites selected by [keep] (global numbering as
    in {!fence_sites}); a literal AST edit, so the full mask
    round-trips to a structurally equal program. *)
val with_fence_mask : keep:(int -> bool) -> t -> t

(** Drop every fence — [with_fence_mask ~keep:(fun _ -> false)]. *)
val strip_fences : t -> t
