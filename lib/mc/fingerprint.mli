(** 126-bit state fingerprints (two 63-bit lanes), xor-composed from
    the {!Memsim.Statekey} component hashes so they can be updated
    incrementally from a step's dirty report. See the implementation
    header for the collision budget. *)

type t = { a : int; b : int }

(** Fingerprint of a configuration's state-key components. *)
val of_config : Memsim.Config.t -> t

(** [update fp ~before ~after d] is [of_config after] computed in O(1),
    given [fp = of_config before] and the dirty report [d] of the step
    from [before] to [after] (from [Exec.exec_elt_d], or a
    [flush_labels_d] pid folded one at a time). *)
val update :
  t -> before:Memsim.Config.t -> after:Memsim.Config.t -> Memsim.Exec.dirty -> t

(** [step fp cfg d] is [of_config (Config.apply cfg d)] computed in
    O(1) from [fp = of_config cfg] and the delta [d] (from
    [Exec.step]), without building the child configuration. *)
val step : t -> Memsim.Config.t -> Memsim.Config.delta -> t

(** Keyed xor-term over the per-process overtaken-flag bitsets
    ([Wbuf.overtaken_bits]) — the reorder-budget component that bounded
    engines {!mix} into their visited keys, since a budget is path
    state. Flag-free configurations yield the zero term, the identity
    under {!mix}. *)
val budget_term : Memsim.Config.t -> t

(** [budget_step t cfg d] is [budget_term (Config.apply cfg d)] from
    [t = budget_term cfg], in O(1): only the stepped process's token
    changes. *)
val budget_step : t -> Memsim.Config.t -> Memsim.Config.delta -> t

(** Xor the lanes of the second argument into the first (commutative,
    self-inverse). *)
val mix : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : t Fmt.t

(** Size of a fingerprint's binary record: 16 bytes, lane [a] then
    lane [b], each a little-endian 64-bit int — the layout of a
    checkpoint's [ck_keys]. *)
val bytes : int

(** [write buf off fp] stores [fp]'s record at [buf.[off]]. *)
val write : Bytes.t -> int -> t -> unit

(** [read buf off] is the fingerprint whose record is at [buf.[off]]. *)
val read : Bytes.t -> int -> t
