(** Per-location timestamped modification logs — the storage substrate
    of the release/acquire (RA/SRA) backend. See the implementation
    header and DESIGN.md §6f for the semantics.

    Log position is the timestamp: position 0 is the root message (the
    layout initial value, id 0), appends take the location's maximal
    timestamp (the only writes SRA admits), and RA insertions shift
    later messages up. Message ids are store-global and creation-
    ordered; ordering queries must go through positions. *)

type msg = {
  mid : int;  (** unique id; 0 = the per-location root *)
  value : int;
  base : View.t;  (** acquired by any read of this message *)
  rmw : bool;
      (** attached to its predecessor (the message the RMW read): no
          later write may be inserted directly below it *)
}

type t

(** Fresh store: each location's log holds just its root message, the
    SC-fence view is empty. *)
val make : layout:Layout.t -> t

val nmsgs : t -> Reg.t -> int
val msg_at : t -> Reg.t -> int -> msg

(** Newest message of a location (the log maximum). *)
val max_msg : t -> Reg.t -> msg

(** Position of a message id in a location's log. Raises
    [Invalid_argument] if no such message. *)
val pos_of_mid : t -> Reg.t -> int -> int

(** Position a view holds for a location — the lower bound on readable
    positions. *)
val view_pos : t -> Reg.t -> View.t -> int

(** Pointwise-newest join, resolved through log positions. *)
val join : t -> View.t -> View.t -> View.t

(** Is the first view pointwise no newer than the second? *)
val view_leq : t -> View.t -> View.t -> bool

(** The global SC-fence view. *)
val sc : t -> View.t

val with_sc : t -> View.t -> t

(** [insert t r ~at ~value ~base] adds a fresh message at position
    [at] ∈ [1 .. nmsgs] of [r]'s log ([at = nmsgs] appends) and
    returns it with the updated store. The caller enforces the model
    discipline (RA: [at > view_pos]; SRA: [at = nmsgs]); inserting
    directly below an RMW-attached message raises [Invalid_argument]
    (RMW atomicity). [rmw] marks the new message itself as attached. *)
val insert :
  ?rmw:bool -> t -> Reg.t -> at:int -> value:int -> base:View.t -> msg * t

(** Semantic equality (logs and SC view). *)
val equal : t -> t -> bool

(** Incrementally maintained xor-composed Zobrist lanes over messages,
    log-adjacency edges and the SC view; [lanes_scratch] recomputes
    them from scratch (the incrementality reference). *)
val lanes : t -> int * int

(** The two lanes one at a time, tuple-free for the hot key path. *)
val lane_a : t -> int

val lane_b : t -> int

val lanes_scratch : t -> int * int

(** Feed the exact store components as a flat integer stream (for
    {!Statekey.to_string}). *)
val iter_key : t -> (int -> unit) -> unit

val pp : t Fmt.t
