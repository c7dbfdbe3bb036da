(** Sharded concurrent visited set over state fingerprints: hash
    compaction — a power-of-two array of insert-only open-addressing
    tables holding only the two fingerprint lanes per entry, each
    table starting small and replaced by a larger one as it fills.
    Shard index and in-table slot are drawn from decorrelated
    fingerprint lanes, and a lock-free racy pre-check runs in front of
    every insert — sound by construction: slots are written once and
    tables are replaced, never resized in place (see the
    implementation header). One bit of each lane is a tag, so the set
    tells fingerprints apart on the remaining 124 bits. *)

type t

type stats = {
  shards : int;
  entries : int;
  max_occupancy : int;  (** most-loaded shard *)
  mean_occupancy : float;
  skew : float;  (** max / mean; 1.0 = perfectly even *)
  bytes : int;  (** live footprint of the shards' tables *)
}

(** [create ?shards ()] — [shards] must be a power of two (default
    128). Each shard starts with a 16-slot table and grows by doubling
    at a load of 3/4. *)
val create : ?shards:int -> unit -> t

(** Test-and-insert; [true] iff the fingerprint was new and this call
    won it. *)
val add : t -> Fingerprint.t -> bool

val mem : t -> Fingerprint.t -> bool

(** Iterate every stored fingerprint (shard locks taken in turn; exact
    only when no domain is inserting) — for audits of the whole set.
    The lanes come back with their tag bit set; {!add} maps them to
    the same entry. *)
val iter : t -> (Fingerprint.t -> unit) -> unit

(** Total entries (exact only when no domain is inserting). *)
val size : t -> int

(** Lock-free approximate entry count (racy but valid reads of each
    shard's count) — for live progress gauges. *)
val approx_size : t -> int

(** Racy counterpart of {!stats}: never takes a shard lock, so a
    sampler polling it cannot stall a worker. *)
val approx_stats : t -> stats

(** Per-shard occupancy spread and table footprint (exact only when
    quiesced). *)
val stats : t -> stats
