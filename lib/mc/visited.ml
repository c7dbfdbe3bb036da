(** Sharded concurrent visited set over state fingerprints: hash
    compaction (Stern & Dill 1995) — only the fingerprints are stored,
    two unboxed int lanes per entry, in flat open-addressing tables.

    A fixed power-of-two array of shards, each an {e insert-only} hash
    set. The shard index comes from fingerprint lane [b] and the
    in-shard slot index from lane [a], so the two are decorrelated.

    {b Layout.} A shard's table is one [int array] of [2 * cap] ints,
    [cap] a power of two: slot [i] is the lane pair at [2i] (lane a)
    and [2i + 1] (lane b), probed linearly from the slot lane a names.
    Each stored lane carries a {e tag bit} (bit 0 set), so no stored
    lane is ever [0] and [0] means "not written". The table starts
    small ({!initial_slots}) and is replaced by one of twice the
    capacity once more than 3/4 of its slots are taken, so there is
    always an empty slot and every probe terminates. An entry costs
    16 bytes at full load, an insert allocates nothing, and a probe
    usually reads one cache line.

    {b The price.} Bit 0 of each lane is the tag, so the set's notion
    of identity is the other 124 bits: fingerprints that differ only
    in bit 0 of a lane are one entry. The shard index is taken from
    the bits above the tag for the same reason. DESIGN.md §6a states
    the resulting collision bound.

    {b Racy reads.} Inserts run under the shard lock (OCaml 5.1 has no
    CAS on array elements), but every insert is preceded by a {e
    lock-free racy} probe that filters the duplicate majority (~60% on
    bakery) without touching the lock. The probe can never claim a
    fingerprint that was not inserted, because:

    - {e slots are write-once}: an insert writes a slot's two lanes
      exactly once, from [0] to the tagged lanes of one fingerprint,
      and never again; a table is written only while it is the shard's
      current one;
    - {e tables are replaced, not resized}: growth (under the lock)
      fills a completely new array and publishes it with one
      [Atomic.set]; the [Atomic.get] that fetches a table synchronizes
      with that publication, so everything copied into it is visible;
    - a plain racy read of an [int] slot returns [0] or a value that
      was actually written there (the OCaml 5 memory model has no
      out-of-thin-air values).

    So a racy reader sees each lane of a slot as either [0] or the one
    tagged lane ever stored there. A match needs {e both} lanes to
    equal the tagged probe lanes, which are non-zero, so neither an
    empty slot nor a half-written one (lane a visible, lane b not yet,
    or the reverse) can match: at worst the reader misses a concurrent
    insert — a false negative, which the locked re-check catches. And
    as at most [cap - 1] slots are ever written in a table, the reader
    always reaches a slot it reads as empty.

    Shard records are deliberately {e padded apart} at allocation
    time: the records (and their initial tables, allocated in the same
    breath) would otherwise sit contiguously in the heap, and two
    domains inserting into neighbouring shards would false-share cache
    lines through the shards' mutable count fields. OCaml offers no
    layout control, so the constructor interleaves a cache-line-sized
    dummy array with each shard and keeps it live in the record — the
    GC preserves allocation order when promoting, so the spacing
    survives. *)

type shard = {
  lock : Mutex.t;
  slots : int array Atomic.t;
      (** [2 * cap] ints; slots write-once, array replaced wholesale on
          growth *)
  mutable count : int;  (** entries; written under [lock] *)
  _pad : int array;  (** keeps the inter-shard spacing live; see above *)
}

type t = { shards : shard array; mask : int }

type stats = {
  shards : int;
  entries : int;
  max_occupancy : int;
  mean_occupancy : float;
  skew : float;  (** max / mean; 1.0 = perfectly even *)
  bytes : int;  (** live slot arrays, headers included *)
}

(** Slots in a fresh shard's table (a power of two). *)
let initial_slots = 16

let create ?(shards = 128) () =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    Fmt.invalid_arg "Visited.create: %d shards (need a power of two)" shards;
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            slots = Atomic.make (Array.make (2 * initial_slots) 0);
            count = 0;
            _pad = Array.make 15 0 (* one cache line of spacing *);
          });
    mask = shards - 1;
  }

let[@inline] tag lane = lane lor 1

(* the shard index skips the tag bit, so the set's identity is exactly
   the two tagged lanes *)
let[@inline] shard_of (t : t) (fp : Fingerprint.t) =
  Array.unsafe_get t.shards ((fp.b lsr 1) land t.mask)

(* Home slot (an even index) of tagged lane [ta] in a table of
   [Array.length arr] ints: bits 1.. of lane a. *)
let[@inline] home arr ta = ta land (Array.length arr - 2)

(* Linear probe from [i] for the tagged pair [(ta, tb)]: the empty
   slot where it goes, or [-1] if some slot holds it. A top-level
   function with explicit arguments, so a probe allocates nothing. *)
let rec slot_for (arr : int array) last ta tb i =
  let sa = Array.unsafe_get arr i in
  if sa = 0 then i
  else if sa = ta && Array.unsafe_get arr (i + 1) = tb then -1
  else slot_for arr last ta tb ((i + 2) land last)

(** Lock-free membership probe; false negatives possible under
    concurrent inserts, false positives impossible (header argument). *)
let[@inline] mem_racy s ta tb =
  let arr = Atomic.get s.slots in
  slot_for arr (Array.length arr - 1) ta tb (home arr ta) < 0

(* Shard lock held: copy every entry into a table of twice the
   capacity and publish it. Readers still holding the old table see a
   valid (possibly stale) set; it is never written again. *)
let grow s =
  let old = Atomic.get s.slots in
  let arr = Array.make (2 * Array.length old) 0 in
  let last = Array.length arr - 1 in
  for j = 0 to (Array.length old / 2) - 1 do
    let ta = old.(2 * j) and tb = old.((2 * j) + 1) in
    if ta <> 0 then begin
      (* the old entries are distinct, so [i] is an empty slot *)
      let i = slot_for arr last ta tb (home arr ta) in
      arr.(i) <- ta;
      arr.(i + 1) <- tb
    end
  done;
  Atomic.set s.slots arr

(* Shard lock held: authoritative re-check and insert; grow past a
   load of 3/4. *)
let locked_add s ta tb =
  let arr = Atomic.get s.slots in
  let i = slot_for arr (Array.length arr - 1) ta tb (home arr ta) in
  if i < 0 then false
  else begin
    Array.unsafe_set arr i ta;
    Array.unsafe_set arr (i + 1) tb;
    s.count <- s.count + 1;
    (* [Array.length arr] is twice the capacity *)
    if 8 * s.count > 3 * Array.length arr then grow s;
    true
  end

(** [add t fp] inserts [fp]; [true] iff it was not already present.
    The test-and-insert is atomic per shard, so exactly one domain wins
    each state — the winner expands it and fires the per-state hooks.
    The unlocked pre-check peels off the duplicate majority (sound per
    the header argument). *)
let add t (fp : Fingerprint.t) =
  let s = shard_of t fp in
  let ta = tag fp.a and tb = tag fp.b in
  if mem_racy s ta tb then false
  else begin
    Mutex.lock s.lock;
    let fresh = locked_add s ta tb in
    Mutex.unlock s.lock;
    fresh
  end

let mem t (fp : Fingerprint.t) =
  let s = shard_of t fp in
  let ta = tag fp.a and tb = tag fp.b in
  mem_racy s ta tb
  ||
  (Mutex.lock s.lock;
   let r = mem_racy s ta tb in
   Mutex.unlock s.lock;
   r)

(** Iterate over every stored fingerprint, shard by shard under each
    shard's lock. Yields the stored (tagged) lanes, which {!add} maps
    to the same entry. Exact (and stable across calls) only when no
    domain is inserting — the j=1 checkpoint serialization path. Order
    is the internal shard/slot order: deterministic for a given
    insertion history, not sorted. *)
let iter (t : t) f =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      let arr = Atomic.get s.slots in
      for j = 0 to (Array.length arr / 2) - 1 do
        let a = arr.(2 * j) in
        if a <> 0 then f { Fingerprint.a; b = arr.((2 * j) + 1) }
      done;
      Mutex.unlock s.lock)
    t.shards

(** Total entries; takes each shard lock in turn, so only exact when
    quiesced. *)
let size (t : t) =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = s.count in
      Mutex.unlock s.lock;
      acc + n)
    0 t.shards

(** Lock-free approximate entry count for live progress gauges: plain
    racy reads of each shard's [count] field. A racy read of a mutable
    [int] returns some previously written value (never garbage), so
    the sum is a momentarily stale but valid undercount — exactly what
    a sampler wants, at zero cost to the inserting domains. *)
let approx_size (t : t) =
  Array.fold_left (fun acc s -> acc + s.count) 0 t.shards

(* [read s] is a shard's [(count, table length)]. *)
let stats_with read (t : t) =
  let nshards = Array.length t.shards in
  let entries = ref 0 and maxo = ref 0 and words = ref 0 in
  Array.iter
    (fun s ->
      let n, len = read s in
      entries := !entries + n;
      if n > !maxo then maxo := n;
      words := !words + len + 1)
    t.shards;
  let mean = float_of_int !entries /. float_of_int nshards in
  {
    shards = nshards;
    entries = !entries;
    max_occupancy = !maxo;
    mean_occupancy = mean;
    skew = (if !entries = 0 then 1.0 else float_of_int !maxo /. mean);
    bytes = !words * (Sys.word_size / 8);
  }

(** Racy counterpart of {!stats}, same caveat as {!approx_size} — for
    samplers that must never stall a worker on a shard lock. *)
let approx_stats =
  stats_with (fun s -> (s.count, Array.length (Atomic.get s.slots)))

(** Occupancy spread across shards — how well the lane-[b] shard index
    balances the population — and the tables' footprint (exact only
    when quiesced). *)
let stats =
  stats_with (fun s ->
      Mutex.lock s.lock;
      let r = (s.count, Array.length (Atomic.get s.slots)) in
      Mutex.unlock s.lock;
      r)
