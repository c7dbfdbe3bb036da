(** Compact incremental state fingerprints.

    The parallel checker deduplicates states on a 126-bit fingerprint
    (two independent 63-bit lanes) of the {!Memsim.Statekey}
    components. Since the hot-path overhaul the fingerprint is a
    {e xor-composition} of independently hashed components — the
    committed memory's Zobrist lanes plus one keyed term per process,
    derived from the lanes cached in its [pstate] — rather than a
    sequential fold of the whole component stream. Xor is commutative
    and cancellable, so {!update} can replace just the terms a step
    dirtied (as reported by [Exec.exec_elt_d]) in O(1), instead of
    re-walking every process on every expansion.

    Trade-off: fingerprint equality is not key equality. Storing only
    fingerprints makes the visited set small and cheap to shard, at the
    cost of a collision probability. With two independently seeded and
    independently mixed 63-bit lanes, a collision needs both lanes to
    agree. The visited set spends one bit of each lane on a tag, so it
    compares 124 bits; for [k] distinct states the birthday bound gives
    roughly [k^2 / 2^125] — about [2e-26] at a million states, far below
    the chance of a cosmic-ray bit flip. A collision could only cause a
    state to be wrongly treated as visited, i.e. under-exploration,
    never a false violation. DESIGN.md discusses the soundness budget;
    xor-composition spends a little more of it (a multiset of component
    hashes rather than a sequence), which the keyed per-process terms
    compensate: each process's lanes are re-keyed by its pid, so equal
    local states of different processes contribute distinct terms. *)

module Keyhash = Memsim.Keyhash
module Config = Memsim.Config

type t = { a : int; b : int }

(* One keyed term per process: its cached local-state lanes re-mixed
   with its pid, so the xor-multiset keeps track of which process owns
   which local state. *)
let[@inline] proc_term_a p (st : Config.pstate) =
  Keyhash.token_a Keyhash.seed_a p st.Config.lka

let[@inline] proc_term_b p (st : Config.pstate) =
  Keyhash.token_b Keyhash.seed_b p st.Config.lkb

let of_config cfg =
  let ma, mb = Memsim.Statekey.mem_lanes cfg in
  let a = ref ma and b = ref mb in
  Array.iteri
    (fun p st ->
      a := !a lxor proc_term_a p st;
      b := !b lxor proc_term_b p st)
    cfg.Config.procs;
  { a = !a; b = !b }

(** [update fp ~before ~after d]: the fingerprint of [after], given
    that [fp = of_config before] and that stepping [before] to [after]
    dirtied exactly the components in [d]. O(1): xors out the stale
    terms and xors in the fresh ones. *)
let update fp ~before ~after (d : Memsim.Exec.dirty) =
  match d.Memsim.Exec.proc with
  | None -> fp
  | Some p ->
      let a = fp.a lxor proc_term_a p (Config.pstate before p)
              lxor proc_term_a p (Config.pstate after p)
      and b = fp.b lxor proc_term_b p (Config.pstate before p)
              lxor proc_term_b p (Config.pstate after p)
      in
      if not d.Memsim.Exec.mem then { a; b }
      else
        let ba, bb = Memsim.Statekey.mem_lanes before
        and aa, ab = Memsim.Statekey.mem_lanes after in
        { a = a lxor ba lxor aa; b = b lxor bb lxor ab }

(* Reorder-budget component for bounded visited keys: one Zobrist
   token per process with a nonzero overtaken-flag bitset, keyed by
   pid. Flag-free configurations yield the zero term, and xor with
   zero is the identity — so states carrying no reorderings keep
   their plain fingerprints even under a bound, and unbounded runs
   never compute this at all. *)
let budget_term cfg =
  let a = ref 0 and b = ref 0 in
  Array.iteri
    (fun p (st : Config.pstate) ->
      let bits = Memsim.Wbuf.overtaken_bits st.Config.wb in
      if bits <> 0 then begin
        a := !a lxor Keyhash.token_a Keyhash.seed_a p bits;
        b := !b lxor Keyhash.token_b Keyhash.seed_b p bits
      end)
    cfg.Config.procs;
  { a = !a; b = !b }

let mix fp t = { a = fp.a lxor t.a; b = fp.b lxor t.b }
let equal x y = x.a = y.a && x.b = y.b
let compare x y = if x.a <> y.a then Int.compare x.a y.a else Int.compare x.b y.b

let pp ppf x = Fmt.pf ppf "%016x:%016x" x.a x.b
