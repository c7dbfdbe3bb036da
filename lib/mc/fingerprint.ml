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
module Statekey = Memsim.Statekey

type t = { a : int; b : int }

(* One keyed term per process: its cached local-state lanes re-mixed
   with its pid, so the xor-multiset keeps track of which process owns
   which local state. *)
let[@inline] proc_term_a p (st : Config.pstate) =
  Keyhash.token_a Keyhash.seed_a p st.Config.lka

let[@inline] proc_term_b p (st : Config.pstate) =
  Keyhash.token_b Keyhash.seed_b p st.Config.lkb

let of_config cfg =
  let a = ref (Statekey.mem_lane_a cfg) and b = ref (Statekey.mem_lane_b cfg) in
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
        {
          a = a lxor Statekey.mem_lane_a before lxor Statekey.mem_lane_a after;
          b = b lxor Statekey.mem_lane_b before lxor Statekey.mem_lane_b after;
        }

(** [step fp cfg d]: the fingerprint of [Config.apply cfg d], given
    [fp = of_config cfg], without building that configuration — the
    probe key of an uninstalled child. [d]'s process term is replaced
    (the delta carries the stepped process's refreshed lanes);
    a commit swaps one memory token ([r]'s old one out, when [r] was
    bound); a new store swaps the store lanes. *)
let step fp (cfg : Config.t) (d : Config.delta) =
  if not (Config.changes cfg d) then fp
  else
    let p = d.Config.pid in
    let old = Config.pstate cfg p in
    let a =
      fp.a lxor proc_term_a p old
      lxor Keyhash.token_a Keyhash.seed_a p d.Config.lka
    and b =
      fp.b lxor proc_term_b p old
      lxor Keyhash.token_b Keyhash.seed_b p d.Config.lkb
    in
    let r = d.Config.commit_reg and v = d.Config.commit_value in
    let a, b =
      if r = Config.no_reg then (a, b)
      else
        ( a lxor Config.Mem.commit_xor_a cfg.Config.mem r v,
          b lxor Config.Mem.commit_xor_b cfg.Config.mem r v )
    in
    match (cfg.Config.store, Config.next_store d) with
    | Some s, Some s' ->
        {
          a = a lxor Memsim.Modlog.lane_a s lxor Memsim.Modlog.lane_a s';
          b = b lxor Memsim.Modlog.lane_b s lxor Memsim.Modlog.lane_b s';
        }
    | _ -> { a; b }

(* One process's reorder-budget token: zero for a flag-free buffer. *)
let budget_a p wb =
  let bits = Memsim.Wbuf.overtaken_bits wb in
  if bits = 0 then 0 else Keyhash.token_a Keyhash.seed_a p bits

let budget_b p wb =
  let bits = Memsim.Wbuf.overtaken_bits wb in
  if bits = 0 then 0 else Keyhash.token_b Keyhash.seed_b p bits

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
      a := !a lxor budget_a p st.Config.wb;
      b := !b lxor budget_b p st.Config.wb)
    cfg.Config.procs;
  { a = !a; b = !b }

(** [budget_step t cfg d]: [budget_term (Config.apply cfg d)] from
    [t = budget_term cfg] — only the stepped process's token changes. *)
let budget_step t (cfg : Config.t) (d : Config.delta) =
  let p = d.Config.pid in
  let wb = (Config.pstate cfg p).Config.wb and wb' = Config.next_wb cfg d in
  if wb == wb' then t
  else
    {
      a = t.a lxor budget_a p wb lxor budget_a p wb';
      b = t.b lxor budget_b p wb lxor budget_b p wb';
    }

let mix fp t = { a = fp.a lxor t.a; b = fp.b lxor t.b }
let equal x y = x.a = y.a && x.b = y.b
let compare x y = if x.a <> y.a then Int.compare x.a y.a else Int.compare x.b y.b

let pp ppf x = Fmt.pf ppf "%016x:%016x" x.a x.b

(* The 16-byte record: lane [a], then lane [b], each a little-endian
   64-bit int. A lane is an OCaml int, so it round-trips through the
   sign extension of [Int64.to_int]. *)
let bytes = 16

let write buf off x =
  Bytes.set_int64_le buf off (Int64.of_int x.a);
  Bytes.set_int64_le buf (off + 8) (Int64.of_int x.b)

let read buf off =
  {
    a = Int64.to_int (Bytes.get_int64_le buf off);
    b = Int64.to_int (Bytes.get_int64_le buf (off + 8));
  }
