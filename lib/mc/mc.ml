(** [Mc] — the model checker: one parallel, reduction-aware engine.

    Facade over the subsystem's pieces:

    - {!Fingerprint}: 126-bit incremental state fingerprints over the
      shared {!Memsim.Statekey} component stream;
    - {!Visited}: sharded concurrent visited set, hash compaction
      over flat open-addressing tables with a lock-free pre-check;
    - {!Deque}: Chase–Lev lock-free work-stealing deque;
    - {!Frontier}: per-worker deques + distributed termination;
    - {!Por}: independence relation and safe-step selection;
    - {!Replay}: deterministic counterexample replay;
    - {!Engine} (included here): [Mc.run] and friends, audited against
      the exact-key {!Memsim.Explore.reference}.

    Entry points:
    [Mc.run ~engine:(`Parallel jobs) ~por:true ...] ([`Parallel 1] is
    the default), [Mc.run_plain], [Mc.reachable_outcomes],
    [Mc.deepen]. *)

module Fingerprint = Fingerprint
module Visited = Visited
module Deque = Deque
module Frontier = Frontier
module Por = Por
module Replay = Replay

include Engine
