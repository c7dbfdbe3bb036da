(** Program compilation: continuation sharing.

    {!program} rewrites a {!Program.t} so every continuation is
    memoized on its argument: the first force of [k v] builds (and
    recursively shares) the successor node, every later force returns
    the same node — exploration stops paying the CPS rebuild tax at
    positions it has already visited. Each memo table is bounded by
    [fanout] distinct arguments; beyond the bound the raw closure is
    called instead (the tree [Config.make ~compile:false] runs —
    bit-for-bit the same program, just unshared), which is the
    fallback contract for fragments data-dependent beyond the memo
    bound.

    Contract: continuations must be pure up to observation (forcing
    [k v] twice yields equivalent subtrees) — true of every tree the
    [Program] combinators build. Sharing is domain-safe (atomic
    publication; a lost race returns the winner's node). *)

val default_fanout : int

val program : ?fanout:int -> Program.t -> Program.t
