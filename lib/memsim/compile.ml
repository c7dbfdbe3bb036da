(** Program compilation: continuation sharing.

    Every program source — lock algorithms, litmus threads, generated
    fuzz programs, masked trees — is a {!Program.t} closure tree whose
    continuations {e rebuild} their subtree on every call: stepping a
    process re-runs the CPS pipeline from the current position to the
    next node, allocating the whole chain again, and dispatch-side
    queries ([next_kind], POR footprints)
    multiply that cost. Exploration revisits the same program
    positions millions of times, so the fix is sharing, not staging:
    {!share} rewrites the tree so every continuation is memoized on
    its argument — the first force builds (and recursively shares) the
    successor node, every later force returns it. The reachable
    positions of a terminating program form a finite graph, so the
    memo tables are bounded by program size × observed-value fanout.

    Bounded unrolling, with fallback: each memo table holds at most
    [fanout] distinct arguments. A continuation forced on more values
    than that is data-dependent beyond what's worth caching — beyond
    the bound it falls back to the raw closure (the tree
    [Config.make ~compile:false] runs), bit-for-bit the same program,
    just unshared.

    Contract (semantics-invisibility): continuations must be pure up
    to observation — forcing [k v] twice yields equivalent subtrees.
    Every program in this repository satisfies this (trees built by
    the [Program] combinators from pure OCaml functions). Programs
    whose continuations count their own forcings (the label-forcing
    regression test does, deliberately) observe fewer forcings once
    shared; that is the point, and exactly what the test pins.

    Sharing is domain-safe: memo cells are {!Atomic}s, publication is
    by CAS, and a lost race simply returns the winner's (equivalent)
    node, so the parallel checker's workers can force the same shared
    program concurrently. *)

let default_fanout = 64

(* Memo-table lookups: top-level and raising on a miss, so a hit — the
   per-step case — allocates neither a closure over the key nor an
   option. *)
let rec assoc_int v = function
  | [] -> raise Not_found
  | (v', t) :: tl -> if Int.equal v v' then t else assoc_int v tl

let rec assoc_list vs = function
  | [] -> raise Not_found
  | (vs', t) :: tl -> if List.equal Int.equal vs vs' then t else assoc_list vs tl

(* Memo a [unit -> t] continuation: one cell. *)
let rec memo_unit ~fanout (k : unit -> Program.t) : unit -> Program.t =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some t -> t
    | None -> (
        let t = share ~fanout (k ()) in
        if Atomic.compare_and_set cell None (Some t) then t
        else match Atomic.get cell with Some t -> t | None -> t)

(* Memo an [int -> t] continuation: a bounded assoc list. Beyond
   [fanout] distinct arguments, fall back to the raw closure. A lost
   CAS race drops our entry (the next miss re-shares); a concurrent
   winner's entry is preferred so all domains converge on one node. *)
and memo_int ~fanout (k : int -> Program.t) : int -> Program.t =
  let cell = Atomic.make [] in
  fun v ->
    let l = Atomic.get cell in
    match assoc_int v l with
    | t -> t
    | exception Not_found -> (
        if List.length l >= fanout then k v
        else
          let t = share ~fanout (k v) in
          let l' = Atomic.get cell in
          match assoc_int v l' with
          | t' -> t'
          | exception Not_found ->
              ignore (Atomic.compare_and_set cell l' ((v, t) :: l'));
              t)

and memo_bool ~fanout (k : bool -> Program.t) : bool -> Program.t =
  let kf = memo_unit ~fanout (fun () -> k false) in
  let kt = memo_unit ~fanout (fun () -> k true) in
  fun b -> if b then kt () else kf ()

(* Spinv continuations are keyed on the observed round. *)
and memo_list ~fanout (k : int list -> Program.t) : int list -> Program.t =
  let cell = Atomic.make [] in
  fun vs ->
    let l = Atomic.get cell in
    match assoc_list vs l with
    | t -> t
    | exception Not_found -> (
        if List.length l >= fanout then k vs
        else
          let t = share ~fanout (k vs) in
          let l' = Atomic.get cell in
          match assoc_list vs l' with
          | t' -> t'
          | exception Not_found ->
              ignore (Atomic.compare_and_set cell l' ((vs, t) :: l'));
              t)

(** Rewrite a program so every continuation is memoized (see the
    module header for the contract and the [fanout] fallback). *)
and share ~fanout (t : Program.t) : Program.t =
  match t with
  | Program.Done _ | Program.Ret _ -> t
  | Read (r, k) -> Read (r, memo_int ~fanout k)
  | Write (r, v, k) -> Write (r, v, memo_unit ~fanout k)
  | Fence k -> Fence (memo_unit ~fanout k)
  | Cas (r, e, u, k) -> Cas (r, e, u, memo_bool ~fanout k)
  | Swap (r, v, k) -> Swap (r, v, memo_int ~fanout k)
  | Faa (r, d, k) -> Faa (r, d, memo_int ~fanout k)
  | Spin (r, pred, k) -> Spin (r, pred, memo_int ~fanout k)
  | Spinv (rs, prev, pred, k) -> Spinv (rs, prev, pred, memo_list ~fanout k)
  | Label (s, k) -> Label (s, memo_unit ~fanout k)

(** Compile a program for exploration: share its continuations. The
    identity up to observation. *)
let program ?(fanout = default_fanout) (t : Program.t) : Program.t =
  share ~fanout t
