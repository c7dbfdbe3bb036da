(** Seeded generation of small concurrent programs over the full
    [Program.t] grammar.

    Generated programs are kept as first-class instruction lists (the
    {!instr} AST) rather than closed [Program.t] values so the shrinker
    can edit them and the renderer can print them; {!compile} closes a
    program into a {!Litmus.Test.t} whose outcome is the tuple of
    per-process packed observation logs plus the final committed value
    of every shared register.

    Two deliberate restrictions keep every generated program a valid
    differential-oracle input:

    - values are small non-negatives (writes draw from [1..values],
      fetch-and-add increments from [1..2]), so packed observation logs
      fit comfortably in an OCaml [int];
    - spins use the always-satisfied predicate [fun v -> v >= 0]: they
      exercise the primitive-spin machinery (cached re-reads, blocking
      gates) without ever deadlocking, so generated programs terminate
      under every scheduler and exhaustive outcome sets are total. *)

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

let default_params = { procs = 2; len = 5; nregs = 2; values = 2 }

type t = {
  seed : int;
  params : params;  (** generation parameters, for seed replay *)
  nregs : int;
  procs : instr list array;
}

let size t = Array.fold_left (fun acc p -> acc + List.length p) 0 t.procs
let nprocs t = Array.length t.procs

let equal a b = a.nregs = b.nregs && a.procs = b.procs

(* Weighted instruction choice: writes dominate so buffers stay busy
   (reordering is what the oracles are about); strong operations and
   spins appear often enough to keep their executor paths hot. *)
let gen_instr rng ~nregs ~values : instr =
  let reg () = Random.State.int rng nregs in
  let value () = 1 + Random.State.int rng values in
  match Random.State.int rng 100 with
  | n when n < 24 -> Read (reg ())
  | n when n < 56 -> Write (reg (), value ())
  | n when n < 68 -> Fence
  | n when n < 76 -> Cas (reg (), Random.State.int rng (values + 1), value ())
  | n when n < 82 -> Swap (reg (), value ())
  | n when n < 90 -> Faa (reg (), 1 + Random.State.int rng 2)
  | n when n < 96 -> Spin (reg ())
  | _ -> Label

let generate ~seed (params : params) : t =
  let rng = Random.State.make [| seed; 0xf022 |] in
  let nregs = max 1 params.nregs in
  let gen_proc () =
    let len = 1 + Random.State.int rng (max 1 params.len) in
    List.init len (fun _ -> gen_instr rng ~nregs ~values:(max 1 params.values))
  in
  {
    seed;
    params;
    nregs;
    procs = Array.init (max 1 params.procs) (fun _ -> gen_proc ());
  }

(* Observation packing: each observed value is appended in base 64, so
   a process's return value is its whole observation log. Bounded
   values (see the header) keep 10+ observations inside 63 bits. *)
let pack acc v = (acc * 64) + (v land 63)

(* The AST constructors shadow [Program.t]'s, so the compiler speaks
   to the DSL through a qualified alias rather than an open. *)
module P = Memsim.Program

let proc (regs : Memsim.Reg.t array) instrs : Memsim.Program.t =
  let ( let* ) = P.( let* ) in
  let rec go acc = function
    | [] -> P.return acc
    | i :: rest -> (
        match i with
        | Read r ->
            let* v = P.read regs.(r) in
            go (pack acc v) rest
        | Write (r, v) ->
            let* () = P.write regs.(r) v in
            go acc rest
        | Fence ->
            let* () = P.fence in
            go acc rest
        | Cas (r, e, u) ->
            let* ok = P.cas regs.(r) ~expect:e ~update:u in
            go (pack acc (Bool.to_int ok)) rest
        | Swap (r, v) ->
            let* old = P.swap regs.(r) v in
            go (pack acc old) rest
        | Faa (r, d) ->
            let* old = P.faa regs.(r) ~add:d in
            go (pack acc old) rest
        | Spin r ->
            let* v = P.await regs.(r) (fun v -> v >= 0) in
            go (pack acc v) rest
        | Label ->
            let* () = P.label "fuzz" in
            go acc rest)
  in
  P.run (go 0 instrs)

let name t = Fmt.str "FUZZ#%d" t.seed

let compile t : Litmus.Test.t =
  {
    Litmus.Test.name = name t;
    description =
      Fmt.str "generated: seed %d, %d procs, %d regs" t.seed (nprocs t) t.nregs;
    nregs = t.nregs;
    programs = (fun regs -> Array.map (proc regs) t.procs);
    observed = (fun regs -> Array.to_list regs);
  }

(* Fence sites, AST-level: one site per literal [Fence] instruction,
   counted per process. The synthesizer's global numbering assigns
   process [p] the range starting at the prefix sum of earlier
   processes' counts — same convention as [Litmus.Test.with_fence_mask],
   so masking here and masking the compiled test agree site-for-site. *)
let fence_sites t =
  Array.map
    (List.fold_left
       (fun acc i -> match i with Fence -> acc + 1 | _ -> acc)
       0)
    t.procs

let with_fence_mask ~keep t =
  let counts = fence_sites t in
  let offset = Array.make (Array.length counts) 0 in
  for p = 1 to Array.length counts - 1 do
    offset.(p) <- offset.(p - 1) + counts.(p - 1)
  done;
  {
    t with
    procs =
      Array.mapi
        (fun p instrs ->
          let site = ref offset.(p) in
          List.filter
            (fun i ->
              match i with
              | Fence ->
                  let s = !site in
                  incr site;
                  keep s
              | _ -> true)
            instrs)
        t.procs;
  }

let strip_fences t = with_fence_mask ~keep:(fun _ -> false) t

(* Fence saturation: a fence after every plain write. Strong operations
   already carry an implicit barrier, so saturating the writes is what
   collapses every buffered model onto SC. *)
let saturate t =
  {
    t with
    procs =
      Array.map
        (List.concat_map (function
          | Write _ as w -> [ w; Fence ]
          | i -> [ i ]))
        t.procs;
  }

(* Full saturation: a fence before every instruction plus a trailing
   one. Per-write fences are enough for the buffered models (only
   writes reorder), but not for the view-based ones, where a read with
   a stale view is itself a relaxation: collapsing RA onto SC needs
   reads bracketed by fences too. *)
let saturate_full t =
  {
    t with
    procs =
      Array.map
        (fun instrs -> List.concat_map (fun i -> [ Fence; i ]) instrs @ [ Fence ])
        t.procs;
  }
