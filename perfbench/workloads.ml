(** The explorations the benchmark drives, each through the entry point
    a user reaches: [Mutex_check.check] as [fencelab check] calls it,
    [Litmus.Test.run] as [fencelab litmus] does — never with an
    [~expected_states] hint, which no user-facing caller passes. *)

open Memsim

type outcome = {
  states : int;
  transitions : int;
  truncated : bool;
  ok : bool;  (** the verdict: the lock holds / the exploration finished *)
}

(** What the traced explorer needs to replay the engine's exploration:
    the initial configuration and the engine's hooks and bounds as the
    entry point sets them. *)
type spec =
  | Spec : {
      cfg0 : Config.t;
      monitor : 'm -> Step.t -> ('m, string) result;
      init : 'm;
      on_final : Config.t -> 'm -> unit;
      max_states : int;
      max_violations : int;
    }
      -> spec

(* [Mc.run]'s defaults, which both entry points leave in place *)
let engine_max_states = 1_000_000
let engine_max_violations = 3

type t = {
  name : string;
  setup : unit -> Config.t;
      (** build the initial configuration from the workload's spec —
          the work timed as [setup_s] *)
  run : ?tel:Telemetry.Hub.t -> jobs:int -> unit -> outcome;
  expected : (int * int * bool) option;
      (** pinned (states, transitions, truncated) of a j=1 run *)
  cap : int option;  (** state cap passed to the engine, if any *)
  spec : unit -> spec;
}

let lock_check ~name ~lock ~model ~nprocs ~expected =
  let factory =
    match Locks.Registry.find lock with
    | Some f -> f
    | None -> Fmt.invalid_arg "unknown lock %S" lock
  in
  {
    name;
    setup =
      (fun () ->
        let _, _, cfg =
          Verify.Mutex_check.workload ~model factory ~nprocs ~rounds:1
        in
        cfg);
    run =
      (fun ?tel ~jobs () ->
        let v =
          Verify.Mutex_check.check ?tel ~engine:(`Parallel jobs) ~model factory
            ~nprocs
        in
        let s = v.Verify.Mutex_check.stats in
        {
          states = s.Explore.states;
          transitions = s.Explore.transitions;
          truncated = s.Explore.truncated;
          ok = v.Verify.Mutex_check.holds;
        });
    expected;
    cap = None;
    spec =
      (fun () ->
        let _, counter, cfg0 =
          Verify.Mutex_check.workload ~model factory ~nprocs ~rounds:1
        in
        Spec
          {
            cfg0;
            monitor = Verify.Mutex_check.cs_monitor;
            init = Pid.Set.empty;
            on_final =
              (fun final _ ->
                if Config.read_mem final counter <> nprocs then
                  failwith "traced run lost a critical-section update");
            max_states = engine_max_states;
            max_violations = 1;
          });
  }

(** Bakery, n=3, PSO, unreduced: the paper's Algorithm 1 at the largest
    n that completes in seconds. *)
let bakery3_pso =
  lock_check ~name:"bakery3-pso" ~lock:"bakery" ~model:Memory_model.Pso
    ~nprocs:3 ~expected:(Some (718_590, 1_883_736, false))

(** The serve-mix batch's longest job: its unreduced bakery n=3 TSO
    check, the exploration the serve workload's trace splits by layer. *)
let bakery3_tso =
  lock_check ~name:"bakery3-tso" ~lock:"bakery" ~model:Memory_model.Tso
    ~nprocs:3 ~expected:(Some (718_590, 1_883_736, false))

let fuzz_params = { Fuzz.Gen.default_params with procs = 3; len = 9 }

(** States claimed before the engine stops a fuzz-ra exploration. *)
let fuzz_cap = 400_000

(** j=1 counts of the default program (seed 29) under [fuzz_cap]. *)
let fuzz29_expected = (400_000, 987_436, true)

let fuzz_ra ~seed =
  let test () = Fuzz.Gen.compile (Fuzz.Gen.generate ~seed fuzz_params) in
  let model = Memory_model.Ra in
  {
    name = "fuzz-ra";
    setup = (fun () -> snd (Litmus.Test.configure (test ()) ~model));
    run =
      (fun ?tel ~jobs () ->
        let r =
          Litmus.Test.run ?tel ~max_states:fuzz_cap ~engine:(`Parallel jobs)
            (test ()) ~model
        in
        let s = r.Litmus.Test.stats in
        {
          states = s.Explore.states;
          transitions = s.Explore.transitions;
          truncated = s.Explore.truncated;
          ok = r.Litmus.Test.outcomes <> [] || s.Explore.truncated;
        });
    expected = (if seed = 29 then Some fuzz29_expected else None);
    cap = Some fuzz_cap;
    spec =
      (fun () ->
        let t = test () in
        let regs, cfg0 = Litmus.Test.configure t ~model in
        let observed = t.Litmus.Test.observed regs in
        let outcomes = Hashtbl.create 16 in
        Spec
          {
            cfg0;
            monitor = (fun () _ -> Ok ());
            init = ();
            on_final =
              (fun final () ->
                Hashtbl.replace outcomes
                  ( List.init (Config.nprocs final) (Config.final_value final),
                    List.map (Config.read_mem final) observed )
                  ());
            max_states = fuzz_cap;
            max_violations = engine_max_violations;
          });
  }

let find ~fuzz_seed = function
  | "bakery3-pso" -> Some bakery3_pso
  | "bakery3-tso" -> Some bakery3_tso
  | "fuzz-ra" -> Some (fuzz_ra ~seed:fuzz_seed)
  | _ -> None

(** Is an outcome the right answer? A j=1 run is deterministic, so it
    must match the pinned counts exactly. With more domains, visit order
    decides which states a capped run claims before it stops, so only a
    complete run's counts are comparable; a capped run must still say
    [truncated], having reached the cap. *)
let correct w ~jobs (o : outcome) =
  let honest_cap =
    match w.cap with
    | Some cap -> o.truncated = (o.states >= cap)
    | None -> not o.truncated
  in
  o.ok && honest_cap
  &&
  match w.expected with
  | None -> true
  | Some (_, _, true) when jobs > 1 -> o.truncated
  | Some (s, t, tr) -> o.states = s && o.transitions = t && o.truncated = tr
