(** The seven differential oracles, run per generated program.

    Every oracle is an inclusion or agreement claim between two
    independent ways of enumerating behaviours, so a violation always
    means a real bug somewhere — in the simulator, an engine, a
    reduction, or a scheduler — never a flaky environment:

    1. {b model nesting} — the exhaustive outcome set under SC is
       contained in TSO's, and TSO's in PSO's (via
       {!Litmus.Test.separation}); the operational content of the
       paper's SC ⊆ TSO ⊆ PSO behaviour inclusion.
    2. {b engine parity} — the exact-key {!Memsim.Explore.reference}
       explorer, [Mc.run ~engine:(`Parallel j)] and the POR-on run
       agree on the outcome set under the checked model.
    3. {b fence saturation} — a fence after every write collapses the
       TSO and PSO outcome sets onto SC's (fence insertion, made
       operational).
    4. {b random-schedule soundness} — every outcome an online
       {!Memsim.Scheduler.random} run reaches is in the exhaustive set.
    5. {b bounded saturation} — with a reorder bound K at least the
       maximum total buffer occupancy the unbounded exploration ever
       reaches, the bounded engine can never charge past its budget:
       it must certify saturation ([bound_exact]) and reproduce the
       unbounded outcome set byte-for-byte. This is the off-by-one
       trap in the budget accounting, fuzzed rather than unit-tested.
    6. {b view-model nesting} — SC's outcome set is contained in SRA's
       and SRA's in RA's: the view-based half of the model order, with
       SRA's append-only discipline sitting strictly between SC and
       unrestricted RA insertion.
    7. {b full-fence collapse} — a fence before every instruction (and
       a trailing one) collapses the RA and SRA outcome sets onto SC's.
       Per-write saturation (oracle 3) is not enough here: a read with
       a stale view is itself a relaxation, so the reads need fencing
       too ({!Gen.saturate_full}).

    All claims are over total outcome sets, so they are only asserted
    when no exploration was truncated; a truncated program is reported
    as skipped, never as passed. *)

open Memsim

type violation = {
  oracle : string;  (** short tag, e.g. ["nesting:SC⊆TSO"] *)
  detail : string;
  prog : Gen.t;
}

type verdict =
  | Ok
  | Skipped of string  (** some exploration hit a bound *)
  | Violation of violation

type config = {
  model : Memory_model.t;  (** model checked by oracles 2 and 4 *)
  jobs : int list;  (** parallel-engine domain counts for parity *)
  random_seeds : int;  (** random schedules per model for oracle 4 *)
  max_states : int;  (** per-exploration safety cap *)
}

let default_config =
  { model = Memory_model.Pso; jobs = [ 1; 2; 4 ]; random_seeds = 3;
    max_states = 300_000 }

let pp_violation ppf v =
  Fmt.pf ppf "%s: %s violates %s (%s)" (Gen.name v.prog) (Gen.name v.prog)
    v.oracle v.detail

let outcomes run = run.Litmus.Test.outcomes

let pp_outcomes ppf os =
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:Fmt.semi Litmus.Test.pp_outcome) os

(* Exhaustive run; [None] when truncated (the caller skips). *)
let exhaustive ?engine ?por ?reorder_bound ~max_states test ~model =
  let r = Litmus.Test.run ?engine ?por ?reorder_bound ~max_states test ~model in
  if r.Litmus.Test.stats.Explore.truncated then None else Some r

let check ?(config = default_config) prog : verdict =
  let test = Gen.compile prog in
  let exception Skip of string in
  let exception Fail of string * string in
  let fail oracle fmt = Fmt.kstr (fun d -> raise (Fail (oracle, d))) fmt in
  let run ?engine ?por ?reorder_bound test ~model =
    match
      exhaustive ?engine ?por ?reorder_bound ~max_states:config.max_states test
        ~model
    with
    | Some r -> r
    | None ->
        raise (Skip (Fmt.str "truncated at %d states under %a" config.max_states
                       Memory_model.pp model))
  in
  try
    (* oracle 1: model nesting over the exhaustive sets *)
    let sc = run test ~model:Memory_model.Sc in
    let tso = run test ~model:Memory_model.Tso in
    let pso = run test ~model:Memory_model.Pso in
    let nesting tag ~stronger ~weaker =
      match Litmus.Test.separation ~stronger:weaker ~weaker:stronger with
      | [] -> ()
      | missing ->
          fail ("nesting:" ^ tag) "%a reachable under %a but not %a"
            pp_outcomes missing Memory_model.pp stronger.Litmus.Test.model
            Memory_model.pp weaker.Litmus.Test.model
    in
    nesting "SC⊆TSO" ~stronger:sc ~weaker:tso;
    nesting "TSO⊆PSO" ~stronger:tso ~weaker:pso;
    (* oracle 6: the view-based half of the model order *)
    let sra = run test ~model:Memory_model.Sra in
    let ra = run test ~model:Memory_model.Ra in
    nesting "SC⊆SRA" ~stronger:sc ~weaker:sra;
    nesting "SRA⊆RA" ~stronger:sra ~weaker:ra;
    (* oracle 2: engine parity under the configured model, against the
       exact-key reference explorer *)
    let regs, cfg = Litmus.Test.configure test ~model:config.model in
    let reference, ref_run =
      Explore.reference_outcomes ~max_states:config.max_states
        ~observe:(Litmus.Test.observe test regs) cfg
    in
    if ref_run.Explore.stats.Explore.truncated then
      raise
        (Skip (Fmt.str "reference truncated at %d states under %a"
                 config.max_states Memory_model.pp config.model));
    let parity tag r =
      if outcomes r <> reference then
        fail ("parity:" ^ tag) "reference %a vs %s %a" pp_outcomes reference
          tag pp_outcomes (outcomes r)
    in
    (* oracle 1 already explored the configured model at j=1 *)
    let j1 =
      match config.model with
      | Memory_model.Sc -> sc
      | Memory_model.Tso -> tso
      | Memory_model.Pso -> pso
      | Memory_model.Ra -> ra
      | Memory_model.Sra -> sra
      | Memory_model.Rmo -> run test ~model:config.model
    in
    List.iter
      (fun j ->
        parity (Fmt.str "j=%d" j)
          (if j = 1 then j1
           else run ~engine:(`Parallel j) test ~model:config.model))
      config.jobs;
    parity "por" (run ~por:true test ~model:config.model);
    (* oracle 3: fence saturation collapses TSO/PSO onto SC *)
    let sat = Gen.compile (Gen.saturate prog) in
    let sat_sc = run sat ~model:Memory_model.Sc in
    List.iter
      (fun model ->
        let r = run sat ~model in
        if outcomes r <> outcomes sat_sc then
          fail
            (Fmt.str "saturation:%a" Memory_model.pp model)
            "saturated %a %a vs SC %a" Memory_model.pp model pp_outcomes
            (outcomes r) pp_outcomes (outcomes sat_sc))
      [ Memory_model.Tso; Memory_model.Pso ];
    (* oracle 7: full fencing collapses the view models onto SC *)
    let sat_full = Gen.compile (Gen.saturate_full prog) in
    let sat_full_sc = run sat_full ~model:Memory_model.Sc in
    List.iter
      (fun model ->
        let r = run sat_full ~model in
        if outcomes r <> outcomes sat_full_sc then
          fail
            (Fmt.str "saturation:%a" Memory_model.pp model)
            "fully fenced %a %a vs SC %a" Memory_model.pp model pp_outcomes
            (outcomes r) pp_outcomes (outcomes sat_full_sc))
      [ Memory_model.Ra; Memory_model.Sra ];
    (* oracle 4: random schedules only reach exhaustive outcomes *)
    List.iter
      (fun (model, exh) ->
        let _, cfg = Litmus.Test.configure test ~model in
        for k = 0 to config.random_seeds - 1 do
          let seed = (prog.Gen.seed * 1_000) + k in
          match Scheduler.random ~seed cfg with
          | exception Scheduler.Stuck (_, msg) ->
              (* generated programs are straight-line + satisfiable
                 spins: a stuck scheduler is itself a soundness bug *)
              fail "random:stuck" "seed %d under %a: %s" seed Memory_model.pp
                model msg
          | _, final ->
              let o = Litmus.Test.observe test regs final in
              if not (Litmus.Test.admits exh o) then
                fail "random:unsound" "seed %d under %a reached %a outside %a"
                  seed Memory_model.pp model Litmus.Test.pp_outcome o
                  pp_outcomes (outcomes exh)
        done)
      [
        (Memory_model.Sc, sc);
        (Memory_model.Tso, tso);
        (Memory_model.Pso, pso);
        (Memory_model.Ra, ra);
        (Memory_model.Sra, sra);
      ];
    (* oracle 5: a reorder bound at least the max total buffer occupancy
       can never be charged past (every in-flight reordering is a
       pending entry), so the bounded run must certify saturation and
       agree with the unbounded outcome set byte-for-byte *)
    let occupancy_bound model =
      let _, cfg = Litmus.Test.configure test ~model in
      let occ = ref 0 in
      let watch c =
        let o =
          Array.fold_left
            (fun acc (st : Config.pstate) -> acc + Wbuf.size st.Config.wb)
            0 c.Config.procs
        in
        if o > !occ then occ := o;
        None
      in
      let r =
        Mc.run ~max_states:config.max_states ~check:watch
          ~monitor:(fun () _ -> Stdlib.Ok ())
          ~init:() cfg
      in
      if r.Explore.stats.Explore.truncated then
        raise
          (Skip (Fmt.str "occupancy scan truncated at %d states under %a"
                   config.max_states Memory_model.pp model));
      !occ
    in
    List.iter
      (fun ((model : Memory_model.t), exh) ->
        let k = occupancy_bound model in
        let b = run ~reorder_bound:(`K k) test ~model in
        if not b.Litmus.Test.bound_exact then
          fail
            (Fmt.str "bounded:uncertified:%a" Memory_model.pp model)
            "K=%d >= max occupancy yet %d bound hits — budget over-charges" k
            b.Litmus.Test.stats.Explore.bound_hits;
        if outcomes b <> outcomes exh then
          fail
            (Fmt.str "bounded:outcomes:%a" Memory_model.pp model)
            "K=%d %a vs unbounded %a" k pp_outcomes (outcomes b) pp_outcomes
            (outcomes exh))
      [ (Memory_model.Tso, tso); (Memory_model.Pso, pso) ];
    Ok
  with
  | Skip reason -> Skipped reason
  | Fail (oracle, detail) -> Violation { oracle; detail; prog }

(** Does [prog] still violate an oracle whose tag starts with
    [oracle_prefix]? The shrinker's preserved property. *)
let still_violates ?(config = default_config) ~oracle_prefix prog =
  match check ~config prog with
  | Violation v ->
      String.length v.oracle >= String.length oracle_prefix
      && String.sub v.oracle 0 (String.length oracle_prefix) = oracle_prefix
  | Ok | Skipped _ -> false
