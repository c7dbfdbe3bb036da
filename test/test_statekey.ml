(* Incremental state keys: the cached lanes carried in pstates and
   committed memory, and the xor-composed fingerprint updated from
   dirty reports, must agree with their from-scratch recomputations at
   every reachable configuration. Programs draw from the full
   operation alphabet (including labels and the strong primitives) so
   every dirty-report branch of the executor is exercised. *)

open Memsim

type op = W of int * int | R of int | F | C of int | S of int | A of int | L

let show_op = function
  | W (r, v) -> Printf.sprintf "W(%d,%d)" r v
  | R r -> Printf.sprintf "R%d" r
  | F -> "F"
  | C r -> Printf.sprintf "C%d" r
  | S r -> Printf.sprintf "S%d" r
  | A r -> Printf.sprintf "A%d" r
  | L -> "L"

let arb_ops =
  QCheck.(
    make
      ~print:(fun l -> String.concat ";" (List.map show_op l))
      Gen.(
        list_size (0 -- 8)
          (frequency
             [
               (4, map2 (fun r v -> W (r, v)) (0 -- 3) (0 -- 9));
               (3, map (fun r -> R r) (0 -- 3));
               (2, return F);
               (1, map (fun r -> C r) (0 -- 3));
               (1, map (fun r -> S r) (0 -- 3));
               (1, map (fun r -> A r) (0 -- 3));
               (1, return L);
             ])))

let build_program ops =
  let rec go i = function
    | [] -> Program.Ret 0
    | W (r, v) :: rest -> Program.Write (r, v, fun () -> go (i + 1) rest)
    | R r :: rest -> Program.Read (r, fun _ -> go (i + 1) rest)
    | F :: rest -> Program.Fence (fun () -> go (i + 1) rest)
    | C r :: rest -> Program.Cas (r, 0, i + 1, fun _ -> go (i + 1) rest)
    | S r :: rest -> Program.Swap (r, i + 10, fun _ -> go (i + 1) rest)
    | A r :: rest -> Program.Faa (r, 1, fun _ -> go (i + 1) rest)
    | L :: rest ->
        Program.Label (Printf.sprintf "l%d" i, fun () -> go (i + 1) rest)
  in
  go 0 ops

(* A schedule as raw (pid, register option) elements; invalid elements
   (commits with nothing committable) are exactly the no-op/fallback
   paths we want covered. *)
let arb_sched =
  QCheck.(
    list_of_size Gen.(0 -- 40) (pair (int_bound 1) (option (int_bound 3))))

let arb_case = QCheck.(pair (pair arb_ops arb_ops) (pair arb_sched (int_bound 3)))

let make_cfg (ops0, ops1) model_ix =
  let model = List.nth Memory_model.all model_ix in
  Config.make ~model
    ~layout:(Layout.flat ~nprocs:2 ~nregs:4)
    [| build_program ops0; build_program ops1 |]

let lanes_consistent cfg =
  Statekey.mem_lanes cfg = Statekey.mem_lanes_scratch cfg
  && List.for_all
       (fun p ->
         let st = Config.pstate cfg p in
         Statekey.proc_lanes st = Statekey.proc_lanes_scratch st)
       [ 0; 1 ]

(* Cached lanes = scratch lanes along any schedule, under every model. *)
let prop_lanes_incremental_eq_scratch =
  QCheck.Test.make ~name:"cached lanes = from-scratch lanes" ~count:300
    arb_case (fun ((ops0, ops1), (sched, model_ix)) ->
      let cfg0 = make_cfg (ops0, ops1) model_ix in
      lanes_consistent cfg0
      && List.for_all Fun.id
           (let cfg = ref cfg0 in
            List.map
              (fun e ->
                let _, cfg' = Exec.exec_elt !cfg e in
                cfg := cfg';
                lanes_consistent cfg')
              sched))

(* Fingerprints updated edge by edge from dirty reports stay equal to
   the fingerprint recomputed from the configuration — the exact
   invariant the parallel checker's visited set rests on. Includes the
   label-flush normalization the engine performs before expanding. *)
let prop_fingerprint_update_eq_of_config =
  QCheck.Test.make ~name:"incremental fingerprint = of_config" ~count:300
    arb_case (fun ((ops0, ops1), (sched, model_ix)) ->
      let cfg0 = make_cfg (ops0, ops1) model_ix in
      let ok = ref true in
      let cfg = ref cfg0 and fp = ref (Mc.Fingerprint.of_config cfg0) in
      let check () = Mc.Fingerprint.equal !fp (Mc.Fingerprint.of_config !cfg) in
      List.iter
        (fun e ->
          (* normalize as the engine does, carrying the fingerprint *)
          let _, cfgn, dirtied = Exec.flush_labels_d !cfg in
          fp :=
            List.fold_left
              (fun fp p ->
                Mc.Fingerprint.update fp ~before:!cfg ~after:cfgn
                  { Exec.proc = Some p; mem = false })
              !fp dirtied;
          cfg := cfgn;
          ok := !ok && check ();
          let _, cfg', d = Exec.exec_elt_d !cfg e in
          fp := Mc.Fingerprint.update !fp ~before:!cfg ~after:cfg' d;
          cfg := cfg';
          ok := !ok && check ())
        sched;
      !ok)

(* The serialized key distinguishes configurations that differ in
   committed memory even when hashes are not consulted: the memory
   part of the stream is exact. *)
let key_is_stable_and_memory_exact () =
  let cfg = make_cfg ([ W (0, 1); F ], []) 2 (* PSO *) in
  let k0 = Statekey.to_string cfg in
  Alcotest.(check string) "key is deterministic" k0 (Statekey.to_string cfg);
  let _, cfg1 = Exec.exec cfg [ (0, None) ] in
  Alcotest.(check bool) "write changes the key" false
    (String.equal k0 (Statekey.to_string cfg1));
  let _, cfg2 = Exec.exec cfg1 [ (0, Some 0) ] in
  Alcotest.(check bool) "commit changes the key" false
    (String.equal (Statekey.to_string cfg1) (Statekey.to_string cfg2))

(* ---- Lazy child keys ------------------------------------------------

   The engine steps each child into a delta, settles its labels and
   keys it before building any configuration; only new children are
   installed. Both halves are checked here against the eager path. *)

type source = Ops of op list * op list | Fuzz of int | Bakery

let show_source = function
  | Ops (a, b) ->
      Printf.sprintf "ops [%s] [%s]"
        (String.concat ";" (List.map show_op a))
        (String.concat ";" (List.map show_op b))
  | Fuzz seed -> Printf.sprintf "fuzz seed %d" seed
  | Bakery -> "bakery n=2"

let fuzz_params = { Fuzz.Gen.default_params with procs = 3; len = 5 }

let source_cfg src model =
  match src with
  | Ops (a, b) ->
      Config.make ~model
        ~layout:(Layout.flat ~nprocs:2 ~nregs:4)
        [| build_program a; build_program b |]
  | Fuzz seed ->
      let prog = Fuzz.Gen.generate ~seed fuzz_params in
      snd (Litmus.Test.configure (Fuzz.Gen.compile prog) ~model)
  | Bakery ->
      let _, _, cfg =
        Verify.Mutex_check.workload ~model
          (Option.get (Locks.Registry.find "bakery"))
          ~nprocs:2 ~rounds:1
      in
      cfg

let arb_lazy_case =
  QCheck.(
    make
      ~print:(fun (src, model_ix, sched) ->
        Printf.sprintf "%s, %s, schedule [%s]" (show_source src)
          (Memory_model.to_string (List.nth Memory_model.all model_ix))
          (String.concat ";" (List.map string_of_int sched)))
      Gen.(
        triple
          (frequency
             [
               (2, map2 (fun a b -> Ops (a, b)) (gen arb_ops) (gen arb_ops));
               (2, map (fun s -> Fuzz s) (0 -- 10_000));
               (1, return Bakery);
             ])
          (0 -- 5)
          (list_size (0 -- 40) (-3 -- 20))))

let metrics_equal a b =
  Pid.Map.equal ( = ) (Config.metrics a) (Config.metrics b)

(* An eagerly built reference for what a delta's steps do to the
   stepped process's history — observation log, op count, counters and
   the (register, value) pairs its CC cache learns — spelled out step
   by step, independently of [Config.apply]'s fold and of
   [Metrics.charge]. *)
let eager_history (st : Config.pstate) steps =
  let b = Bool.to_int in
  let rmr (loc : Step.locality) (c : Metrics.counters) =
    {
      c with
      Metrics.rmr = c.Metrics.rmr + b (Step.is_rmr loc);
      rmr_dsm = c.Metrics.rmr_dsm + b (not loc.Step.dsm_local);
      rmr_cc = c.Metrics.rmr_cc + b (not loc.Step.cc_local);
    }
  in
  List.fold_left
    (fun (obs, ops, learned, (c : Metrics.counters)) (s : Step.t) ->
      let c =
        if Step.is_model_step s then { c with Metrics.steps = c.Metrics.steps + 1 }
        else c
      in
      match s with
      | Read { reg; value; from_wbuf; loc; _ } ->
          ( value :: obs,
            ops + 1,
            (reg, value) :: learned,
            rmr loc
              {
                c with
                Metrics.reads = c.Metrics.reads + 1;
                reads_from_wbuf = c.Metrics.reads_from_wbuf + b from_wbuf;
              } )
      | Write { reg; value; loc; _ } ->
          ( obs,
            ops + 1,
            (reg, value) :: learned,
            rmr loc { c with Metrics.writes = c.Metrics.writes + 1 } )
      | Commit { loc; _ } ->
          (obs, ops, learned, rmr loc { c with Metrics.commits = c.Metrics.commits + 1 })
      | Fence _ -> (obs, ops + 1, learned, { c with Metrics.fences = c.Metrics.fences + 1 })
      | Cas { reg; read; success; update; loc; _ } ->
          ( b success :: read :: obs,
            ops + 1,
            (if success then [ (reg, update) ] else []) @ ((reg, read) :: learned),
            rmr loc
              { c with Metrics.cas = c.Metrics.cas + 1; fences = c.Metrics.fences + 1 }
          )
      | Rmw { reg; read; wrote; loc; _ } ->
          ( read :: obs,
            ops + 1,
            (reg, wrote) :: (reg, read) :: learned,
            rmr loc
              { c with Metrics.rmw = c.Metrics.rmw + 1; fences = c.Metrics.fences + 1 }
          )
      | Return _ ->
          (obs, ops + 1, learned, { c with Metrics.returns = c.Metrics.returns + 1 })
      | Note _ -> (obs, ops, learned, c))
    (st.Config.obs, st.Config.ops, [], st.Config.ctr)
    steps

(* [child]'s state of the process [d] stepped from [cfg] is the eager
   reference: same observation log, op count and counters, and a CC
   cache that is the old one plus exactly the learned pairs. *)
let history_matches cfg (d : Config.delta) child =
  let p = d.Config.pid in
  let old = Config.pstate cfg p and st = Config.pstate child p in
  let obs, ops, learned, ctr = eager_history old d.Config.steps in
  st.Config.obs = obs && st.Config.ops = ops && st.Config.ctr = ctr
  && List.for_all
       (fun r ->
         Config.Int_set.equal
           (Config.known_values st r)
           (List.fold_left
              (fun acc (r', v) -> if r' = r then Config.Int_set.add v acc else acc)
              (Config.known_values old r) learned))
       (List.init (Layout.nregs cfg.Config.layout) Fun.id)

(* Along an arbitrary schedule over a normalized configuration (an
   engine successor element for [i >= 0], the raw op element of
   process [-i mod n] otherwise — no-ops included):
   - [exec_elt_d] is [Config.apply] of [Exec.step]: same steps, same
     successor (state key and metrics), and the dirty report names
     exactly what the delta changes;
   - the settled delta's key ([Fingerprint.step]) is [of_config] of the
     applied child, which is the eagerly flushed child, with the same
     notes, and the applied child's observation log, op count, CC cache
     and counters are the eager reference's ({!history_matches});
   - the O(1) bounded-run updates ([Config.reorders_after],
     [Fingerprint.budget_step]) agree with their recomputations. *)
let prop_lazy_child_eq_eager =
  QCheck.Test.make ~name:"lazy child key = of_config of the built child"
    ~count:300 arb_lazy_case (fun (src, model_ix, sched) ->
      let model = List.nth Memory_model.all model_ix in
      let _, cfg0 = Exec.flush_labels (source_cfg src model) in
      let n = Config.nprocs cfg0 in
      let rec go cfg fp = function
        | [] -> true
        | i :: rest -> (
            let elts = Explore.successor_elts cfg in
            let e =
              if i < 0 then Some (-i mod n, None)
              else if elts = [] then None
              else Some (List.nth elts (i mod List.length elts))
            in
            match e with
            | None -> true
            | Some e ->
                let d = Exec.step cfg e in
                let steps, cfg', dirty = Exec.exec_elt_d cfg e in
                let applied = Config.apply cfg d in
                let eager_ok =
                  d.Config.steps = steps
                  && String.equal (Statekey.to_string applied)
                       (Statekey.to_string cfg')
                  && metrics_equal applied cfg'
                  && Mc.Fingerprint.equal
                       (Mc.Fingerprint.update fp ~before:cfg ~after:cfg' dirty)
                       (Mc.Fingerprint.of_config cfg')
                in
                let bounded_ok =
                  Config.reorders_after (Config.reorders_in_flight cfg) cfg d
                  = Config.reorders_in_flight cfg'
                  && Mc.Fingerprint.equal
                       (Mc.Fingerprint.budget_step
                          (Mc.Fingerprint.budget_term cfg) cfg d)
                       (Mc.Fingerprint.budget_term cfg')
                in
                let notes = Exec.settle cfg d in
                let eager_notes, child, _ = Exec.flush_labels_d cfg' in
                let key = Mc.Fingerprint.step fp cfg d in
                let lazy_child = Config.apply cfg d in
                let lazy_ok =
                  notes = eager_notes
                  && (not (Exec.unsettled d))
                  && Mc.Fingerprint.equal key (Mc.Fingerprint.of_config child)
                  && String.equal
                       (Statekey.to_string lazy_child)
                       (Statekey.to_string child)
                  && metrics_equal lazy_child child
                  && history_matches cfg d lazy_child
                in
                eager_ok && bounded_ok && lazy_ok && go child key rest)
      in
      go cfg0 (Mc.Fingerprint.of_config cfg0) sched)

(* ---- Step into scratch --------------------------------------------

   The engine steps every child into its worker's one scratch delta
   and copies out claim winners only. A child built from the delta
   must not change when the next one is stepped into it. Along a random
   walk under each of the six models, each expansion follows one of
   the engine's paths with a single delta shared by the whole walk —
   plain (every successor element), bounded (the elements a reorder
   budget admits) or POR (every ample candidate probed into the delta
   first, then the elements) — and every child built from the delta
   keeps, to the end of its expansion, the key, fingerprint, metrics,
   observation logs, op counts and CC caches it was built with, which
   are also those of the same child stepped into a fresh delta. *)
let snapshot cfg =
  let nregs = Layout.nregs cfg.Config.layout in
  ( Statekey.to_string cfg,
    Mc.Fingerprint.of_config cfg,
    Pid.Map.bindings (Config.metrics cfg),
    Array.map
      (fun (st : Config.pstate) ->
        ( st.Config.obs,
          st.Config.ops,
          List.init nregs (fun r ->
              Config.Int_set.elements (Config.known_values st r)) ))
      cfg.Config.procs )

let prop_scratch_children_stay =
  QCheck.Test.make ~name:"scratch delta: built children never change"
    ~count:200 arb_lazy_case (fun (src, model_ix, sched) ->
      let model = List.nth Memory_model.all model_ix in
      let _, cfg0 = Exec.flush_labels (source_cfg src model) in
      let d = Config.scratch () in
      let rec go cfg = function
        | [] -> true
        | i :: rest -> (
            let elts = Explore.successor_elts cfg in
            let path = abs i mod 3 and budget = abs i mod 2 in
            if path = 2 then
              List.iter
                (fun p -> Exec.step_into d cfg cfg.Config.op_elts.(p))
                (Mc.Por.ample_candidates cfg);
            let in_flight = Config.reorders_in_flight cfg in
            let built =
              List.filter_map
                (fun e ->
                  Exec.step_into d cfg e;
                  if path = 1 && Config.reorders_after in_flight cfg d > budget
                  then None
                  else begin
                    ignore (Exec.settle cfg d);
                    let child = Config.apply cfg d in
                    let _, fresh = Exec.exec_elt cfg e in
                    let _, fresh = Exec.flush_labels fresh in
                    Some (child, snapshot child, snapshot fresh)
                  end)
                elts
            in
            List.for_all
              (fun (child, at_build, fresh) ->
                snapshot child = at_build && at_build = fresh)
              built
            &&
            match built with
            | [] -> true
            | _ ->
                let child, _, _ = List.nth built (abs i mod List.length built) in
                go child rest)
      in
      go cfg0 sched)

let suite =
  ( "statekey",
    [
      Alcotest.test_case "key stable, memory exact" `Quick
        key_is_stable_and_memory_exact;
      QCheck_alcotest.to_alcotest prop_lanes_incremental_eq_scratch;
      QCheck_alcotest.to_alcotest prop_fingerprint_update_eq_of_config;
      QCheck_alcotest.to_alcotest prop_lazy_child_eq_eager;
      QCheck_alcotest.to_alcotest prop_scratch_children_stay;
    ] )
