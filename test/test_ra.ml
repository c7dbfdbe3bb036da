(* The release/acquire backend: a differential litmus matrix over
   {SC, TSO, PSO, RA, SRA}, counterexample replay, and the structural
   invariants of the view/modification-log storage discipline.

   The matrix is the content of the model zoo: every classic litmus
   test states its verdict under every model, and the table separates
   each adjacent pair — SB separates SC from TSO, MP separates TSO
   from PSO, WRC separates PSO from SRA (write-buffer models are
   multi-copy atomic, view models are not), and 2+2W separates SRA
   from RA (SRA's per-location append-only discipline totally orders
   same-location writes; RA may insert below an already-visible
   write). *)

open Memsim

let five_models =
  [
    Memory_model.Sc;
    Memory_model.Tso;
    Memory_model.Pso;
    Memory_model.Ra;
    Memory_model.Sra;
  ]

let iriw_unfenced =
  Litmus.Test.with_fence_mask ~keep:(fun _ -> false) Litmus.Cases.iriw

(* Verdict table: does the model admit the test's interesting (weak)
   outcome? Columns follow [five_models]: SC, TSO, PSO, RA, SRA. *)
let matrix : (Litmus.Test.t * Litmus.Test.outcome * bool list) list =
  let io t = Litmus.Cases.interesting_outcome t in
  [
    (Litmus.Cases.sb, io Litmus.Cases.sb, [ false; true; true; true; true ]);
    (Litmus.Cases.sb_fenced, io Litmus.Cases.sb_fenced,
     [ false; false; false; false; false ]);
    (Litmus.Cases.sb_rmw, io Litmus.Cases.sb_rmw,
     [ false; false; false; false; false ]);
    (Litmus.Cases.mp, io Litmus.Cases.mp, [ false; false; true; true; true ]);
    (Litmus.Cases.mp_fenced, io Litmus.Cases.mp_fenced,
     [ false; false; false; false; false ]);
    (* the RA/SRA separator: both locations ending at the *first*
       thread's values needs a write inserted below an already-maximal
       one — legal for RA, never for append-only SRA *)
    (Litmus.Cases.two_plus_two_w, io Litmus.Cases.two_plus_two_w,
     [ false; false; true; true; false ]);
    (Litmus.Cases.lb, io Litmus.Cases.lb,
     [ false; false; false; false; false ]);
    (* view models are not multi-copy atomic: the relayed write's base
       view is the writer's (empty) release view, so the final reader
       can still miss x *)
    (Litmus.Cases.wrc, io Litmus.Cases.wrc,
     [ false; false; false; true; true ]);
    (* the corpus IRIW is fenced; SC fences totally order through the
       global fence view, so even RA forbids the disagreement *)
    (Litmus.Cases.iriw, io Litmus.Cases.iriw,
     [ false; false; false; false; false ]);
    (iriw_unfenced, io Litmus.Cases.iriw,
     [ false; false; false; true; true ]);
    (Litmus.Cases.corr, io Litmus.Cases.corr,
     [ false; false; false; false; false ]);
  ]

let differential_matrix () =
  List.iter
    (fun (test, weak, verdicts) ->
      List.iter2
        (fun model expected ->
          let r = Litmus.Test.run test ~model in
          Alcotest.(check bool)
            (Fmt.str "%s/%a admits %a" test.Litmus.Test.name Memory_model.pp
               model Litmus.Test.pp_outcome weak)
            expected
            (Litmus.Test.admits r weak))
        five_models verdicts)
    matrix

(* Every row of the matrix separates some adjacent pair of models, and
   each pair is separated by some row — the table is not redundant. *)
let matrix_separates_all_models () =
  let adjacent = [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  List.iter
    (fun (i, j) ->
      let separated =
        List.exists
          (fun (_, _, verdicts) ->
            List.nth verdicts i <> List.nth verdicts j)
          matrix
      in
      Alcotest.(check bool)
        (Fmt.str "%a / %a separated by some litmus row" Memory_model.pp
           (List.nth five_models i) Memory_model.pp (List.nth five_models j))
        true separated)
    adjacent

(* Exact outcome sets under the view models for the two headline
   cases, mirroring test_litmus's per-buffer-model pins. *)
let returns_of run =
  List.map
    (fun (o : Litmus.Test.outcome) -> o.Litmus.Test.returns)
    run.Litmus.Test.outcomes

let check_returns test model expected =
  let r = Litmus.Test.run test ~model in
  Alcotest.(check (list (list int)))
    (Fmt.str "%s/%a returns" test.Litmus.Test.name Memory_model.pp model)
    (List.sort compare expected) (returns_of r)

let exact_outcome_sets () =
  List.iter
    (fun m ->
      check_returns Litmus.Cases.sb m
        [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ];
      check_returns Litmus.Cases.mp m
        [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 10 ]; [ 0; 11 ] ];
      check_returns Litmus.Cases.sb_fenced m
        [ [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ])
    [ Memory_model.Ra; Memory_model.Sra ]

(* Outcome sets nest with the model: SC ⊆ SRA ⊆ RA on the whole
   corpus (the view-model counterpart of SC ⊆ TSO ⊆ PSO). *)
let outcome_sets_nest () =
  let subset name a b =
    Alcotest.(check bool) name true
      (List.for_all
         (fun o -> List.mem o b.Litmus.Test.outcomes)
         a.Litmus.Test.outcomes)
  in
  List.iter
    (fun t ->
      let sc = Litmus.Test.run t ~model:Memory_model.Sc in
      let sra = Litmus.Test.run t ~model:Memory_model.Sra in
      let ra = Litmus.Test.run t ~model:Memory_model.Ra in
      subset (t.Litmus.Test.name ^ ": SC ⊆ SRA") sc sra;
      subset (t.Litmus.Test.name ^ ": SRA ⊆ RA") sra ra)
    Litmus.Cases.all

(* Counterexample replay: the checker's recorded schedule for the
   2+2W weak outcome under RA, replayed verbatim on a fresh root,
   reproduces the weak final state — and under SRA the same check
   finds nothing. *)
let counterexample_replay () =
  let regs, cfg =
    Litmus.Test.configure Litmus.Cases.two_plus_two_w ~model:Memory_model.Ra
  in
  let observed = Litmus.Cases.two_plus_two_w.Litmus.Test.observed regs in
  let weak cfg =
    if
      Config.quiescent cfg
      && List.map (Config.read_mem cfg) observed = [ 1; 1 ]
    then Some "both locations ended at the first thread's value"
    else None
  in
  let r =
    Explore.reference ~check:weak
      ~monitor:(fun m _ -> Ok m)
      ~init:() cfg
  in
  let path =
    match r.Explore.violations with
    | v :: _ -> v.Explore.path
    | [] -> Alcotest.fail "RA: no 2+2W counterexample found"
  in
  let _, regs_cfg =
    Litmus.Test.configure Litmus.Cases.two_plus_two_w ~model:Memory_model.Ra
  in
  let steps1, final1 = Mc.Replay.run regs_cfg path in
  let steps2, final2 = Mc.Replay.run regs_cfg path in
  Alcotest.(check string) "replayed final state stable"
    (Statekey.to_string final1)
    (Statekey.to_string final2);
  Alcotest.(check int) "replayed trace length stable" (List.length steps1)
    (List.length steps2);
  Alcotest.(check (list int))
    "replay reproduces the weak outcome" [ 1; 1 ]
    (List.map (Config.read_mem final1) observed);
  (* same invariant under SRA: unreachable, so no violation exists *)
  let _, cfg_sra =
    Litmus.Test.configure Litmus.Cases.two_plus_two_w ~model:Memory_model.Sra
  in
  let r_sra =
    Explore.reference ~check:weak
      ~monitor:(fun m _ -> Ok m)
      ~init:() cfg_sra
  in
  Alcotest.(check int) "SRA: 2+2W weak outcome unreachable" 0
    (List.length r_sra.Explore.violations)

(* ------------------------------------------------------------------ *)
(* Structural invariants of the view/log storage, on random programs
   driven by random (clamped) schedules.                               *)
(* ------------------------------------------------------------------ *)

type op = W of int * int | R of int | F | C of int | S of int | A of int

let show_op = function
  | W (r, v) -> Printf.sprintf "W(%d,%d)" r v
  | R r -> Printf.sprintf "R%d" r
  | F -> "F"
  | C r -> Printf.sprintf "C%d" r
  | S r -> Printf.sprintf "S%d" r
  | A r -> Printf.sprintf "A%d" r

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
  in
  go 0 ops

(* A schedule as (pid, raw choice) pairs; the raw choice is clamped to
   the process's live alternative count at execution time, so every
   element is valid and reads/insertions hit mid-log positions too. *)
let arb_sched = QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 1) (int_bound 7)))

let arb_case = QCheck.(pair (pair arb_ops arb_ops) (pair arb_sched bool))

let make_cfg (ops0, ops1) sra =
  let model = if sra then Memory_model.Sra else Memory_model.Ra in
  Config.make ~model
    ~layout:(Layout.flat ~nprocs:2 ~nregs:4)
    [| build_program ops0; build_program ops1 |]

let clamp cfg (p, c) =
  let n = Exec.view_nchoices cfg p in
  if n = 0 then (p, None)
  else
    let c = c mod n in
    (p, if c = 0 then None else Some c)

let all_regs = [ 0; 1; 2; 3 ]

(* One location's log: root at position 0, ids pairwise distinct,
   [pos_of_mid] inverts [msg_at]; under SRA (append-only) positions
   are creation-ordered, i.e. ids ascend along the log. *)
let log_well_formed sra store r =
  let n = Modlog.nmsgs store r in
  let msgs = List.init n (Modlog.msg_at store r) in
  let mids = List.map (fun (m : Modlog.msg) -> m.Modlog.mid) msgs in
  (Modlog.msg_at store r 0).Modlog.mid = 0
  && List.length (List.sort_uniq compare mids) = n
  && List.for_all
       (fun i -> Modlog.pos_of_mid store r (List.nth mids i) = i)
       (List.init n Fun.id)
  && (not sra || List.sort compare mids = mids)

(* Views reference existing messages and the committed memory is the
   materialized log maximum. *)
let store_consistent sra cfg =
  match Config.store cfg with
  | None -> false
  | Some store ->
      List.for_all (log_well_formed sra store) all_regs
      && List.for_all
           (fun r ->
             Config.read_mem cfg r
             = (Modlog.max_msg store r).Modlog.value)
           all_regs
      && List.for_all
           (fun p ->
             let st = Config.pstate cfg p in
             List.for_all
               (fun v ->
                 View.fold
                   (fun r m ok ->
                     ok && Modlog.pos_of_mid store r m >= 0)
                   v true)
               [ st.Config.view; st.Config.rel ])
           [ 0; 1 ]
      && Modlog.lanes store = Modlog.lanes_scratch store

let prop_store_invariants =
  QCheck.Test.make ~name:"RA/SRA store invariants along executions"
    ~count:300 arb_case (fun ((ops0, ops1), (sched, sra)) ->
      let cfg0 = make_cfg (ops0, ops1) sra in
      let ok = ref (store_consistent sra cfg0) in
      let cfg = ref cfg0 in
      List.iter
        (fun e ->
          let before = !cfg in
          let _, cfg' = Exec.exec_elt before (clamp before e) in
          cfg := cfg';
          let store' = Config.store_exn cfg' in
          ok := !ok && store_consistent sra cfg';
          (* views are monotone: each process's view after the step
             dominates its view before, in the grown store *)
          ok :=
            !ok
            && List.for_all
                 (fun p ->
                   Modlog.view_leq store'
                     (Config.pstate before p).Config.view
                     (Config.pstate cfg' p).Config.view)
                 [ 0; 1 ])
        sched;
      !ok)

(* Under SRA every write lands strictly above the location's previous
   maximum: the log maximum's id strictly increases whenever a
   location's log grows. *)
let prop_sra_writes_exceed_max =
  QCheck.Test.make ~name:"SRA writes strictly exceed the location max"
    ~count:300
    QCheck.(pair (pair arb_ops arb_ops) arb_sched)
    (fun ((ops0, ops1), sched) ->
      let cfg0 = make_cfg (ops0, ops1) true in
      let ok = ref true in
      let cfg = ref cfg0 in
      List.iter
        (fun e ->
          let before = !cfg in
          let _, cfg' = Exec.exec_elt before (clamp before e) in
          cfg := cfg';
          let sb = Config.store_exn before and sa = Config.store_exn cfg' in
          List.iter
            (fun r ->
              if Modlog.nmsgs sa r > Modlog.nmsgs sb r then
                ok :=
                  !ok
                  && (Modlog.max_msg sa r).Modlog.mid
                     > (Modlog.max_msg sb r).Modlog.mid)
            all_regs)
        sched;
      !ok)

(* The incremental state machinery under the view backend: cached
   pstate/memory lanes and the xor-updated fingerprint agree with
   their from-scratch recomputations at every reachable state (the
   invariant the parallel checker's dedup rests on). *)
let lanes_consistent cfg =
  Statekey.mem_lanes cfg = Statekey.mem_lanes_scratch cfg
  && List.for_all
       (fun p ->
         let st = Config.pstate cfg p in
         Statekey.proc_lanes st = Statekey.proc_lanes_scratch st)
       [ 0; 1 ]

let prop_incremental_keys =
  QCheck.Test.make ~name:"view backend: incremental fingerprint = of_config"
    ~count:300 arb_case (fun ((ops0, ops1), (sched, sra)) ->
      let cfg0 = make_cfg (ops0, ops1) sra in
      let ok = ref (lanes_consistent cfg0) in
      let cfg = ref cfg0 and fp = ref (Mc.Fingerprint.of_config cfg0) in
      let check () = Mc.Fingerprint.equal !fp (Mc.Fingerprint.of_config !cfg) in
      List.iter
        (fun e ->
          let _, cfgn, dirtied = Exec.flush_labels_d !cfg in
          fp :=
            List.fold_left
              (fun fp p ->
                Mc.Fingerprint.update fp ~before:!cfg ~after:cfgn
                  { Exec.proc = Some p; mem = false })
              !fp dirtied;
          cfg := cfgn;
          ok := !ok && check ();
          let e = clamp !cfg e in
          let _, cfg', d = Exec.exec_elt_d !cfg e in
          fp := Mc.Fingerprint.update !fp ~before:!cfg ~after:cfg' d;
          cfg := cfg';
          ok := !ok && lanes_consistent cfg' && check ())
        sched;
      !ok)

(* ------------------------------------------------------------------ *)
(* Model plumbing and reduction guards.                                *)
(* ------------------------------------------------------------------ *)

let model_t = Alcotest.testable Memory_model.pp ( = )

let model_round_trip () =
  List.iter
    (fun m ->
      let s = Memory_model.to_string m in
      Alcotest.(check (option model_t))
        (Fmt.str "of_string (to_string %s)" s)
        (Some m)
        (Memory_model.of_string s);
      Alcotest.(check (option model_t))
        (Fmt.str "of_string %s (lowercase)" (String.lowercase_ascii s))
        (Some m)
        (Memory_model.of_string (String.lowercase_ascii s)))
    Memory_model.all;
  Alcotest.(check (option model_t))
    "of_string rejects junk" None
    (Memory_model.of_string "release-consistency");
  Alcotest.(check bool) "RA listed" true
    (List.mem Memory_model.Ra Memory_model.all);
  Alcotest.(check bool) "SRA listed" true
    (List.mem Memory_model.Sra Memory_model.all);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Fmt.str "%a: view-based and buffered are exclusive" Memory_model.pp m)
        true
        (not (Memory_model.view_based m && Memory_model.buffered m)))
    Memory_model.all

let check_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* Write-buffer-specific reductions are rejected, not silently
   misapplied: the reorder bound meters buffer occupancy, which does
   not exist under the view backend. *)
let reductions_rejected () =
  let cfg model =
    snd (Litmus.Test.configure Litmus.Cases.sb ~model)
  in
  check_invalid "default engine --reorder-bound under RA" (fun () ->
      Mc.run_plain ~reorder_bound:1 (cfg Memory_model.Ra));
  check_invalid "parallel --reorder-bound under SRA" (fun () ->
      Mc.run_plain ~engine:(`Parallel 1) ~reorder_bound:1
        (cfg Memory_model.Sra));
  check_invalid "deepen under SRA" (fun () ->
      Mc.deepen
        ~monitor:(fun m _ -> Ok m)
        ~init:() (cfg Memory_model.Sra));
  check_invalid "buffer_write under RA" (fun () ->
      Memory_model.buffer_write Memory_model.Ra Wbuf.empty 0 1)

let suite =
  ( "ra",
    [
      Alcotest.test_case "differential litmus matrix (5 models)" `Quick
        differential_matrix;
      Alcotest.test_case "matrix separates every adjacent model pair" `Quick
        matrix_separates_all_models;
      Alcotest.test_case "exact outcome sets under RA/SRA" `Quick
        exact_outcome_sets;
      Alcotest.test_case "outcome sets nest: SC ⊆ SRA ⊆ RA" `Quick
        outcome_sets_nest;
      Alcotest.test_case "2+2W counterexample replays verbatim" `Quick
        counterexample_replay;
      Alcotest.test_case "model strings round-trip" `Quick model_round_trip;
      Alcotest.test_case "write-buffer reductions rejected" `Quick
        reductions_rejected;
      QCheck_alcotest.to_alcotest prop_store_invariants;
      QCheck_alcotest.to_alcotest prop_sra_writes_exceed_max;
      QCheck_alcotest.to_alcotest prop_incremental_keys;
    ] )
