(* The compiled execution layer: flat-IR encode/decode round-trips,
   probe-validated flattening (what compiles, what honestly falls
   back), flat fence masking, the post-label forcing-count pin, and
   the compiled-vs-closure parity suite over generated programs —
   outcome sets, state counts and transition counts must be identical
   at every model x engine combination. *)

open Memsim
module P = Program

(* ------------------------------------------------------------------ *)
(* Instr: encode/decode                                                *)
(* ------------------------------------------------------------------ *)

let instr_roundtrip () =
  let b = Instr.create () in
  Instr.emit_read b 3;
  Instr.emit_write b 1 42;
  Instr.emit_fence b;
  Instr.emit_cas b 2 ~expect:5 ~update:7;
  Instr.emit_swap b 0 9;
  Instr.emit_faa b 4 ~add:2;
  Instr.emit_spin b 1;
  Instr.emit_label b "here";
  Instr.emit_ret b;
  let code = Instr.finish b in
  let fr = Instr.frame code in
  Alcotest.(check int) "read op" Instr.t_read (Instr.opcode fr);
  Alcotest.(check int) "read reg" 3 (Instr.arg_a fr);
  let fr = Instr.advance_obs fr 5 in
  Alcotest.(check int) "acc packs the observation" 5 fr.Instr.acc;
  Alcotest.(check int) "write op" Instr.t_write (Instr.opcode fr);
  Alcotest.(check int) "write reg" 1 (Instr.arg_a fr);
  Alcotest.(check int) "write value" 42 (Instr.arg_b fr);
  let fr = Instr.advance fr in
  Alcotest.(check int) "fence op" Instr.t_fence (Instr.opcode fr);
  let fr = Instr.advance fr in
  Alcotest.(check int) "cas op" Instr.t_cas (Instr.opcode fr);
  Alcotest.(check int) "cas reg" 2 (Instr.arg_a fr);
  Alcotest.(check int) "cas expect" 5 (Instr.arg_b fr);
  Alcotest.(check int) "cas update" 7 (Instr.arg_c fr);
  let fr = Instr.advance_obs fr 1 in
  Alcotest.(check int) "acc packs the cas outcome" ((5 * 64) + 1) fr.Instr.acc;
  Alcotest.(check int) "swap op" Instr.t_swap (Instr.opcode fr);
  let fr = Instr.advance_obs fr 3 in
  Alcotest.(check int) "faa op" Instr.t_faa (Instr.opcode fr);
  Alcotest.(check int) "faa addend" 2 (Instr.arg_b fr);
  let fr = Instr.advance_obs fr 0 in
  Alcotest.(check int) "spin op" Instr.t_spin (Instr.opcode fr);
  let fr = Instr.advance_obs fr 2 in
  Alcotest.(check int) "label op" Instr.t_label (Instr.opcode fr);
  Alcotest.(check string) "label text" "here" (Instr.label_text fr);
  let fr = Instr.advance fr in
  Alcotest.(check int) "ret op" Instr.t_ret (Instr.opcode fr);
  Alcotest.(check int) "acc-mode ret returns the packed log"
    (Instr.pack (Instr.pack (Instr.pack (Instr.pack 5 1) 3) 0) 2)
    (Instr.ret_value fr)

let ret_const () =
  let b = Instr.create () in
  Instr.emit_read b 0;
  Instr.emit_ret_const b 77;
  let code = Instr.finish b in
  let fr = Instr.advance_obs (Instr.frame code) 9 in
  Alcotest.(check int) "const-mode ret ignores the log" 77
    (Instr.ret_value fr);
  let b = Instr.create () in
  Instr.emit_read b 0;
  Instr.emit_ret b;
  let code = Instr.finish b in
  let fr = Instr.advance_obs (Instr.frame code) 9 in
  Alcotest.(check int) "acc-mode ret returns the log" 9 (Instr.ret_value fr)

let jmp_resolution () =
  (* 0: jmp 2, 1: jmp 3, 2: jmp 1, 3: ret — resolution short-circuits
     the whole chain, and the entry frame starts past it *)
  let b = Instr.create () in
  let j0 = Instr.here b in
  Instr.emit_jmp b 0;
  let j1 = Instr.here b in
  Instr.emit_jmp b 0;
  Instr.emit_jmp b j1;
  Instr.emit_ret b;
  Instr.patch_jmp b j0 2;
  Instr.patch_jmp b j1 3;
  let code = Instr.finish b in
  Alcotest.(check int) "resolve short-circuits the chain" 3
    (Instr.resolve code 0);
  Alcotest.(check int) "entry frame lands on the ret" 3
    (Instr.frame code).Instr.pc

let operand_overflow () =
  let b = Instr.create () in
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "oversized write value rejected" true
    (raises (fun () -> Instr.emit_write b 0 (1 lsl 21)));
  Alcotest.(check bool) "oversized register rejected" true
    (raises (fun () -> Instr.emit_read b (1 lsl 21)));
  Alcotest.(check bool) "oversized cas update rejected" true
    (raises (fun () -> Instr.emit_cas b 0 ~expect:0 ~update:(1 lsl 20)))

let pack_compat () =
  (* byte-compatible with Fuzz.Gen's packing *)
  let gen_pack acc v = (acc * 64) + (v land 63) in
  List.iter
    (fun (acc, v) ->
      Alcotest.(check int)
        (Fmt.str "pack %d %d" acc v)
        (gen_pack acc v) (Instr.pack acc v))
    [ (0, 0); (0, 5); (5, 63); (1, 64); (7, -1); (123, 17) ]

(* ------------------------------------------------------------------ *)
(* Flattening: what compiles, what falls back                          *)
(* ------------------------------------------------------------------ *)

let is_flat = function Some (P.Flat _) -> true | _ -> false

let flatten_straight_line () =
  let ( let* ) = P.( let* ) in
  let prog =
    P.run
      (let* () = P.write 0 1 in
       let* _ = P.read 1 in
       let* () = P.fence in
       let* ok = P.cas 0 ~expect:1 ~update:2 in
       ignore ok;
       let* () = P.label "l" in
       P.return 7)
  in
  Alcotest.(check bool) "constant-return straight line flattens" true
    (is_flat (Compile.flatten prog))

let flatten_rejects_value_dependence () =
  let ( let* ) = P.( let* ) in
  let computed_write =
    P.run
      (let* v = P.read 0 in
       let* () = P.write 1 (v + 1) in
       P.return 0)
  in
  Alcotest.(check bool) "computed write immediate falls back" true
    (Compile.flatten computed_write = None);
  let branching =
    P.run
      (let* v = P.read 0 in
       if v = 0 then P.return 0
       else
         let* () = P.write 1 1 in
         P.return 1)
  in
  Alcotest.(check bool) "value-dependent shape falls back" true
    (Compile.flatten branching = None);
  (* read >>= ret coincides with the packed log on every small probe
     value but returns the raw value at runtime: flatten must not
     claim the acc-mode return for it (the soundness pin — values
     >= 64 would diverge under a 6-bit packed log) *)
  let observation_return =
    P.run
      (let* v = P.read 0 in
       P.return v)
  in
  Alcotest.(check bool) "observation-dependent return falls back" true
    (Compile.flatten observation_return = None);
  let data_spin =
    P.run
      (let* v = P.await 0 (fun v -> v = 1) in
       ignore v;
       P.return 0)
  in
  Alcotest.(check bool) "data-dependent spin falls back" true
    (Compile.flatten data_spin = None)

let flatten_is_semantics_invisible () =
  (* same test, compiled and raw: identical outcome sets and counts *)
  let test nregs progs : Litmus.Test.t =
    {
      Litmus.Test.name = "flatten-parity";
      description = "";
      nregs;
      programs = (fun regs -> progs regs);
      observed = (fun regs -> Array.to_list regs);
    }
  in
  let ( let* ) = P.( let* ) in
  let t =
    test 2 (fun r ->
        [|
          P.run
            (let* () = P.write r.(0) 1 in
             let* () = P.fence in
             let* _ = P.read r.(1) in
             P.return 0);
          P.run
            (let* () = P.write r.(1) 2 in
             let* ok = P.cas r.(0) ~expect:1 ~update:3 in
             ignore ok;
             P.return 1);
        |])
  in
  List.iter
    (fun model ->
      let a = Litmus.Test.run ~compile:true t ~model in
      let b = Litmus.Test.run ~compile:false t ~model in
      Alcotest.(check bool)
        (Fmt.str "outcomes agree under %a" Memory_model.pp model)
        true
        (a.Litmus.Test.outcomes = b.Litmus.Test.outcomes);
      Alcotest.(check int)
        (Fmt.str "states agree under %a" Memory_model.pp model)
        b.Litmus.Test.stats.Explore.states a.Litmus.Test.stats.Explore.states;
      Alcotest.(check int)
        (Fmt.str "transitions agree under %a" Memory_model.pp model)
        b.Litmus.Test.stats.Explore.transitions
        a.Litmus.Test.stats.Explore.transitions)
    Memory_model.all

let lock_fallback_agrees () =
  (* bakery's computed writes and data spins reject flattening; the
     verdict and the exploration counts must not care *)
  let factory = Option.get (Locks.Registry.find "bakery") in
  let check compile =
    Verify.Mutex_check.check ~compile ~rounds:1 ~model:Memory_model.Tso
      factory ~nprocs:2
  in
  let a = check true and b = check false in
  Alcotest.(check bool) "verdict agrees" b.Verify.Mutex_check.holds
    a.Verify.Mutex_check.holds;
  Alcotest.(check int) "states agree" b.Verify.Mutex_check.stats.Explore.states
    a.Verify.Mutex_check.stats.Explore.states;
  Alcotest.(check int) "transitions agree"
    b.Verify.Mutex_check.stats.Explore.transitions
    a.Verify.Mutex_check.stats.Explore.transitions

(* ------------------------------------------------------------------ *)
(* Fence masking on flat code                                          *)
(* ------------------------------------------------------------------ *)

let flat_mask_stays_flat () =
  let prog =
    {
      Fuzz.Gen.seed = 0;
      params = Fuzz.Gen.default_params;
      nregs = 2;
      procs =
        [|
          [ Fuzz.Gen.Write (0, 1); Fuzz.Gen.Fence; Fuzz.Gen.Read 1 ];
          [ Fuzz.Gen.Write (1, 1); Fuzz.Gen.Fence; Fuzz.Gen.Read 0 ];
        |];
    }
  in
  let test = Fuzz.Gen.compile prog in
  let masked = Litmus.Test.with_fence_mask ~keep:(fun i -> i = 0) test in
  let regs = Array.init test.Litmus.Test.nregs Fun.id in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "masked process is still flat code" true
        (match (p : P.t) with P.Flat _ -> true | _ -> false))
    (masked.Litmus.Test.programs regs);
  (* dropping a fence re-opens the weak outcome on the unfenced side;
     the full mask is extensionally the identity *)
  let run t model = (Litmus.Test.run t ~model).Litmus.Test.outcomes in
  let full = Litmus.Test.with_fence_mask ~keep:(fun _ -> true) test in
  Alcotest.(check bool) "full mask is the identity" true
    (run full Memory_model.Tso = run test Memory_model.Tso);
  let none = Litmus.Test.with_fence_mask ~keep:(fun _ -> false) test in
  Alcotest.(check bool) "empty mask equals the stripped program" true
    (run none Memory_model.Tso
    = run (Fuzz.Gen.compile (Fuzz.Gen.strip_fences prog)) Memory_model.Tso)

let flat_mask_markers_agree () =
  (* marker labels from the flat rebuild = marker labels from the lazy
     tree walk, site for site, on a replayed sequential trace *)
  let prog =
    {
      Fuzz.Gen.seed = 0;
      params = Fuzz.Gen.default_params;
      nregs = 1;
      procs = [| [ Fuzz.Gen.Write (0, 1); Fuzz.Gen.Fence; Fuzz.Gen.Write (0, 2); Fuzz.Gen.Fence ] |];
    }
  in
  let marker i = Fmt.str "site:%d" i in
  let notes ~flat =
    let test = Fuzz.Gen.compile ~flat prog in
    let masked =
      Litmus.Test.with_fence_mask ~marker ~keep:(fun i -> i = 1) test
    in
    let _regs, cfg =
      Litmus.Test.configure masked ~model:Memory_model.Sc
    in
    let trace, _ = Scheduler.sequential cfg in
    List.filter_map
      (function Step.Note { text; _ } -> Some text | _ -> None)
      (Trace.steps trace)
  in
  Alcotest.(check (list string)) "marker notes agree flat vs tree"
    (notes ~flat:false) (notes ~flat:true)

(* ------------------------------------------------------------------ *)
(* Post-label caching: forcing-count pin                               *)
(* ------------------------------------------------------------------ *)

let label_forced_once () =
  (* a label continuation that counts its forcings: the cached
     post-label program ([pstate.skipped]) pins the count at exactly
     two per state that steps through the label — once to cache the
     post-label program at pstate construction, once in the
     Note-emitting flush — no matter how many times exploration
     queries the state (blocked checks, kind dispatch, keying), where
     the uncached interpreter re-forced it per query.
     [compile:false] keeps the deliberately impure closure out of the
     flattener's probe passes. *)
  let forced = ref 0 in
  let t =
    {
      Litmus.Test.name = "label-force-count";
      description = "";
      nregs = 1;
      programs =
        (fun r ->
          [|
            P.Write
              ( r.(0),
                1,
                fun () ->
                  P.Label
                    ( "count",
                      fun () ->
                        incr forced;
                        P.Read (r.(0), fun _ -> P.Ret 0) ) );
          |]);
      observed = (fun _ -> []);
    }
  in
  let r = Litmus.Test.run ~compile:false t ~model:Memory_model.Sc in
  Alcotest.(check int) "single completed run" 1
    (List.length r.Litmus.Test.outcomes);
  Alcotest.(check int) "label continuation forced exactly twice" 2 !forced

(* ------------------------------------------------------------------ *)
(* Parity: compiled vs closure over generated programs                 *)
(* ------------------------------------------------------------------ *)

(* [`Reference] is the exact-key Explore.reference explorer *)
let run_config ~flat ~compile ~engine ~por seed params model =
  let test = Fuzz.Gen.compile ~flat (Fuzz.Gen.generate ~seed params) in
  let outcomes, (stats : Explore.stats) =
    match engine with
    | `Reference ->
        let regs, cfg = Litmus.Test.configure ~compile test ~model in
        let outcomes, r =
          Explore.reference_outcomes ~observe:(Litmus.Test.observe test regs)
            cfg
        in
        (outcomes, r.Explore.stats)
    | `Parallel _ as engine ->
        let r = Litmus.Test.run ~compile ~engine ~por test ~model in
        (r.Litmus.Test.outcomes, r.Litmus.Test.stats)
  in
  (outcomes, stats.Explore.states, stats.Explore.transitions)

let engines =
  [ (`Reference, false); (`Parallel 1, false); (`Parallel 1, true) ]

let engine_name (e, por) =
  match e with
  | `Reference -> "reference"
  | `Parallel j -> Fmt.str "mc j=%d%s" j (if por then "+por" else "")

(* Every model x engine: the fully compiled build (constructive flat
   emission + compiled configuration) and the raw closure build
   (closure tree, compilation off) must produce identical outcome
   sets, visit the same number of states and take the same number of
   transitions — the compiled layer is semantics- and
   metrics-invisible. *)
let prop_parity =
  QCheck.Test.make ~name:"compiled = closure at every model x engine"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Fuzz.Gen.default_params with len = 4 } in
      List.for_all
        (fun model ->
          List.for_all
            (fun ((engine, por) as e) ->
              let a =
                run_config ~flat:true ~compile:true ~engine ~por seed params
                  model
              and b =
                run_config ~flat:false ~compile:false ~engine ~por seed params
                  model
              in
              let _, sa, _ = a and _, sb, _ = b in
              if a <> b then
                QCheck.Test.fail_reportf
                  "seed %d diverges under %a / %s: compiled %d states, \
                   closure %d states"
                  seed Memory_model.pp model (engine_name e) sa sb
              else true)
            engines)
        Memory_model.all)

(* The mixed builds too: flat emission under compile:false (flat code
   passes through untouched) and the closure build under compile:true
   (flatten probes accept or share) — all four corners agree. *)
let prop_parity_corners =
  QCheck.Test.make ~name:"all four build x compile corners agree" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Fuzz.Gen.default_params with len = 4 } in
      List.for_all
        (fun model ->
          let reference =
            run_config ~flat:false ~compile:false ~engine:`Reference ~por:false seed
              params model
          in
          List.for_all
            (fun (flat, compile) ->
              run_config ~flat ~compile ~engine:`Reference ~por:false seed params
                model
              = reference)
            [ (true, true); (true, false); (false, true) ])
        [ Memory_model.Sc; Memory_model.Pso; Memory_model.Ra ])

let suite =
  ( "compile",
    [
      Alcotest.test_case "Instr encode/decode round-trips" `Quick
        instr_roundtrip;
      Alcotest.test_case "ret modes: packed log vs constant" `Quick ret_const;
      Alcotest.test_case "jmp resolution short-circuits chains" `Quick
        jmp_resolution;
      Alcotest.test_case "oversized operands are rejected" `Quick
        operand_overflow;
      Alcotest.test_case "packing matches the generator's" `Quick pack_compat;
      Alcotest.test_case "flatten accepts constant-return straight lines"
        `Quick flatten_straight_line;
      Alcotest.test_case "flatten rejects value dependence" `Quick
        flatten_rejects_value_dependence;
      Alcotest.test_case "flattening is semantics-invisible" `Quick
        flatten_is_semantics_invisible;
      Alcotest.test_case "lock fallback agrees with the closure path" `Quick
        lock_fallback_agrees;
      Alcotest.test_case "fence masking keeps flat code flat" `Quick
        flat_mask_stays_flat;
      Alcotest.test_case "flat mask markers agree with the tree walk" `Quick
        flat_mask_markers_agree;
      Alcotest.test_case "post-label forcing count is pinned" `Quick
        label_forced_once;
      QCheck_alcotest.to_alcotest prop_parity;
      QCheck_alcotest.to_alcotest prop_parity_corners;
    ] )
