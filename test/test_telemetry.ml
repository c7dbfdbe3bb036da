(* Telemetry: padded cells, hub registry, NDJSON sink shape, and the
   engine-side counter contract (deterministic at j=1, per-worker
   totals summing to the verdict, no observable effect when unread). *)

open Memsim

let cells_pad_and_total () =
  let c = Telemetry.Cells.create ~workers:4 in
  Alcotest.(check int) "workers" 4 (Telemetry.Cells.workers c);
  Telemetry.Cells.incr c ~worker:0;
  Telemetry.Cells.add c ~worker:2 41;
  Telemetry.Cells.incr c ~worker:2;
  Telemetry.Cells.add c ~worker:3 (-2);
  Alcotest.(check int) "slot 0" 1 (Telemetry.Cells.get c ~worker:0);
  Alcotest.(check int) "slot 1 untouched" 0 (Telemetry.Cells.get c ~worker:1);
  Alcotest.(check int) "slot 2" 42 (Telemetry.Cells.get c ~worker:2);
  Alcotest.(check int) "total" 41 (Telemetry.Cells.total c);
  Alcotest.(check (array int)) "per_worker" [| 1; 0; 42; -2 |]
    (Telemetry.Cells.per_worker c)

let hub_registry () =
  let h = Telemetry.Hub.create ~workers:2 () in
  let a = Telemetry.Hub.counter h "a" in
  let a' = Telemetry.Hub.counter h "a" in
  Alcotest.(check bool) "counter registration is idempotent" true (a == a');
  Telemetry.Cells.add a ~worker:1 7;
  Telemetry.Hub.gauge h "g" (fun () -> 2.5);
  let b = Telemetry.Hub.counter h "b" in
  Telemetry.Cells.incr b ~worker:0;
  Alcotest.(check (option int)) "read_int counter" (Some 7)
    (Telemetry.Hub.read_int h "a");
  Alcotest.(check (option int)) "read_int gauge rounds" (Some 2)
    (Telemetry.Hub.read_int h "g");
  Alcotest.(check (option int)) "read_int missing" None
    (Telemetry.Hub.read_int h "nope");
  Alcotest.(check (list (pair string int)))
    "counter_fields: counters only, registration order"
    [ ("a", 7); ("b", 1) ]
    (Telemetry.Hub.counter_fields h);
  Alcotest.(check (list (pair string (float 1e-9))))
    "snapshot: everything, registration order"
    [ ("a", 7.); ("g", 2.5); ("b", 1.) ]
    (Telemetry.Hub.snapshot h)

let check_bakery ?tel ~engine () =
  let factory = Option.get (Locks.Registry.find "bakery") in
  Verify.Mutex_check.check ?tel ~engine ~model:Memory_model.Pso factory
    ~nprocs:2

(* The j=1 counter totals are a pure function of the workload: two
   identical runs must produce byte-identical counter_fields. *)
let counters_deterministic_at_j1 () =
  let run () =
    let tel = Telemetry.Hub.create ~workers:1 () in
    let v = check_bakery ~tel ~engine:(`Parallel 1) () in
    (v, Telemetry.Hub.counter_fields tel)
  in
  let v1, f1 = run () and v2, f2 = run () in
  Alcotest.(check bool) "clean run" false
    v1.Verify.Mutex_check.stats.Explore.truncated;
  Alcotest.(check (list (pair string int))) "identical counter_fields" f1 f2;
  Alcotest.(check int) "expansions = states"
    v1.Verify.Mutex_check.stats.Explore.states
    (List.assoc "expansions" f1);
  Alcotest.(check int) "children = transitions"
    v1.Verify.Mutex_check.stats.Explore.transitions
    (List.assoc "children" f1);
  Alcotest.(check int) "dedup_hits = transitions - (states - 1)"
    (v2.Verify.Mutex_check.stats.Explore.transitions
    - (v2.Verify.Mutex_check.stats.Explore.states - 1))
    (List.assoc "dedup_hits" f1)

(* At j=4 the per-run totals are schedule-dependent per worker, but
   their sums must still reconcile exactly with the verdict on a clean
   (untruncated) run: every claimed state was expanded by exactly one
   worker, every generated edge counted once. *)
let per_worker_sums_reconcile_at_j4 () =
  let tel = Telemetry.Hub.create ~workers:4 () in
  let v = check_bakery ~tel ~engine:(`Parallel 4) () in
  Alcotest.(check bool) "clean run" false
    v.Verify.Mutex_check.stats.Explore.truncated;
  let expansions = Telemetry.Hub.counter tel "expansions" in
  Alcotest.(check int) "4 worker slots" 4
    (Telemetry.Cells.workers expansions);
  let sum = Array.fold_left ( + ) 0 (Telemetry.Cells.per_worker expansions) in
  Alcotest.(check int) "per-worker expansions sum = verdict states"
    v.Verify.Mutex_check.stats.Explore.states sum;
  Alcotest.(check (option int)) "children total = verdict transitions"
    (Some v.Verify.Mutex_check.stats.Explore.transitions)
    (Telemetry.Hub.read_int tel "children");
  Alcotest.(check (option int)) "gauge states agrees after quiescence"
    (Some v.Verify.Mutex_check.stats.Explore.states)
    (Telemetry.Hub.read_int tel "states")

(* The engine's counters agree with the exact-key reference explorer,
   which keeps no telemetry of its own: one expansion per state it
   claims, one child per transition it takes. *)
let counters_match_reference () =
  let tel = Telemetry.Hub.create ~workers:1 () in
  ignore (check_bakery ~tel ~engine:(`Parallel 1) ());
  let _, _, cfg =
    Verify.Mutex_check.workload ~model:Memory_model.Pso
      (Option.get (Locks.Registry.find "bakery"))
      ~nprocs:2 ~rounds:1
  in
  let r =
    Explore.reference ~monitor:Verify.Mutex_check.cs_monitor
      ~init:Pid.Set.empty cfg
  in
  let f = Telemetry.Hub.counter_fields tel in
  Alcotest.(check int) "expansions = reference states"
    r.Explore.stats.Explore.states
    (List.assoc "expansions" f);
  Alcotest.(check int) "children = reference transitions"
    r.Explore.stats.Explore.transitions
    (List.assoc "children" f)

(* Telemetry off is the default: not passing a hub must not change any
   observable result (bumps land on a private, unread hub). *)
let disabled_hub_is_a_noop () =
  List.iter
    (fun engine ->
      let tel = Telemetry.Hub.create ~workers:2 () in
      let v_with = check_bakery ~tel ~engine () in
      let v_without = check_bakery ~engine () in
      Alcotest.(check bool) "same holds"
        v_without.Verify.Mutex_check.holds v_with.Verify.Mutex_check.holds;
      Alcotest.(check int) "same states"
        v_without.Verify.Mutex_check.stats.Explore.states
        v_with.Verify.Mutex_check.stats.Explore.states;
      Alcotest.(check int) "same transitions"
        v_without.Verify.Mutex_check.stats.Explore.transitions
        v_with.Verify.Mutex_check.stats.Explore.transitions)
    [ `Parallel 1; `Parallel 2 ]

(* --- NDJSON golden shape ------------------------------------------ *)

(* Minimal validator for the sink's output contract: one flat JSON
   object per line, string keys, scalar values (number, string, bool,
   null), no raw control characters. Returns the keys in order. *)
let parse_flat_json line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg =
    Alcotest.failf "bad NDJSON (%s) at byte %d in: %s" msg !pos line
  in
  let next () =
    if !pos >= n then fail "unexpected end";
    let c = line.[!pos] in
    incr pos;
    c
  in
  let peek () = if !pos >= n then fail "unexpected end" else line.[!pos] in
  let expect c =
    let g = next () in
    if g <> c then fail (Fmt.str "expected %C, got %C" c g)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> ()
          | 'u' ->
              for _ = 1 to 4 do
                match next () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape");
          Buffer.add_char b '_';
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let scalar () =
    match peek () with
    | '"' -> ignore (string_lit ())
    | 't' | 'f' | 'n' ->
        (* true / false / null *)
        while !pos < n && (match line.[!pos] with 'a' .. 'z' -> true | _ -> false) do
          incr pos
        done
    | '-' | '0' .. '9' ->
        while
          !pos < n
          && match line.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done
    | c -> fail (Fmt.str "scalar cannot start with %C" c)
  in
  expect '{';
  let keys = ref [] in
  let rec members () =
    keys := string_lit () :: !keys;
    expect ':';
    scalar ();
    match next () with
    | ',' -> members ()
    | '}' -> ()
    | c -> fail (Fmt.str "expected , or }, got %C" c)
  in
  members ();
  if !pos <> n then fail "trailing bytes";
  List.rev !keys

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let with_temp_file f =
  let path = Filename.temp_file "fencelab_tel" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Exact bytes of a run record: escaping, float edge cases, duplicate
   keys (first wins) and the protected "type" field. *)
let sink_golden_record () =
  with_temp_file @@ fun path ->
  let s = Telemetry.Sink.create path in
  Telemetry.Sink.emit s ~kind:"run"
    Telemetry.Sink.
      [
        ("s", S "a\"b\nc\\");
        ("i", I 3);
        ("f", F 1.5);
        ("whole", F 7.0);
        ("nan", F Float.nan);
        ("inf", F Float.infinity);
        ("b", B true);
        ("type", S "spoof");
        ("i", I 9);
      ];
  Telemetry.Sink.close s;
  Telemetry.Sink.emit s ~kind:"run" [ ("late", Telemetry.Sink.I 1) ];
  match read_lines path with
  | [ line ] ->
      Alcotest.(check string) "golden record"
        {|{"type":"run","s":"a\"b\nc\\","i":3,"f":1.5,"whole":7,"nan":null,"inf":null,"b":true}|}
        line
  | lines -> Alcotest.failf "expected exactly 1 line, got %d" (List.length lines)

(* End-to-end: sampler + sink over a live hub produces parseable NDJSON
   with the documented schema — every line a flat object with "type",
   samples carrying "t_s"/"final" plus every hub entry, and the file
   ending in exactly one final sample. *)
let sampler_ndjson_shape () =
  with_temp_file @@ fun path ->
  let hub = Telemetry.Hub.create ~workers:1 () in
  let c = Telemetry.Hub.counter hub "states" in
  Telemetry.Hub.gauge hub "frontier" (fun () -> 4.2);
  let sink = Telemetry.Sink.create path in
  let sampler =
    Telemetry.Sampler.start ~hub ~interval:0.02 ~label:"test" ~sink ()
  in
  for _ = 1 to 5 do
    Telemetry.Cells.add c ~worker:0 100;
    Unix.sleepf 0.02
  done;
  Telemetry.Sampler.stop sampler;
  Telemetry.Sink.close sink;
  let lines = read_lines path in
  Alcotest.(check bool) "at least 2 samples" true (List.length lines >= 2);
  List.iter
    (fun line ->
      let keys = parse_flat_json line in
      Alcotest.(check (list string)) "sample schema, in order"
        [ "type"; "t_s"; "final"; "states"; "frontier" ]
        keys;
      Alcotest.(check bool) "keys unique" true
        (List.length (List.sort_uniq compare keys) = List.length keys))
    lines;
  let finals =
    List.filter
      (fun l ->
        let re = {|"final":true|} in
        let rec contains i =
          i + String.length re <= String.length l
          && (String.sub l i (String.length re) = re || contains (i + 1))
        in
        contains 0)
      lines
  in
  Alcotest.(check int) "exactly one final sample, flushed by stop" 1
    (List.length finals);
  Alcotest.(check bool) "final sample is the last line" true
    (List.nth lines (List.length lines - 1) = List.hd finals);
  (* the engine's vocabulary: counters, then its live gauges *)
  with_temp_file @@ fun path ->
  let tel = Telemetry.Hub.create ~workers:1 () in
  let sink = Telemetry.Sink.create path in
  let sampler =
    Telemetry.Sampler.start ~hub:tel ~interval:0.02 ~label:"test" ~sink ()
  in
  ignore (check_bakery ~tel ~engine:(`Parallel 1) ());
  Telemetry.Sampler.stop sampler;
  Telemetry.Sink.close sink;
  let lines = read_lines path in
  Alcotest.(check (list string)) "engine sample schema, in order"
    [
      "type"; "t_s"; "final"; "expansions"; "children"; "dedup_hits";
      "por_prunes"; "bound_hits"; "steals"; "sleeps"; "sleep_ns"; "states";
      "transitions"; "frontier"; "visited"; "visited_skew"; "visited_bytes";
    ]
    (parse_flat_json (List.nth lines (List.length lines - 1)));
  Alcotest.(check bool) "visited_bytes gauge is live" true
    (Option.get (Telemetry.Hub.read tel "visited_bytes") > 0.)

(* The CLI end to end on a capped check: the human line and the NDJSON
   run record both give the honest partial verdict, and the run still
   exits 0 (no violation was found); the same check uncapped keeps its
   plain OK and a record with no verdict field. *)
let cli_truncated_check () =
  let exe =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
      (Filename.concat "bin" "fencelab_cli.exe")
  in
  let stats = Filename.temp_file "cli_truncated" ".ndjson" in
  let run args =
    let ic =
      Unix.open_process_args_in exe
        (Array.of_list ((exe :: "check" :: args) @ [ "--stats-out"; stats ]))
    in
    let out = In_channel.input_all ic in
    (out, Unix.close_process_in ic)
  in
  let read_run_record () =
    In_channel.with_open_text stats In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l ->
           String.length l > 14 && String.sub l 0 14 = {|{"type":"run",|})
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let out, status =
    run [ "bakery"; "-m"; "PSO"; "-n"; "3"; "--max-states"; "1000" ]
  in
  Alcotest.(check bool) "capped: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) ("capped: subset verdict: " ^ out) true
    (contains out ": NO VIOLATION FOUND (truncated subset) (1000 states, truncated)");
  Alcotest.(check bool) "capped: never OK" false (contains out ": OK");
  let record = read_run_record () in
  Alcotest.(check bool) ("capped record: " ^ record) true
    (contains record {|"holds":false,"states":1000,|}
    && contains record {|"verdict":"NO VIOLATION FOUND (truncated subset)"|});
  let out, status = run [ "peterson"; "-m"; "PSO"; "-n"; "2" ] in
  Alcotest.(check bool) "complete: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) ("complete: OK: " ^ out) true
    (contains out ": OK (973 states)");
  let record = read_run_record () in
  Alcotest.(check bool) ("complete record: " ^ record) true
    (contains record {|"holds":true,|} && not (contains record {|"verdict"|}));
  Sys.remove stats

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "cells: padded slots, totals" `Quick
        cells_pad_and_total;
      Alcotest.test_case "hub: idempotent registry, snapshot order" `Quick
        hub_registry;
      Alcotest.test_case "engine counters deterministic at j=1" `Quick
        counters_deterministic_at_j1;
      Alcotest.test_case "per-worker sums reconcile with verdict at j=4"
        `Quick per_worker_sums_reconcile_at_j4;
      Alcotest.test_case "counters match the reference explorer" `Quick
        counters_match_reference;
      Alcotest.test_case "unread hub changes nothing" `Quick
        disabled_hub_is_a_noop;
      Alcotest.test_case "sink: golden record bytes" `Quick sink_golden_record;
      Alcotest.test_case "sampler: NDJSON schema end to end" `Quick
        sampler_ndjson_shape;
      Alcotest.test_case "cli: a truncated check is a partial verdict" `Quick
        cli_truncated_check;
    ] )
