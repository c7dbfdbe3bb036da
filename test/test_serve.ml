(* The serve daemon: wire-format golden bytes (job/ack/checkpoint),
   kill-mid-job resume equivalence, and pool backpressure.

   The resume test is the tentpole's acceptance pin: a check job
   killed after its first checkpoint and resumed from the file must
   finish with the same verdict and the EXACT same cumulative
   state/transition counts as an uninterrupted `Parallel 1 run — the
   checkpoint is a frontier-consistent cut and replay is
   deterministic, so resumed exploration is the uninterrupted
   exploration, not merely an equivalent one. *)

open Memsim

let tmpfile name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- JSON ---------------------------------------------------------- *)

let json_roundtrip () =
  let cases =
    [
      {|{"job":"check","id":"c1","nprocs":2}|};
      {|[1,-2,null,true,false,"a\"b\\c\nd"]|};
      {|{"nested":{"list":[{"x":1},{"y":[]}],"s":""},"f":1.5}|};
      {|  {  "ws" : [ 1 , 2 ] }  |};
    ]
  in
  List.iter
    (fun s ->
      match Serve.Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
          (* print/parse is the identity on the printed form *)
          let printed = Serve.Json.to_string v in
          match Serve.Json.parse printed with
          | Error e -> Alcotest.failf "reparse %s: %s" printed e
          | Ok v' ->
              Alcotest.(check string)
                (Fmt.str "roundtrip %s" s) printed
                (Serve.Json.to_string v')))
    cases;
  List.iter
    (fun s ->
      match Serve.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{} trailing"; "" ]

(* --- wire-format golden bytes -------------------------------------- *)

let job_golden () =
  let job =
    {
      Serve.Job.id = "c1";
      spec =
        Serve.Job.Check
          {
            lock = "bakery";
            model = Memory_model.Pso;
            nprocs = 2;
            rounds = 1;
            max_states = 1_000_000;
            por = false;
            reorder_bound = None;
          };
    }
  in
  Alcotest.(check string)
    "job record bytes"
    {|{"job":"check","id":"c1","lock":"bakery","model":"PSO","nprocs":2,"rounds":1,"max_states":1000000,"por":false,"reorder_bound":null}|}
    (Serve.Json.to_string (Serve.Job.to_json job));
  (* decoding round-trips, including from a spec with defaults elided *)
  (match Serve.Job.of_line (Serve.Json.to_string (Serve.Job.to_json job)) with
  | Ok j ->
      Alcotest.(check string)
        "roundtrip"
        (Serve.Json.to_string (Serve.Job.to_json job))
        (Serve.Json.to_string (Serve.Job.to_json j))
  | Error e -> Alcotest.fail e);
  (match Serve.Job.of_line {|{"job":"check","id":"x","lock":"ttas","model":"TSO","nprocs":3}|} with
  | Ok { Serve.Job.spec = Serve.Job.Check { rounds; max_states; _ }; _ } ->
      Alcotest.(check int) "default rounds" 1 rounds;
      Alcotest.(check int) "default max_states" 1_000_000 max_states
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.fail e);
  (* rejections name the problem *)
  List.iter
    (fun line ->
      match Serve.Job.of_line line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error _ -> ())
    [
      {|{"id":"x"}|};
      {|{"job":"mystery","id":"x"}|};
      {|{"job":"check","id":"x","lock":"bakery","model":"NOPE","nprocs":2}|};
      {|{"job":"check","id":"x","lock":"bakery","model":"PSO","nprocs":"two"}|};
      "not json at all";
    ]

let ack_golden () =
  let path = tmpfile "serve_ack_golden.ndjson" in
  let sink = Telemetry.Sink.create path in
  let job =
    {
      Serve.Job.id = "c1";
      spec =
        Serve.Job.Litmus { test = Some "SB"; model = None; reorder_bound = None };
    }
  in
  Telemetry.Sink.emit sink ~kind:"ack" (Serve.Job.ack_fields job);
  Telemetry.Sink.close sink;
  Alcotest.(check string)
    "ack record bytes"
    "{\"type\":\"ack\",\"job_id\":\"c1\",\"job\":\"litmus\"}\n"
    (read_file path);
  Sys.remove path

(* the identity library-level tests save under; jobs derive theirs from
   the canonical spec *)
let identity = Serve.Checkpoint.identity ~spec:"test"

let checkpoint_golden () =
  let keys = Bytes.create Mc.Fingerprint.bytes in
  Mc.Fingerprint.write keys 0 { Mc.Fingerprint.a = 17; b = -4 };
  let ck =
    {
      Mc.ck_states = 7;
      ck_transitions = 12;
      ck_bound_hits = 0;
      ck_pending = [ [ (0, None); (1, Some 3) ]; [] ];
      ck_keys = keys;
      ck_violations = [ ("overlap", [ (1, None) ]) ];
      ck_deadlocks = [ [ (0, Some 2) ] ];
    }
  in
  let head =
    Serve.Json.to_string (Serve.Checkpoint.head_to_json ~identity ~keys:1 ck)
  in
  Alcotest.(check string)
    "checkpoint head bytes"
    {|{"type":"checkpoint","format":2,"states":7,"transitions":12,"bound_hits":0,"keys":1,"pending":[[[0,null],[1,3]],[]],"violations":[{"message":"overlap","path":[[1,null]]}],"deadlocks":[[[0,2]]],"identity":"fa3a5464ee98b7120885b6414cd4a3f7"}|}
    head;
  (* a log record: lane a, then lane b, each little-endian 64-bit *)
  Alcotest.(check string)
    "key log record bytes"
    "\x11\x00\x00\x00\x00\x00\x00\x00\xfc\xff\xff\xff\xff\xff\xff\xff"
    (Bytes.to_string keys);
  (* file roundtrip: the head is renamed into place, the keys appended *)
  let path = tmpfile "serve_ckpt_golden.ckpt" in
  let log = Serve.Checkpoint.log_path path in
  let files = Serve.Checkpoint.create ~identity ~path in
  let written = Serve.Checkpoint.save files ck in
  Alcotest.(check string) "head file" (head ^ "\n") (read_file path);
  Alcotest.(check string) "log file" (Bytes.to_string keys) (read_file log);
  Alcotest.(check int)
    "bytes written = head + log append"
    (String.length head + 1 + Mc.Fingerprint.bytes)
    written;
  (match Serve.Checkpoint.load ~identity ~path with
  | Error e -> Alcotest.fail e
  | Ok (ck', files') ->
      Alcotest.(check string)
        "load(save(ck)) = ck" head
        (Serve.Json.to_string
           (Serve.Checkpoint.head_to_json ~identity
              ~keys:(Serve.Checkpoint.keys files')
              ck'));
      Alcotest.(check string)
        "keys read back" (Bytes.to_string keys)
        (Bytes.to_string ck'.Mc.ck_keys));
  (* a cut saved under one identity is refused under another *)
  (match
     Serve.Checkpoint.load
       ~identity:(Serve.Checkpoint.identity ~spec:"other")
       ~path
   with
  | Ok _ -> Alcotest.fail "loaded a cut under a foreign identity"
  | Error _ -> ());
  (* and a head with no identity at all is refused *)
  (match
     Result.bind
       (Serve.Json.parse
          {|{"type":"checkpoint","format":2,"states":0,"transitions":0,"bound_hits":0,"keys":0,"pending":[],"violations":[],"deadlocks":[]}|})
       (Serve.Checkpoint.head_of_json ~identity)
   with
  | Ok _ -> Alcotest.fail "accepted a cut without identity"
  | Error _ -> ());
  (* nor one whose key count no log can hold *)
  List.iter
    (fun keys ->
      match
        Result.bind
          (Serve.Json.parse
             (Fmt.str
                {|{"type":"checkpoint","format":2,"states":0,"transitions":0,"bound_hits":0,"keys":%d,"pending":[],"violations":[],"deadlocks":[],"identity":"%s"}|}
                keys identity))
          (Serve.Checkpoint.head_of_json ~identity)
      with
      | Ok _ -> Alcotest.failf "accepted a head with %d keys" keys
      | Error _ -> ())
    [ -1; max_int ];
  Serve.Checkpoint.remove ~path;
  Alcotest.(check bool)
    "both files removed" false
    (Sys.file_exists path || Sys.file_exists log);
  match Serve.Checkpoint.load ~identity ~path with
  | Ok _ -> Alcotest.fail "loaded a missing checkpoint"
  | Error _ -> ()

(* --- kill-mid-job resume equivalence ------------------------------- *)

exception Killed

let resume_equivalence () =
  let factory = Option.get (Locks.Registry.find "bakery") in
  let model = Memory_model.Pso in
  (* leg 1: the uninterrupted `Parallel 1 reference *)
  let v0 =
    Verify.Mutex_check.check ~engine:(`Parallel 1) ~model factory ~nprocs:2
  in
  let dir = Filename.get_temp_dir_name () in
  let ckpt = Filename.concat dir "serve_resume_eq.ckpt" in
  let files = Serve.Checkpoint.create ~identity ~path:ckpt in
  (* leg 2: same job, killed right after the first checkpoint lands —
     the exception unwinds out of the engine exactly like a daemon
     death after the cut is safely on disk *)
  (try
     ignore
       (Verify.Mutex_check.check ~engine:(`Parallel 1)
          ~checkpoint:
            ( 400,
              fun c ->
                ignore (Serve.Checkpoint.save files c);
                raise Killed )
          ~model factory ~nprocs:2);
     Alcotest.fail "kill did not fire (checkpoint interval too large?)"
   with Killed -> ());
  Alcotest.(check bool) "checkpoint file exists" true (Sys.file_exists ckpt);
  (* leg 3: resume from the file and finish *)
  let resume =
    match Serve.Checkpoint.load ~identity ~path:ckpt with
    | Ok (c, _) -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool)
    "cut is mid-run" true
    (resume.Mc.ck_states > 0
    && resume.Mc.ck_states < v0.Verify.Mutex_check.stats.Explore.states);
  let v1 =
    Verify.Mutex_check.check ~engine:(`Parallel 1) ~resume ~model factory
      ~nprocs:2
  in
  Serve.Checkpoint.remove ~path:ckpt;
  (* identical verdict and EXACT state/transition counts: the resumed
     exploration is the uninterrupted one, continued *)
  Alcotest.(check bool)
    "verdict" v0.Verify.Mutex_check.holds v1.Verify.Mutex_check.holds;
  Alcotest.(check int)
    "states" v0.Verify.Mutex_check.stats.Explore.states
    v1.Verify.Mutex_check.stats.Explore.states;
  Alcotest.(check int)
    "transitions" v0.Verify.Mutex_check.stats.Explore.transitions
    v1.Verify.Mutex_check.stats.Explore.transitions

(* Same equivalence through the Job layer: Job.run finds the orphaned
   checkpoint on its own (the restarted-daemon path) and removes it on
   completion. *)
let job_level_resume () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_job_resume_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let job =
    {
      Serve.Job.id = "jr1";
      spec =
        Serve.Job.Check
          {
            lock = "bakery";
            model = Memory_model.Pso;
            nprocs = 2;
            rounds = 1;
            max_states = 1_000_000;
            por = false;
            reorder_bound = None;
          };
    }
  in
  let uninterrupted = Serve.Job.run job in
  let killed = ref false in
  (try
     ignore
       (Serve.Job.run ~checkpoint:(400, dir)
          ~on_checkpoint:(fun () ->
            killed := true;
            raise Killed)
          job)
   with Killed -> ());
  Alcotest.(check bool) "first checkpoint fired" true !killed;
  let ckpt = Filename.concat dir "jr1.ckpt" in
  let log = Serve.Checkpoint.log_path ckpt in
  Alcotest.(check bool)
    "orphan checkpoint left" true
    (Sys.file_exists ckpt && Sys.file_exists log);
  let resumed = Serve.Job.run ~checkpoint:(400, dir) job in
  Alcotest.(check bool)
    "checkpoint removed on completion" false
    (Sys.file_exists ckpt || Sys.file_exists log);
  Alcotest.(check bool) "ok" uninterrupted.Serve.Job.ok resumed.Serve.Job.ok;
  let states (o : Serve.Job.outcome) =
    match List.assoc_opt "states" o.Serve.Job.fields with
    | Some (Telemetry.Sink.I n) -> n
    | _ -> Alcotest.fail "no states field"
  in
  Alcotest.(check int) "states" (states uninterrupted) (states resumed);
  Sys.rmdir dir

(* A checkpoint is found by job id alone, so an id re-spooled with a
   different spec must not resume the old job's cut: the identity
   stored with the cut no longer matches, the job reports
   [resume_error] and runs from scratch to the exact uninterrupted
   counts (bakery n=3 PSO: 718,590 states, 1,883,736 transitions). *)
let respooled_id_starts_fresh () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_respool_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let check nprocs =
    {
      Serve.Job.id = "rs1";
      spec =
        Serve.Job.Check
          {
            lock = "bakery";
            model = Memory_model.Pso;
            nprocs;
            rounds = 1;
            max_states = 1_000_000;
            por = false;
            reorder_bound = None;
          };
    }
  in
  (try
     ignore
       (Serve.Job.run ~checkpoint:(400, dir)
          ~on_checkpoint:(fun () -> raise Killed)
          (check 2))
   with Killed -> ());
  let ckpt = Filename.concat dir "rs1.ckpt" in
  Alcotest.(check bool) "n=2 cut left behind" true (Sys.file_exists ckpt);
  let stats = Filename.concat dir "rs1.ndjson" in
  let sink = Telemetry.Sink.create stats in
  (* no further cuts at n=3: only the stale one is in play *)
  let o = Serve.Job.run ~sink ~checkpoint:(max_int, dir) (check 3) in
  Telemetry.Sink.close sink;
  let records =
    String.split_on_char '\n' (read_file stats)
    |> List.filter (fun l -> l <> "")
  in
  let has kind =
    List.exists
      (fun l ->
        let prefix = Fmt.str {|{"type":"%s","job_id":"rs1"|} kind in
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      records
  in
  Alcotest.(check bool) "resume_error emitted" true (has "resume_error");
  Alcotest.(check bool) "no resume" false (has "resume");
  let int_field k =
    match List.assoc_opt k o.Serve.Job.fields with
    | Some (Telemetry.Sink.I n) -> n
    | _ -> Alcotest.failf "no %s field" k
  in
  Alcotest.(check bool) "holds" true o.Serve.Job.ok;
  Alcotest.(check int) "states" 718_590 (int_field "states");
  Alcotest.(check int) "transitions" 1_883_736 (int_field "transitions");
  Alcotest.(check bool)
    "stale cut removed" false
    (Sys.file_exists ckpt || Sys.file_exists (Serve.Checkpoint.log_path ckpt));
  Sys.remove stats;
  Sys.rmdir dir

(* --- hostile checkpoint files -------------------------------------- *)

let bakery2 id =
  {
    Serve.Job.id;
    spec =
      Serve.Job.Check
        {
          lock = "bakery";
          model = Memory_model.Pso;
          nprocs = 2;
          rounds = 1;
          max_states = 1_000_000;
          por = false;
          reorder_bound = None;
        };
  }

let int_field (o : Serve.Job.outcome) k =
  match List.assoc_opt k o.Serve.Job.fields with
  | Some (Telemetry.Sink.I n) -> n
  | _ -> Alcotest.failf "no %s field" k

(* The job's NDJSON records of type [kind], parsed. *)
let records_of ~kind path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun l ->
         match Serve.Json.parse l with
         | Ok j when Serve.Json.member "type" j = Some (Serve.Json.String kind)
           ->
             Some j
         | _ -> None)

let json_int j k =
  match Serve.Json.member k j with
  | Some (Serve.Json.Int n) -> n
  | _ -> Alcotest.failf "record has no int field %s" k

let append_file path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let file_size path = (Unix.stat path).Unix.st_size

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A cut on disk may be torn or tampered with by anything outside the
   daemon. Whatever is found, the job ends with the uninterrupted
   verdict and exact counts, and leaves no file behind: a torn append
   behind the head is cut off and the resume goes on; a log shorter
   than its head, a truncated or garbled head, and a format-1 cut (one
   file with a visited array) are each refused with [resume_error]
   and the job runs from scratch. *)
let hostile_checkpoint_files () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_hostile_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let job = bakery2 "hc1" in
  let ckpt = Filename.concat dir "hc1.ckpt" in
  let log = Serve.Checkpoint.log_path ckpt in
  let uninterrupted = Serve.Job.run job in
  (* run the job until its [k]-th cut is on disk *)
  let kill_after k =
    let cuts = ref 0 in
    try
      ignore
        (Serve.Job.run ~checkpoint:(400, dir)
           ~on_checkpoint:(fun () ->
             incr cuts;
             if !cuts = k then raise Killed)
           job);
      Alcotest.fail "kill did not fire"
    with Killed -> ()
  in
  (* restart on the files, optionally killed after [kill] more cuts *)
  let restart ?kill name =
    let stats = Filename.concat dir "hc1.ndjson" in
    let sink = Telemetry.Sink.create stats in
    let cuts = ref 0 in
    let on_checkpoint () =
      incr cuts;
      if Some !cuts = kill then raise Killed
    in
    let o =
      try Some (Serve.Job.run ~sink ~checkpoint:(400, dir) ~on_checkpoint job)
      with Killed -> None
    in
    Telemetry.Sink.close sink;
    (* resumed keys are not logged again: the log holds each claim once *)
    List.iter
      (fun r ->
        Alcotest.(check int)
          (name ^ ": log keys = states claimed")
          (json_int r "states") (json_int r "keys"))
      (records_of ~kind:"checkpoint" stats);
    let resumed = records_of ~kind:"resume" stats
    and errors =
      List.map
        (fun j ->
          match Serve.Json.member "error" j with
          | Some (Serve.Json.String e) -> e
          | _ -> "")
        (records_of ~kind:"resume_error" stats)
    in
    Sys.remove stats;
    (match o with
    | None -> ()
    | Some o ->
        Alcotest.(check bool) (name ^ ": ok") true o.Serve.Job.ok;
        List.iter
          (fun k ->
            Alcotest.(check int) (name ^ ": " ^ k)
              (int_field uninterrupted k) (int_field o k))
          [ "states"; "transitions" ];
        Alcotest.(check bool)
          (name ^ ": no files left") false
          (Sys.file_exists ckpt || Sys.file_exists log));
    (resumed <> [], errors)
  in
  let refused name errors =
    match errors with
    | [ e ] -> e
    | _ -> Alcotest.failf "%s: %d resume_error records" name (List.length errors)
  in
  (* a crash mid-append: garbage behind the head's keys. The resume
     cuts it off, so the keys its next cut appends line up; a second
     restart from that cut still lands on the exact counts *)
  kill_after 2;
  append_file log "torn!";
  let resumed, errors = restart ~kill:1 "torn tail" in
  Alcotest.(check bool) "torn tail: resumed" true (resumed && errors = []);
  Alcotest.(check int)
    "torn tail: log cut back to whole records" 0
    (file_size log mod Mc.Fingerprint.bytes);
  let resumed, errors = restart "torn tail, second restart" in
  Alcotest.(check bool) "second restart resumed" true (resumed && errors = []);
  (* a log shorter than its head *)
  kill_after 2;
  Unix.truncate log (file_size log - Mc.Fingerprint.bytes);
  let resumed, errors = restart "short log" in
  Alcotest.(check bool) "short log: not resumed" false resumed;
  ignore (refused "short log" errors);
  (* a truncated head, then a garbled one *)
  kill_after 1;
  Unix.truncate ckpt (file_size ckpt / 2);
  let resumed, errors = restart "truncated head" in
  Alcotest.(check bool) "truncated head: not resumed" false resumed;
  ignore (refused "truncated head" errors);
  kill_after 1;
  let head = Bytes.of_string (read_file ckpt) in
  Bytes.fill head 0 (Bytes.length head / 3) '#';
  let oc = open_out_bin ckpt in
  output_bytes oc head;
  close_out oc;
  let resumed, errors = restart "garbled head" in
  Alcotest.(check bool) "garbled head: not resumed" false resumed;
  ignore (refused "garbled head" errors);
  (* a format-1 cut of this very job: right identity, no log *)
  let identity =
    Serve.Checkpoint.identity
      ~spec:(Serve.Json.to_string (Serve.Job.to_json job))
  in
  let oc = open_out_bin ckpt in
  output_string oc
    (Fmt.str
       {|{"type":"checkpoint","states":1,"transitions":0,"bound_hits":0,"pending":[[]],"visited":[[17,-4]],"violations":[],"deadlocks":[],"identity":"%s"}|}
       identity);
  close_out oc;
  let resumed, errors = restart "format 1" in
  Alcotest.(check bool) "format 1: not resumed" false resumed;
  let e = refused "format 1" errors in
  Alcotest.(check bool)
    (Fmt.str "format 1: error %S names the format" e)
    true
    (contains e "format 1");
  Sys.rmdir dir

(* A cut writes only its new claims. On bakery n=3 TSO with a cut
   every 100,000 states, each cut appends keys no earlier cut
   appended, and after each cut the log holds exactly the head's key
   count — which is every state claimed so far (the run is not
   truncated): every claim lands in the log exactly once. *)
let cuts_append_only_new_keys () =
  let path = tmpfile (Fmt.str "serve_keylog_%d.ckpt" (Unix.getpid ())) in
  let log = Serve.Checkpoint.log_path path in
  let files = Serve.Checkpoint.create ~identity ~path in
  let seen = Mc.Visited.create () in
  let cuts = ref 0 and repeats = ref 0 in
  let on_cut (c : Mc.checkpoint) =
    incr cuts;
    ignore (Serve.Checkpoint.save files c);
    let n = Bytes.length c.Mc.ck_keys / Mc.Fingerprint.bytes in
    for i = 0 to n - 1 do
      if
        not
          (Mc.Visited.add seen
             (Mc.Fingerprint.read c.Mc.ck_keys (i * Mc.Fingerprint.bytes)))
      then incr repeats
    done;
    let keys = Serve.Checkpoint.keys files in
    let head =
      match Serve.Json.parse (read_file path) with
      | Ok j -> json_int j "keys"
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check int)
      (Fmt.str "cut %d: head keys = log length / 16" !cuts)
      (file_size log / Mc.Fingerprint.bytes)
      head;
    Alcotest.(check int) (Fmt.str "cut %d: head keys" !cuts) keys head;
    Alcotest.(check int)
      (Fmt.str "cut %d: log keys = states claimed" !cuts)
      c.Mc.ck_states keys
  in
  let v =
    Verify.Mutex_check.check ~engine:(`Parallel 1)
      ~checkpoint:(100_000, on_cut) ~model:Memory_model.Tso
      (Option.get (Locks.Registry.find "bakery"))
      ~nprocs:3
  in
  Serve.Checkpoint.remove ~path;
  Alcotest.(check bool) "holds" true v.Verify.Mutex_check.holds;
  Alcotest.(check bool)
    (Fmt.str "%d cuts" !cuts)
    true
    (!cuts >= v.Verify.Mutex_check.stats.Explore.states / 100_000 - 1);
  Alcotest.(check int) "keys appended twice" 0 !repeats

(* Each [checkpoint] record says what the cut cost: [keys] in the log
   after it and [bytes] it wrote (head plus log append), read back
   from the files as each cut lands. *)
let checkpoint_record_fields () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_ckfields_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let ckpt = Filename.concat dir "cf1.ckpt" in
  let log = Serve.Checkpoint.log_path ckpt in
  let stats = Filename.concat dir "cf1.ndjson" in
  let sink = Telemetry.Sink.create stats in
  let sizes = ref [] in
  let on_checkpoint () =
    sizes := (file_size ckpt, file_size log) :: !sizes
  in
  let o =
    Serve.Job.run ~sink ~checkpoint:(400, dir) ~on_checkpoint (bakery2 "cf1")
  in
  Telemetry.Sink.close sink;
  Alcotest.(check bool) "ok" true o.Serve.Job.ok;
  let records = records_of ~kind:"checkpoint" stats in
  let sizes = List.rev !sizes in
  Alcotest.(check int) "one record per cut" (List.length sizes)
    (List.length records);
  Alcotest.(check bool) "several cuts" true (List.length records >= 3);
  ignore
    (List.fold_left2
       (fun prev_log r (head, log_size) ->
         let keys = json_int r "keys" in
         Alcotest.(check int) "keys = log length / 16"
           (log_size / Mc.Fingerprint.bytes)
           keys;
         Alcotest.(check int) "keys = states claimed" (json_int r "states") keys;
         Alcotest.(check int) "bytes = head + log append"
           (head + log_size - prev_log)
           (json_int r "bytes");
         log_size)
       0 records sizes);
  Sys.remove stats;
  Sys.rmdir dir

(* --- backpressure -------------------------------------------------- *)

let backpressure () =
  let window = 2 in
  let pool = Serve.Pool.create ~window in
  let ran = Atomic.make 0 in
  for _ = 1 to 9 do
    (* jobs slow enough that the submitter catches up against the
       window and has to block — queue depth is then pinned at the
       cap, never beyond it *)
    Serve.Pool.submit pool (fun () ->
        Unix.sleepf 0.02;
        ignore (Atomic.fetch_and_add ran 1))
  done;
  Serve.Pool.drain pool;
  Alcotest.(check int) "all jobs ran" 9 (Atomic.get ran);
  let depth = Serve.Pool.max_queue_depth pool in
  Alcotest.(check bool)
    (Fmt.str "max queue depth %d <= window %d" depth window)
    true
    (depth <= window);
  Serve.Pool.shutdown pool;
  (match Serve.Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown succeeded"
  | exception Invalid_argument _ -> ());
  (* a raising job is contained and reported *)
  let pool = Serve.Pool.create ~window:1 in
  let seen = ref None in
  Serve.Pool.submit pool
    ~on_error:(fun e -> seen := Some (Printexc.to_string e))
    (fun () -> failwith "boom");
  Serve.Pool.submit pool (fun () -> ());
  Serve.Pool.shutdown pool;
  match !seen with
  | Some msg ->
      Alcotest.(check bool) "error reported" true
        (String.length msg > 0)
  | None -> Alcotest.fail "job exception swallowed without report"

(* --- daemon over a spool ------------------------------------------- *)

let spool_processing () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_spool_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "batch.job") in
  output_string oc
    ({|{"job":"litmus","id":"s1","test":"SB","model":"TSO"}|} ^ "\n"
   ^ "this line is not a job\n"
   ^ {|{"job":"check","id":"s2","lock":"ttas","model":"SC","nprocs":2}|}
   ^ "\n");
  close_out oc;
  let stats = Filename.concat dir "serve.ndjson" in
  let r = Serve.Daemon.run ~window:2 ~stats_out:stats (`Spool dir) in
  Alcotest.(check int) "accepted" 2 r.Serve.Daemon.accepted;
  Alcotest.(check int) "rejected" 1 r.Serve.Daemon.rejected;
  Alcotest.(check int) "skipped" 0 r.Serve.Daemon.skipped;
  (* ttas under SC holds; both jobs ok *)
  Alcotest.(check int) "failed" 0 r.Serve.Daemon.failed;
  Alcotest.(check int) "exit code" 1 (Serve.Daemon.exit_code r);
  Alcotest.(check bool)
    "done markers" true
    (Sys.file_exists (Filename.concat dir "s1.done")
    && Sys.file_exists (Filename.concat dir "s2.done"));
  (* a second pass skips everything: completed jobs are idempotent *)
  let r2 = Serve.Daemon.run ~window:2 (`Spool dir) in
  Alcotest.(check int) "second pass accepted" 0 r2.Serve.Daemon.accepted;
  Alcotest.(check int) "second pass skipped" 2 r2.Serve.Daemon.skipped;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

(* A capped check job reports an honest partial verdict in its
   job_done record: holds false, the verdict in words, and ok false;
   an untruncated job's record keeps exactly its old fields. *)
let truncated_job_done () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_truncated_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "batch.job") in
  output_string oc
    ({|{"job":"check","id":"t1","lock":"bakery","model":"PSO","nprocs":3,"max_states":1000}|}
   ^ "\n"
   ^ {|{"job":"check","id":"t2","lock":"ttas","model":"SC","nprocs":2}|}
   ^ "\n");
  close_out oc;
  let stats = Filename.concat dir "serve.ndjson" in
  let r = Serve.Daemon.run ~window:1 ~stats_out:stats (`Spool dir) in
  Alcotest.(check int) "accepted" 2 r.Serve.Daemon.accepted;
  Alcotest.(check int) "the truncated job is not ok" 1 r.Serve.Daemon.failed;
  let done_record id =
    let prefix = Fmt.str {|{"type":"job_done","job_id":"%s"|} id in
    match
      List.find_opt
        (fun l ->
          String.length l >= String.length prefix
          && String.sub l 0 (String.length prefix) = prefix)
        (String.split_on_char '\n' (read_file stats))
    with
    | Some l -> l
    | None -> Alcotest.failf "no job_done record for %s" id
  in
  Alcotest.(check string) "truncated job_done"
    ({|{"type":"job_done","job_id":"t1","lock":"bakery","model":"PSO","nprocs":3,|}
    ^ {|"holds":false,"states":1000,"transitions":1900,"truncated":true,|}
    ^ {|"verdict":"NO VIOLATION FOUND (truncated subset)","ok":false}|})
    (done_record "t1");
  let head =
    {|{"type":"job_done","job_id":"t2","lock":"ttas","model":"SC","nprocs":2,"holds":true,"states":|}
  in
  Alcotest.(check string) "untruncated job_done" head
    (String.sub (done_record "t2") 0 (String.length head));
  Alcotest.(check bool) "untruncated job_done has no verdict field" false
    (let l = done_record "t2" in
     let rec has i =
       i + 9 <= String.length l && (String.sub l i 9 = {|"verdict"|} || has (i + 1))
     in
     has 0);
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

(* --- atlas --------------------------------------------------------- *)

let atlas_shape () =
  let atlas = Serve.Atlas.run ~nprocs:[ 2; 4; 8 ] () in
  (* heights 1..ceil(log2 n): 1 + 2 + 3 points *)
  Alcotest.(check int) "points" 6 (List.length atlas.Serve.Atlas.points);
  List.iter
    (fun (p : Serve.Atlas.point) ->
      Alcotest.(check bool)
        (Fmt.str "n=%d f=%d has positive costs" p.Serve.Atlas.nprocs
           p.Serve.Atlas.height)
        true
        (p.Serve.Atlas.fences > 0 && p.Serve.Atlas.rmr > 0
        && p.Serve.Atlas.count_rmr >= p.Serve.Atlas.rmr
        && p.Serve.Atlas.count_fences >= p.Serve.Atlas.fences);
      (* the three accounting rules: combined counts an RMR when
         either rule does, so it is bounded by each pure rule's count
         plus the other's — sanity: combined <= dsm + cc *)
      Alcotest.(check bool)
        "combined <= dsm + cc" true
        (p.Serve.Atlas.rmr <= p.Serve.Atlas.rmr_dsm + p.Serve.Atlas.rmr_cc))
    atlas.Serve.Atlas.points;
  (* frontier: nonempty per n, Pareto (no dominating pair survives) *)
  List.iter
    (fun (n, pts) ->
      Alcotest.(check bool) (Fmt.str "frontier n=%d nonempty" n) true (pts <> []);
      List.iter
        (fun (p : Serve.Atlas.point) ->
          List.iter
            (fun (q : Serve.Atlas.point) ->
              if p != q then
                Alcotest.(check bool)
                  "no strict domination in frontier" false
                  (q.Serve.Atlas.fences <= p.Serve.Atlas.fences
                  && q.Serve.Atlas.rmr <= p.Serve.Atlas.rmr
                  && (q.Serve.Atlas.fences < p.Serve.Atlas.fences
                     || q.Serve.Atlas.rmr < p.Serve.Atlas.rmr)))
            pts)
        pts)
    atlas.Serve.Atlas.frontier;
  (* deterministic: two runs print identical JSON *)
  let atlas' = Serve.Atlas.run ~nprocs:[ 2; 4; 8 ] () in
  Alcotest.(check string)
    "atlas is deterministic"
    (Serve.Json.to_string (Serve.Atlas.to_json atlas))
    (Serve.Json.to_string (Serve.Atlas.to_json atlas'))

let suite =
  ( "serve",
    [
      Alcotest.test_case "json: parse/print roundtrip + rejections" `Quick
        json_roundtrip;
      Alcotest.test_case "wire: job record golden bytes" `Quick job_golden;
      Alcotest.test_case "wire: ack record golden bytes" `Quick ack_golden;
      Alcotest.test_case "wire: checkpoint golden bytes + file roundtrip"
        `Quick checkpoint_golden;
      Alcotest.test_case
        "kill-mid-job resume: verdict and exact counts match uninterrupted"
        `Slow resume_equivalence;
      Alcotest.test_case "job-level orphan resume through Job.run" `Slow
        job_level_resume;
      Alcotest.test_case "re-spooled id with another spec starts fresh" `Slow
        respooled_id_starts_fresh;
      Alcotest.test_case "hostile checkpoint files: exact counts, no leftovers"
        `Slow hostile_checkpoint_files;
      Alcotest.test_case "key log: each cut appends only its new claims" `Slow
        cuts_append_only_new_keys;
      Alcotest.test_case "wire: checkpoint records carry keys and bytes"
        `Quick checkpoint_record_fields;
      Alcotest.test_case "pool: backpressure bounds queue depth" `Quick
        backpressure;
      Alcotest.test_case "daemon: spool pass, rejects, done markers" `Slow
        spool_processing;
      Alcotest.test_case "daemon: a truncated check is a partial verdict"
        `Quick truncated_job_done;
      Alcotest.test_case "atlas: shape, accounting, Pareto, determinism"
        `Slow atlas_shape;
    ] )
