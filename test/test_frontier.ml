(* Frontier machinery tests: Chase–Lev deque semantics (owner LIFO,
   thief FIFO, growth, cross-domain conservation), distributed
   termination of the work-stealing frontier with 1 and 8 workers, and
   the hash-compaction visited set (claims, a model test, races). *)

open Mc

(* ------------------------------------------------------------------ *)
(* Deque: single-owner semantics                                       *)
(* ------------------------------------------------------------------ *)

let deque_lifo_fifo () =
  let d = Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal d);
  for i = 1 to 100 do
    Deque.push d i
  done;
  Alcotest.(check int) "size hint" 100 (Deque.size_hint d);
  (* owner takes the newest, thieves the oldest *)
  Alcotest.(check (option int)) "pop is LIFO" (Some 100) (Deque.pop d);
  Alcotest.(check (option int)) "steal is FIFO" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "steal advances" (Some 2) (Deque.steal d);
  (* drain the rest from the owner side: 99 down to 3 *)
  for expect = 99 downto 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "drain %d" expect)
      (Some expect) (Deque.pop d)
  done;
  Alcotest.(check (option int)) "drained pop" None (Deque.pop d);
  Alcotest.(check (option int)) "drained steal" None (Deque.steal d)

(* Growth: push far past the initial capacity, interleaving steals so
   top is non-zero when the buffer doubles (the wrap-around case). *)
let deque_growth () =
  let d = Deque.create () in
  let n = 10_000 in
  let sum = ref 0 in
  for i = 1 to n do
    Deque.push d i;
    if i mod 3 = 0 then
      match Deque.steal d with
      | Some v -> sum := !sum + v
      | None -> Alcotest.fail "steal from non-empty deque"
  done;
  let rec drain () =
    match Deque.pop d with
    | Some v ->
        sum := !sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "every element seen once" (n * (n + 1) / 2) !sum

(* Conservation under real concurrency: one owner domain pushes and
   pops, three thieves steal; every element is consumed exactly once. *)
let deque_concurrent_steal () =
  let d = Deque.create () in
  let n = 20_000 and nthieves = 3 in
  let produced_done = Atomic.make false in
  let owner () =
    let taken = ref [] in
    for i = 1 to n do
      Deque.push d i;
      (* occasional owner pops keep the bottom end contended *)
      if i mod 7 = 0 then
        match Deque.pop d with
        | Some v -> taken := v :: !taken
        | None -> ()
    done;
    let rec drain () =
      match Deque.pop d with
      | Some v ->
          taken := v :: !taken;
          drain ()
      | None -> ()
    in
    drain ();
    Atomic.set produced_done true;
    (* thieves may still hold unconsumed races; one final drain after
       they exit happens below on the collected lists *)
    !taken
  in
  let thief () =
    let taken = ref [] in
    let rec loop misses =
      match Deque.steal d with
      | Some v ->
          taken := v :: !taken;
          loop 0
      | None ->
          if Atomic.get produced_done && Deque.size_hint d <= 0 then !taken
          else loop (misses + 1)
    in
    loop 0
  in
  let thieves = List.init nthieves (fun _ -> Domain.spawn thief) in
  let own = owner () in
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (own @ stolen) in
  Alcotest.(check int) "total count" n (List.length all);
  Alcotest.(check (list int)) "each element exactly once"
    (List.init n (fun i -> i + 1))
    all

(* ------------------------------------------------------------------ *)
(* Frontier: termination protocol                                      *)
(* ------------------------------------------------------------------ *)

(* Explore a synthetic binary tree of the given depth through the
   frontier: each task of depth d > 0 spawns two tasks of depth d - 1.
   Every worker follows the engine's discipline — register children
   before completing the parent — and the run must process exactly
   2^(depth+1) - 1 tasks and then terminate every worker, however the
   work got distributed. *)
let run_tree ~workers ~depth =
  let f : int Frontier.t = Frontier.create ~workers in
  let processed = Atomic.make 0 in
  Frontier.register f 1;
  Frontier.push f ~worker:0 depth;
  let worker w () =
    let rec loop () =
      match Frontier.next f ~worker:w with
      | None -> ()
      | Some d ->
          Atomic.incr processed;
          if d > 0 then begin
            Frontier.register f 2;
            Frontier.inject f ~worker:w [ d - 1; d - 1 ]
          end;
          Frontier.complete f;
          loop ()
    in
    loop ()
  in
  let mates = List.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join mates;
  (* drained: every worker now sees the end immediately *)
  for w = 0 to workers - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "worker %d sees termination" w)
      None (Frontier.next f ~worker:w)
  done;
  Atomic.get processed

let frontier_terminates_1_worker () =
  Alcotest.(check int) "2^11 - 1 tasks" 2047 (run_tree ~workers:1 ~depth:10)

let frontier_terminates_8_workers () =
  Alcotest.(check int) "2^13 - 1 tasks" 8191 (run_tree ~workers:8 ~depth:12)

(* A stopped frontier releases sleepers and refuses further work even
   with tasks pending — the bound-hit abort path. *)
let frontier_stop_releases () =
  let f : int Frontier.t = Frontier.create ~workers:4 in
  Frontier.register f 2;
  Frontier.inject f ~worker:0 [ 1; 2 ];
  (* workers 1..3 sleep (their deques are empty and stealing may find
     work, so give them real tasks to contend for), then stop aborts *)
  let mates =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Frontier.next f ~worker:(i + 1) with
              | None -> acc
              | Some _ ->
                  Frontier.complete f;
                  loop (acc + 1)
            in
            loop 0))
  in
  Frontier.stop f;
  let consumed = List.fold_left (fun a d -> a + Domain.join d) 0 mates in
  Alcotest.(check bool) "stopped" true (Frontier.is_stopped f);
  Alcotest.(check (option int)) "owner sees stop" None
    (Frontier.next f ~worker:0);
  (* whatever was consumed before the stop landed is fine; the point is
     everyone exited *)
  Alcotest.(check bool) "consumed within bounds" true
    (consumed >= 0 && consumed <= 2)

(* ------------------------------------------------------------------ *)
(* Visited: hash-compaction set                                        *)
(* ------------------------------------------------------------------ *)

let fp i = { Fingerprint.a = (i * 0x9e3779b9) lxor 0x5bd1e995; b = i }

let visited_claims () =
  let v = Visited.create ~shards:8 () in
  Alcotest.(check bool) "first add wins" true (Visited.add v (fp 0));
  Alcotest.(check bool) "second add loses" false (Visited.add v (fp 0));
  let wins = Array.map (Visited.add v) [| fp 1; fp 1; fp 2; fp 0; fp 3 |] in
  Alcotest.(check (array bool))
    "fresh won once, dup and visited lost"
    [| true; false; true; false; true |]
    wins;
  Alcotest.(check bool) "claimed entries are members" true
    (Visited.mem v (fp 1) && Visited.mem v (fp 2) && Visited.mem v (fp 3));
  Alcotest.(check bool) "unseen is not a member" false (Visited.mem v (fp 42));
  Alcotest.(check int) "size counts distinct" 4 (Visited.size v);
  let s = Visited.stats v in
  Alcotest.(check int) "stats shards" 8 s.Visited.shards;
  Alcotest.(check int) "stats entries" 4 s.Visited.entries;
  Alcotest.(check bool) "max >= mean >= 0" true
    (float_of_int s.Visited.max_occupancy >= s.Visited.mean_occupancy
    && s.Visited.mean_occupancy >= 0.);
  Alcotest.(check bool) "skew >= 1 when non-empty" true (s.Visited.skew >= 1.);
  Alcotest.(check bool) "bytes cover 16 per entry" true
    (s.Visited.bytes >= 16 * s.Visited.entries);
  (* bit 0 of each lane is the tag: the set tells lanes apart on the
     other bits only *)
  Alcotest.(check bool) "lanes differing in bit 0 only are one entry" false
    (Visited.add v { Fingerprint.a = (fp 2).a lxor 1; b = (fp 2).b lxor 1 })

(* Two domains racing [add] over the same fingerprints: each is won
   exactly once across both. *)
let visited_add_race () =
  let v = Visited.create ~shards:16 () in
  let fps = Array.init 5_000 fp in
  let claim () = Array.map (Visited.add v) fps in
  let other = Domain.spawn claim in
  let mine = claim () in
  let theirs = Domain.join other in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "fp %d won exactly once" i)
        true
        (mine.(i) <> theirs.(i)))
    fps;
  Alcotest.(check int) "all present" (Array.length fps) (Visited.size v)

(* Model test: one shard, from its first table through several
   growths, against a [Hashtbl] keyed on the set's identity — both
   lanes with the tag bit set. Lanes come from the edge values, a
   small shared pool (equal lane a with different lane b, equal shard
   lane) and the full int range. *)
let visited_model =
  let edge = [ 0; -1; min_int; max_int ] in
  let pool = [ 0x5bd1e995; 42; 1 lsl 40; -7; 2; 3 ] in
  let lane =
    QCheck.Gen.(
      frequency
        [ (1, oneofl edge); (2, oneofl (edge @ pool)); (3, int) ])
  in
  let gen_fp = QCheck.Gen.map2 (fun a b -> { Fingerprint.a; b }) lane lane in
  let arb =
    QCheck.make
      ~print:(fun fps ->
        String.concat " "
          (List.map (Fmt.str "%a" Fingerprint.pp) fps))
      QCheck.Gen.(list_size (int_range 0 600) gen_fp)
  in
  let key (f : Fingerprint.t) = (f.a lor 1, f.b lor 1) in
  QCheck.Test.make ~name:"visited: model test against Hashtbl" ~count:200 arb
    (fun fps ->
      let v = Visited.create ~shards:1 () in
      let model = Hashtbl.create 64 in
      let adds_agree =
        List.for_all
          (fun f ->
            let fresh = not (Hashtbl.mem model (key f)) in
            Hashtbl.replace model (key f) ();
            Visited.add v f = fresh && Visited.mem v f)
          fps
      in
      let members_agree =
        List.for_all
          (fun f ->
            let g = { f with Fingerprint.b = f.Fingerprint.b lxor 2 } in
            Visited.mem v g = Hashtbl.mem model (key g))
          fps
      in
      let yielded = ref [] in
      Visited.iter v (fun f -> yielded := f :: !yielded);
      let keys = Hashtbl.fold (fun k () acc -> k :: acc) model [] in
      let round_trip_same =
        List.for_all (fun f -> not (Visited.add v f)) !yielded
      in
      let fresh = Visited.create ~shards:1 () in
      List.iter (fun f -> ignore (Visited.add fresh f)) !yielded;
      adds_agree && members_agree
      && Visited.size v = Hashtbl.length model
      && List.sort compare (List.map key !yielded) = List.sort compare keys
      && round_trip_same
      && Visited.size fresh = Visited.size v)

(* Growth race: one domain inserts 200k fingerprints into a single
   shard (so its table is replaced again and again) while the other
   probes fingerprints that share lane a with recent inserts but are
   never inserted — the half-written and mid-growth cases. [mem] must
   never claim one. *)
let visited_growth_race () =
  let n = 200_000 in
  let v = Visited.create ~shards:1 () in
  let a i = (i * 0x1e3779b97f4a7c15) lxor 0x5bd1e995 in
  let inserted i = { Fingerprint.a = a i; b = (i + 1) lsl 2 } in
  (* lane b 0 is what an unwritten lane reads as *)
  let never i = { Fingerprint.a = a i; b = 0 } in
  let progress = Atomic.make 0 and finished = Atomic.make false in
  let prober =
    Domain.spawn (fun () ->
        let false_positives = ref 0 and probes = ref 0 in
        while not (Atomic.get finished) do
          let p = Atomic.get progress in
          for i = max 0 (p - 32) to p + 32 do
            incr probes;
            if Visited.mem v (never i) then incr false_positives
          done
        done;
        (!false_positives, !probes))
  in
  for i = 0 to n - 1 do
    ignore (Visited.add v (inserted i));
    Atomic.set progress i
  done;
  Atomic.set finished true;
  let false_positives, probes = Domain.join prober in
  Alcotest.(check int) "no false positive while tables are replaced" 0
    false_positives;
  Alcotest.(check bool) "the prober ran" true (probes > 0);
  Alcotest.(check int) "size exact" n (Visited.size v);
  let all = ref true in
  for i = 0 to n - 1 do
    if not (Visited.mem v (inserted i)) then all := false
  done;
  Alcotest.(check bool) "every insert is a member" true !all

let suite =
  ( "frontier",
    [
      Alcotest.test_case "deque: owner LIFO, thief FIFO" `Quick deque_lifo_fifo;
      Alcotest.test_case "deque: growth conserves elements" `Quick deque_growth;
      Alcotest.test_case "deque: concurrent steal conserves" `Quick
        deque_concurrent_steal;
      Alcotest.test_case "frontier: terminates with 1 worker" `Quick
        frontier_terminates_1_worker;
      Alcotest.test_case "frontier: terminates with 8 workers" `Quick
        frontier_terminates_8_workers;
      Alcotest.test_case "frontier: stop releases sleepers" `Quick
        frontier_stop_releases;
      Alcotest.test_case "visited: claims and stats" `Quick visited_claims;
      Alcotest.test_case "visited: racing adds split wins" `Quick
        visited_add_race;
      QCheck_alcotest.to_alcotest visited_model;
      Alcotest.test_case "visited: growth race has no false positive" `Quick
        visited_growth_race;
    ] )
