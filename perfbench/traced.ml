(** The traced j=1 explorer: the [Mc] engine's one-domain exploration loop
    (unreduced, unbounded), rebuilt from each layer's public functions
    in the engine's order, with every call into a layer inside a span.

    A span reads the monotonic clock and the domain's minor-word count
    on both sides of the call; neither probe allocates, so the words a
    span records are the layer's own. The explorer proves it traced the
    engine's work by reproducing the engine's exact state and transition
    counts. *)

open Memsim
module Fingerprint = Mc.Fingerprint
module Visited = Mc.Visited
module Frontier = Mc.Frontier

type layer = { mutable ns : int; mutable words : int; mutable calls : int }

let layer () = { ns = 0; words = 0; calls = 0 }

(* A span opens with [let w0 = Probe.domain_words () in let t0 =
   Probe.now_ns () in] — words first, so the clock interval excludes
   that probe; the two readings stay in registers rather than in an
   allocated pair — and closes with [stop]. *)
let[@inline] stop l w0 t0 =
  let t1 = Probe.now_ns () in
  let w1 = Probe.domain_words () in
  l.ns <- l.ns + (t1 - t0);
  l.words <- l.words + (w1 - w0);
  l.calls <- l.calls + 1

type layers = {
  enum : layer;  (** [Explore.successor_elts] *)
  step : layer;  (** [Exec.exec_elt_d] *)
  key : layer;  (** [Fingerprint.of_config] / [Fingerprint.update] *)
  normalize : layer;  (** [Exec.flush_labels_d] *)
  monitor : layer;  (** the monitor hook, once per step *)
  visited : layer;  (** [Visited.add] *)
  frontier : layer;  (** [Frontier.register], [inject], [next], [complete] *)
}

let all l =
  [ l.enum; l.step; l.key; l.normalize; l.monitor; l.visited; l.frontier ]

type result = {
  layers : layers;
  wall_ns : int;
  states : int;
  transitions : int;
  truncated : bool;
  violations : int;
  deadlocks : int;
  probes : int;  (** [Visited.add] calls: claimed plus duplicates *)
  skew : float;
  fingerprints : Fingerprint.t array;  (** the run's claimed keys *)
}

(* The engine's task record, field for field: [rev_path] is never read
   here, but carrying it keeps the traced run's allocation the engine's. *)
type 'm task = {
  cfg : Config.t;
  fp : Fingerprint.t;
  m : 'm;
  rev_path : Exec.elt list;
  depth : int;
}

(* [Mc.run]'s default depth bound *)
let max_depth = 100_000

let run (Workloads.Spec s) : result =
  let l =
    {
      enum = layer ();
      step = layer ();
      key = layer ();
      normalize = layer ();
      monitor = layer ();
      visited = layer ();
      frontier = layer ();
    }
  in
  let t_begin = Probe.now_ns () in
  let visited = Visited.create () in
  let frontier = Frontier.create ~workers:1 in
  let states = ref 0 and transitions = ref 0 and truncated = ref false in
  let violations = ref 0 and deadlocks = ref 0 in
  let rec monitor_steps m = function
    | [] -> Ok m
    | step :: rest -> (
        let w0 = Probe.domain_words () in
        let t0 = Probe.now_ns () in
        let r = s.monitor m step in
        stop l.monitor w0 t0;
        match r with Ok m -> monitor_steps m rest | Error _ as e -> e)
  in
  let update fp ~before ~after d =
    let w0 = Probe.domain_words () in
    let t0 = Probe.now_ns () in
    let fp = Fingerprint.update fp ~before ~after d in
    stop l.key w0 t0;
    fp
  in
  (* normalization: flush pending labels, carrying the fingerprint
     across one per-pid update at a time, as the engine does *)
  let normalize cfg' fp =
    let w0 = Probe.domain_words () in
    let t0 = Probe.now_ns () in
    let notes, ncfg, dirtied = Exec.flush_labels_d cfg' in
    stop l.normalize w0 t0;
    let fp =
      List.fold_left
        (fun fp p ->
          update fp ~before:cfg' ~after:ncfg (Exec.dirty_of p ~mem:false))
        fp dirtied
    in
    (notes, ncfg, fp)
  in
  let claim fp =
    let w0 = Probe.domain_words () in
    let t0 = Probe.now_ns () in
    let fresh = Visited.add visited fp in
    stop l.visited w0 t0;
    fresh
  in
  let probes = ref 0 in
  let expand (t : _ task) =
    if !states >= s.max_states || !violations >= s.max_violations then begin
      truncated := true;
      Frontier.stop frontier;
      []
    end
    else
      let cfg = t.cfg in
      if Config.quiescent cfg then begin
        s.on_final cfg t.m;
        []
      end
      else if t.depth >= max_depth then begin
        truncated := true;
        []
      end
      else
        let w0 = Probe.domain_words () in
        let t0 = Probe.now_ns () in
        let elts = Explore.successor_elts cfg in
        stop l.enum w0 t0;
        if elts = [] then begin
          incr deadlocks;
          []
        end
        else begin
          transitions := !transitions + List.length elts;
          let child elt =
            let w0 = Probe.domain_words () in
            let t0 = Probe.now_ns () in
            let steps, cfg', d = Exec.exec_elt_d cfg elt in
            stop l.step w0 t0;
            match monitor_steps t.m steps with
            | Error _ ->
                incr violations;
                None
            | Ok m -> (
                let fp = update t.fp ~before:cfg ~after:cfg' d in
                let notes, ncfg, fp = normalize cfg' fp in
                match monitor_steps m notes with
                | Error _ ->
                    incr violations;
                    None
                | Ok m ->
                    Some
                      {
                        cfg = ncfg;
                        fp;
                        m;
                        rev_path = elt :: t.rev_path;
                        depth = t.depth + 1;
                      })
          in
          let candidates = List.filter_map child elts in
          List.filter
            (fun c ->
              incr probes;
              claim c.fp
              && begin
                   incr states;
                   true
                 end)
            candidates
        end
  in
  let rec drive t =
    match expand t with
    | [] ->
        let w0 = Probe.domain_words () in
        let t0 = Probe.now_ns () in
        Frontier.complete frontier;
        stop l.frontier w0 t0;
        seek ()
    | c :: rest ->
        let w0 = Probe.domain_words () in
        let t0 = Probe.now_ns () in
        Frontier.register frontier (1 + List.length rest);
        if rest <> [] then Frontier.inject frontier ~worker:0 (List.rev rest);
        Frontier.complete frontier;
        stop l.frontier w0 t0;
        drive c
  and seek () =
    let w0 = Probe.domain_words () in
    let t0 = Probe.now_ns () in
    let next = Frontier.next frontier ~worker:0 in
    stop l.frontier w0 t0;
    match next with Some t -> drive t | None -> ()
  in
  (* the root: normalized, monitored and claimed like any other state *)
  let cfg0 = s.cfg0 in
  let w0 = Probe.domain_words () in
  let t0 = Probe.now_ns () in
  let fp0 = Fingerprint.of_config cfg0 in
  stop l.key w0 t0;
  let notes, cfg, fp = normalize cfg0 fp0 in
  (match monitor_steps s.init notes with
  | Error _ -> incr violations
  | Ok m ->
      let root = { cfg; fp; m; rev_path = []; depth = 0 } in
      incr probes;
      ignore (claim fp);
      incr states;
      let w0 = Probe.domain_words () in
      let t0 = Probe.now_ns () in
      Frontier.register frontier 1;
      stop l.frontier w0 t0;
      drive root);
  let wall_ns = Probe.now_ns () - t_begin in
  let fingerprints = Array.make (Visited.size visited) fp0 in
  let i = ref 0 in
  Visited.iter visited (fun fp ->
      fingerprints.(!i) <- fp;
      incr i);
  {
    layers = l;
    wall_ns;
    states = !states;
    transitions = !transitions;
    truncated = !truncated;
    violations = !violations;
    deadlocks = !deadlocks;
    probes = !probes;
    skew = (Visited.stats visited).Visited.skew;
    fingerprints;
  }

(** The cost of an empty span: [(inside, total)] ns, where [inside] is
    the part its own interval records and [total] the whole per-span
    cost, probes and bookkeeping included; and the words it allocates,
    which must be zero. Median of several passes. *)
let span_cost () =
  let n = 200_000 in
  let pass () =
    let l = layer () in
    let begin_ns = Probe.now_ns () in
    for _ = 1 to n do
      let w0 = Probe.domain_words () in
      let t0 = Probe.now_ns () in
      stop l w0 t0
    done;
    let total = Probe.now_ns () - begin_ns in
    ( float_of_int l.ns /. float_of_int n,
      float_of_int total /. float_of_int n,
      l.words )
  in
  let passes = List.init 9 (fun _ -> pass ()) in
  let med f =
    let xs = List.sort compare (List.map f passes) in
    List.nth xs (List.length xs / 2)
  in
  ( med (fun (a, _, _) -> a),
    med (fun (_, b, _) -> b),
    List.fold_left (fun acc (_, _, w) -> max acc w) 0 passes )

(** Bytes the visited set holds per state: the run's fingerprints,
    copied, re-inserted into a fresh set, measured as live-heap growth
    after full major collections. *)
let visited_bytes_per_state (fps : Fingerprint.t array) =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let fresh = Visited.create () in
  Array.iter
    (fun (fp : Fingerprint.t) ->
      ignore (Visited.add fresh { Fingerprint.a = fp.a; b = fp.b }))
    fps;
  let after = live () in
  ignore (Sys.opaque_identity fresh);
  float_of_int ((after - before) * (Sys.word_size / 8))
  /. float_of_int (max 1 (Array.length fps))
