(** Per-location timestamped modification logs — the storage substrate
    of the release/acquire (RA/SRA) backend.

    Where the write-buffer models keep one committed value per location
    plus per-process pending writes, the view-based models keep the
    {e whole modification history} of each location: an ordered log of
    messages, each carrying the value written and a {e base view} — the
    writer's knowledge at its last release point — which any later
    reader of the message acquires. Log {e position} is the timestamp:
    SRA writes must append (pick a timestamp above the location's
    current maximum), RA writes may insert anywhere strictly above the
    writer's own view of the location — that mid-log insertion is
    exactly RA's extra write-reordering freedom, and the one thing the
    pinned 2+2W litmus case separates the two models by.

    Position 0 of every log is the {e root} message (id 0): the layout
    initial value with an empty base. Message ids are allocated from a
    store-global counter, so they are unique across locations and order
    messages by creation — but {e not} by log position; all ordering
    queries go through {!pos_of_mid}.

    The store also carries the global SC-fence view [sc]: the paper's
    fence vocabulary is a single full fence, realised here as an SC
    fence à la RC11 — fencing joins the process's view into [sc] and
    adopts the join, which totally orders all fence steps and is what
    collapses fully fenced programs back onto SC.

    Everything is persistent (copy-on-write log arrays behind a map),
    so configurations stay free snapshots. The [ha]/[hb] lanes are
    xor-composed Zobrist digests over one token per message, one token
    per adjacency edge (capturing the log {e order}, which the message
    multiset alone cannot see) and one term for [sc], maintained in
    O(log length) per write — the store's contribution to state keys
    and fingerprints (see {!Statekey.mem_lanes}). *)

type msg = {
  mid : int;  (** unique id; 0 = the per-location root *)
  value : int;
  base : View.t;
      (** acquired by any read of this message: the writer's view at
          its last fence for plain writes, its full post-read view for
          RMW messages (which act as release {e and} acquire) *)
  rmw : bool;
      (** written by an RMW: the message is {e attached} to its
          predecessor (the message the RMW read), and no later write
          may be inserted between them — otherwise an RA insertion
          could retroactively break RMW atomicity (the update would no
          longer read its immediate timestamp predecessor), and fully
          fenced programs would escape SC (caught by fuzz oracle 7) *)
}

type t = {
  logs : msg array Reg.Map.t;  (** oldest first; index = position *)
  sc : View.t;  (** the global SC-fence view *)
  next_mid : int;
  ha : int;  (** xor of message + edge + sc tokens, lane [a] *)
  hb : int;
}

(* Distinct lane seeds per token family, all decorrelated from the raw
   Keyhash seeds used by {!Config.Mem}. *)
let seed_msg_a = Keyhash.mix_a Keyhash.seed_a 0x10d1
let seed_msg_b = Keyhash.mix_b Keyhash.seed_b 0x10d1
let seed_edge_a = Keyhash.mix_a Keyhash.seed_a 0x2ed6
let seed_edge_b = Keyhash.mix_b Keyhash.seed_b 0x2ed6
let seed_sc_a = Keyhash.mix_a Keyhash.seed_a 0x35cf
let seed_sc_b = Keyhash.mix_b Keyhash.seed_b 0x35cf

let msg_token_a r m =
  Keyhash.token_a
    (Keyhash.token_a (Keyhash.mix_a seed_msg_a (Bool.to_int m.rmw)) r m.mid)
    m.value (View.digest_a m.base)

let msg_token_b r m =
  Keyhash.token_b
    (Keyhash.token_b (Keyhash.mix_b seed_msg_b (Bool.to_int m.rmw)) r m.mid)
    m.value (View.digest_b m.base)

let edge_token_a r prev next = Keyhash.token_a (Keyhash.mix_a seed_edge_a r) prev next
let edge_token_b r prev next = Keyhash.token_b (Keyhash.mix_b seed_edge_b r) prev next
let sc_token_a v = Keyhash.mix_a seed_sc_a (View.digest_a v)
let sc_token_b v = Keyhash.mix_b seed_sc_b (View.digest_b v)

(** The incrementally maintained lanes recomputed from the logs and
    [sc] — the reference for the qcheck incrementality regression. *)
let lanes_scratch t =
  let ha = ref (sc_token_a t.sc) and hb = ref (sc_token_b t.sc) in
  Reg.Map.iter
    (fun r log ->
      Array.iteri
        (fun i m ->
          ha := !ha lxor msg_token_a r m;
          hb := !hb lxor msg_token_b r m;
          if i > 0 then begin
            ha := !ha lxor edge_token_a r log.(i - 1).mid m.mid;
            hb := !hb lxor edge_token_b r log.(i - 1).mid m.mid
          end)
        log)
    t.logs;
  (!ha, !hb)

let lanes t = (t.ha, t.hb)
let lane_a t = t.ha
let lane_b t = t.hb

let make ~layout =
  let nregs = Layout.nregs layout in
  let logs = ref Reg.Map.empty in
  for r = nregs - 1 downto 0 do
    logs :=
      Reg.Map.add r
        [| { mid = 0; value = Layout.init layout r; base = View.empty; rmw = false } |]
        !logs
  done;
  let t = { logs = !logs; sc = View.empty; next_mid = 1; ha = 0; hb = 0 } in
  let ha, hb = lanes_scratch t in
  { t with ha; hb }

let log t r =
  match Reg.Map.find_opt r t.logs with
  | Some l -> l
  | None -> Fmt.invalid_arg "Modlog.log: unknown location %d" r

let nmsgs t r = Array.length (log t r)
let msg_at t r pos = (log t r).(pos)
let max_msg t r = let l = log t r in l.(Array.length l - 1)

(** Position of message [mid] in [r]'s log (the timestamp order).
    O(log length); logs are short — one entry per write executed. *)
let pos_of_mid t r mid =
  let l = log t r in
  let rec go i =
    if i < 0 then
      Fmt.invalid_arg "Modlog.pos_of_mid: no message %d at location %d" mid r
    else if l.(i).mid = mid then i
    else go (i - 1)
  in
  go (Array.length l - 1)

(** Position the view holds for [r] — the lower bound on readable
    (and, +1, on writable) positions. *)
let view_pos t r v = pos_of_mid t r (View.mid v r)

(** Pointwise-newest join of two views, resolved through log positions
    (message ids do not order; see {!View}). *)
let join t va vb =
  View.fold
    (fun r m acc ->
      let cur = View.mid acc r in
      if cur = 0 || m = cur then View.set acc r m
      else if pos_of_mid t r m > pos_of_mid t r cur then View.set acc r m
      else acc)
    va vb

(** Is [va] pointwise no newer than [vb]? (View monotonicity checks.) *)
let view_leq t va vb =
  View.fold
    (fun r m acc -> acc && pos_of_mid t r m <= view_pos t r vb)
    va true

let sc t = t.sc

let with_sc t v =
  {
    t with
    sc = v;
    ha = t.ha lxor sc_token_a t.sc lxor sc_token_a v;
    hb = t.hb lxor sc_token_b t.sc lxor sc_token_b v;
  }

(** Insert a fresh message at position [at] of [r]'s log (messages at
    [>= at] shift up); [at = nmsgs] is an append. The caller enforces
    the model discipline ([at > view_pos] for RA, [at = nmsgs] for
    SRA); attachment is enforced here: inserting directly below an RMW
    message would detach it from the message it read. Returns the
    message so the writer can advance its view. *)
let insert ?(rmw = false) t r ~at ~value ~base =
  let l = log t r in
  let n = Array.length l in
  if at < 1 || at > n then
    Fmt.invalid_arg "Modlog.insert: position %d of %d at location %d" at n r;
  if at < n && l.(at).rmw then
    Fmt.invalid_arg
      "Modlog.insert: position %d at location %d would detach an RMW" at r;
  let m = { mid = t.next_mid; value; base; rmw } in
  let l' =
    Array.init (n + 1) (fun i ->
        if i < at then l.(i) else if i = at then m else l.(i - 1))
  in
  let prev = l.(at - 1).mid in
  let ha = ref (t.ha lxor msg_token_a r m lxor edge_token_a r prev m.mid) in
  let hb = ref (t.hb lxor msg_token_b r m lxor edge_token_b r prev m.mid) in
  if at < n then begin
    (* a mid-log insertion replaces the (prev, next) adjacency by
       (prev, m) and (m, next) *)
    let next = l.(at).mid in
    ha := !ha lxor edge_token_a r prev next lxor edge_token_a r m.mid next;
    hb := !hb lxor edge_token_b r prev next lxor edge_token_b r m.mid next
  end;
  ( m,
    {
      t with
      logs = Reg.Map.add r l' t.logs;
      next_mid = t.next_mid + 1;
      ha = !ha;
      hb = !hb;
    } )

(** Semantic equality: logs (order, values, bases) and the SC view.
    [next_mid] is determined by the logs and excluded. *)
let equal a b =
  View.equal a.sc b.sc
  && Reg.Map.equal
       (fun la lb ->
         Array.length la = Array.length lb
         && Array.for_all2
              (fun (x : msg) (y : msg) ->
                x.mid = y.mid && x.value = y.value && x.rmw = y.rmw
                && View.equal x.base y.base)
              la lb)
       a.logs b.logs

(** Feed the exact store components to [f] as a flat, self-delimiting
    integer stream — the store's part of {!Statekey.to_string}.
    Locations in increasing order, messages in log order. *)
let iter_key t f =
  Reg.Map.iter
    (fun r l ->
      f r;
      f (Array.length l);
      Array.iter
        (fun m ->
          f m.mid;
          f m.value;
          f (Bool.to_int m.rmw);
          f (View.cardinal m.base);
          View.iter
            (fun r' mid ->
              f r';
              f mid)
            m.base)
        l)
    t.logs;
  f (View.cardinal t.sc);
  View.iter
    (fun r mid ->
      f r;
      f mid)
    t.sc

let pp ppf t =
  Reg.Map.iter
    (fun r l ->
      if Array.length l > 1 then begin
        Fmt.pf ppf "%a:[" Reg.pp r;
        Array.iteri
          (fun i m ->
            if i > 0 then Fmt.sp ppf ();
            Fmt.pf ppf "%d#%d%s%a" m.value m.mid
              (if m.rmw then "!" else "")
              View.pp m.base)
          l;
        Fmt.pf ppf "]@,"
      end)
    t.logs;
  Fmt.pf ppf "sc=%a" View.pp t.sc
