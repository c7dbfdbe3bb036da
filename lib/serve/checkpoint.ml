(** {!Mc.checkpoint} <-> JSON, plus atomic file persistence.

    The encoding is deliberately plain: schedule elements
    ([Exec.elt = Pid.t * Reg.t option]) as two-element arrays with
    [null] for the no-register case, fingerprints as their two lanes.
    Everything else in the cut is counters and strings. A resumed run
    replays the pending paths deterministically, so the bytes here are
    the whole exploration state — no process image, no heap.

    The fingerprints only mean something to the exploration that
    produced them, so every cut carries an [identity] field naming that
    exploration, and {!load} refuses a cut whose identity differs. *)

open Memsim

let elt_to_json ((p, r) : Exec.elt) : Json.t =
  Json.List
    [
      Json.Int (Pid.to_int p);
      (match r with None -> Json.Null | Some reg -> Json.Int (Reg.to_int reg));
    ]

let elt_of_json (j : Json.t) : (Exec.elt, string) result =
  match j with
  | Json.List [ Json.Int p; Json.Null ] -> Ok (Pid.of_int p, None)
  | Json.List [ Json.Int p; Json.Int r ] ->
      Ok (Pid.of_int p, Some (Reg.of_int r))
  | _ -> Error "schedule element: expected [pid, reg|null]"

let path_to_json path = Json.List (List.map elt_to_json path)

let fp_to_json (fp : Mc.Fingerprint.t) : Json.t =
  Json.List [ Json.Int fp.Mc.Fingerprint.a; Json.Int fp.Mc.Fingerprint.b ]

let fp_of_json = function
  | Json.List [ Json.Int a; Json.Int b ] -> Ok { Mc.Fingerprint.a; b }
  | _ -> Error "fingerprint: expected [a, b]"

(* Version of the visited-set keys a cut stores ([Mc.Fingerprint] over
   [Memsim.Statekey]): bump it whenever keying changes, so cuts written
   by older code are refused rather than resumed. *)
let key_format = 1

let identity ~spec =
  Digest.to_hex (Digest.string (Printf.sprintf "keys-v%d:%s" key_format spec))

let to_json ~identity (c : Mc.checkpoint) : Json.t =
  Json.Obj
    [
      ("type", Json.String "checkpoint");
      ("states", Json.Int c.Mc.ck_states);
      ("transitions", Json.Int c.Mc.ck_transitions);
      ("bound_hits", Json.Int c.Mc.ck_bound_hits);
      ("pending", Json.List (List.map path_to_json c.Mc.ck_pending));
      ("visited", Json.List (List.map fp_to_json c.Mc.ck_visited));
      ( "violations",
        Json.List
          (List.map
             (fun (msg, path) ->
               Json.Obj
                 [
                   ("message", Json.String msg); ("path", path_to_json path);
                 ])
             c.Mc.ck_violations) );
      ("deadlocks", Json.List (List.map path_to_json c.Mc.ck_deadlocks));
      ("identity", Json.String identity);
    ]

(* Sequence [Result] over a list, keeping the first error. *)
let rec map_r f = function
  | [] -> Ok []
  | x :: xs -> (
      match f x with
      | Error _ as e -> e
      | Ok y -> ( match map_r f xs with Ok ys -> Ok (y :: ys) | e -> e))

let path_of_json j =
  match Json.get_list j with Error e -> Error e | Ok xs -> map_r elt_of_json xs

let of_json ~identity (j : Json.t) : (Mc.checkpoint, string) result =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "type" j with
    | Some (Json.String "checkpoint") -> Ok ()
    | _ -> Error "not a checkpoint record"
  in
  let* () =
    match Json.member "identity" j with
    | Some (Json.String id) when id = identity -> Ok ()
    | Some (Json.String id) ->
        Error
          (Printf.sprintf "checkpoint identity mismatch: cut is %s, job is %s"
             id identity)
    | _ -> Error "checkpoint has no identity"
  in
  let* ck_states = Json.field j "states" Json.get_int in
  let* ck_transitions = Json.field j "transitions" Json.get_int in
  let* ck_bound_hits = Json.field j "bound_hits" Json.get_int in
  let* pending = Json.field j "pending" Json.get_list in
  let* ck_pending = map_r path_of_json pending in
  let* visited = Json.field j "visited" Json.get_list in
  let* ck_visited = map_r fp_of_json visited in
  let* violations = Json.field j "violations" Json.get_list in
  let* ck_violations =
    map_r
      (fun v ->
        let* msg = Json.field v "message" Json.get_string in
        let* path =
          match Json.member "path" v with
          | Some p -> path_of_json p
          | None -> Error "violation: missing field \"path\""
        in
        Ok (msg, path))
      violations
  in
  let* deadlocks = Json.field j "deadlocks" Json.get_list in
  let* ck_deadlocks = map_r path_of_json deadlocks in
  Ok
    {
      Mc.ck_states;
      ck_transitions;
      ck_bound_hits;
      ck_pending;
      ck_visited;
      ck_violations;
      ck_deadlocks;
    }

let save ~identity ~path (c : Mc.checkpoint) =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string (to_json ~identity c));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let load ~identity ~path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | s -> (
      match Json.parse s with Error e -> Error e | Ok j -> of_json ~identity j)
