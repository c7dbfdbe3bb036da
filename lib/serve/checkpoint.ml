(** {!Mc.checkpoint} as a key log plus a JSON head.

    The head's encoding is deliberately plain: schedule elements
    ([Exec.elt = Pid.t * Reg.t option]) as two-element arrays with
    [null] for the no-register case; everything else is counters and
    strings. The keys never pass through JSON: the engine hands each
    cut its new claims already in the log's 16-byte layout, and they
    are appended as they are. A resumed run replays the pending paths
    deterministically, so head plus log are the whole exploration
    state — no process image, no heap.

    The keys only mean something to the exploration that produced
    them, so every head carries an [identity] field naming that
    exploration, and {!load} refuses a head whose identity differs. *)

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

(* Version of the visited-set keys a cut stores ([Mc.Fingerprint] over
   [Memsim.Statekey]): bump it whenever keying changes, so cuts written
   by older code are refused rather than resumed. *)
let key_format = 1

(* Version of the file layout. Format 1 was one JSON file with the
   whole visited set as a ["visited"] array; format 2 is a head plus
   an append-only key log. *)
let format = 2

let identity ~spec =
  Digest.to_hex (Digest.string (Printf.sprintf "keys-v%d:%s" key_format spec))

let log_path path = path ^ ".keys"

let head_to_json ~identity ~keys (c : Mc.checkpoint) : Json.t =
  Json.Obj
    [
      ("type", Json.String "checkpoint");
      ("format", Json.Int format);
      ("states", Json.Int c.Mc.ck_states);
      ("transitions", Json.Int c.Mc.ck_transitions);
      ("bound_hits", Json.Int c.Mc.ck_bound_hits);
      ("keys", Json.Int keys);
      ("pending", Json.List (List.map path_to_json c.Mc.ck_pending));
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

let ( let* ) = Result.bind

let head_of_json ~identity (j : Json.t) : (Mc.checkpoint * int, string) result
    =
  let* () =
    match Json.member "type" j with
    | Some (Json.String "checkpoint") -> Ok ()
    | _ -> Error "not a checkpoint record"
  in
  let* () =
    match Json.member "format" j with
    | Some (Json.Int f) when f = format -> Ok ()
    | Some (Json.Int f) ->
        Error (Printf.sprintf "checkpoint format %d, expected %d" f format)
    | None when Json.member "visited" j <> None ->
        Error
          (Printf.sprintf
             "checkpoint format 1 (one file with a visited array), expected %d"
             format)
    | _ -> Error "checkpoint has no format"
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
  let* keys = Json.field j "keys" Json.get_int in
  let* () =
    if keys < 0 || keys > max_int / Mc.Fingerprint.bytes then
      Error (Printf.sprintf "checkpoint: key count %d out of range" keys)
    else Ok ()
  in
  let* pending = Json.field j "pending" Json.get_list in
  let* ck_pending = map_r path_of_json pending in
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
    ( {
        Mc.ck_states;
        ck_transitions;
        ck_bound_hits;
        ck_pending;
        ck_keys = Bytes.empty;
        ck_violations;
        ck_deadlocks;
      },
      keys )

type t = { identity : string; path : string; mutable keys : int }

let keys t = t.keys

let remove ~path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; log_path path ]

let create ~identity ~path =
  remove ~path;
  close_out (open_out_bin (log_path path));
  { identity; path; keys = 0 }

(* The first [n] bytes of [file]; [Error] if it is shorter. *)
let read_prefix file n =
  match open_in_bin file with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let have = in_channel_length ic in
          if have < n then Error (Printf.sprintf "%d bytes" have)
          else
            let buf = Bytes.create n in
            really_input ic buf 0 n;
            Ok buf)

let load ~identity ~path =
  let* head =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | s -> Ok s
  in
  let* j = Json.parse head in
  let* c, keys = head_of_json ~identity j in
  let log = log_path path and n = keys * Mc.Fingerprint.bytes in
  let* ck_keys =
    Result.map_error
      (fun got ->
        Printf.sprintf "key log %s holds %s, the head needs %d keys (%d bytes)"
          log got keys n)
      (read_prefix log n)
  in
  (* a killed cut may have appended past the head: drop the torn tail so
     the next cut's keys follow this one's *)
  let* () =
    match Unix.truncate log n with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  Ok ({ c with Mc.ck_keys }, { identity; path; keys })

let save t (c : Mc.checkpoint) =
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_creat; Open_binary ]
      0o644 (log_path t.path)
  in
  output_bytes oc c.Mc.ck_keys;
  close_out oc;
  t.keys <- t.keys + (Bytes.length c.Mc.ck_keys / Mc.Fingerprint.bytes);
  let head =
    Json.to_string (head_to_json ~identity:t.identity ~keys:t.keys c)
  in
  let tmp = t.path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc head;
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp t.path;
  Bytes.length c.Mc.ck_keys + String.length head + 1
