(** Minimal JSON parser/printer — the daemon's wire format.

    Recursive descent over the input string; the printer mirrors
    {!Telemetry.Sink}'s escaping so golden-byte tests can treat job
    records and NDJSON telemetry as one dialect. Deliberately small:
    flat objects of scalars, lists and shallow nesting cover every
    record serve produces (job specs, acks, checkpoints, the atlas). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Fail of string

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

(* Scalars and keys go through Telemetry.Sink's printer, so the two
   wire formats agree byte for byte. *)
let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Telemetry.Sink.add_value b (B v)
  | Int n -> Telemetry.Sink.add_value b (I n)
  | Float f -> Telemetry.Sink.add_value b (F f)
  | String s -> Telemetry.Sink.add_value b (S s)
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Telemetry.Sink.add_value b (S k);
          Buffer.add_char b ':';
          add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type state = { s : string; mutable i : int }

let error st fmt =
  Fmt.kstr (fun msg -> raise (Fail (Fmt.str "at byte %d: %s" st.i msg))) fmt

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let skip_ws st =
  while
    st.i < String.length st.s
    &&
    match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.i <- st.i + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.i <- st.i + 1
  | Some c' -> error st "expected %C, got %C" c c'
  | None -> error st "expected %C, got end of input" c

let literal st word v =
  let n = String.length word in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = word then begin
    st.i <- st.i + n;
    v
  end
  else error st "expected %s" word

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.i <- st.i + 1
    | Some '\\' -> (
        st.i <- st.i + 1;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            st.i <- st.i + 1;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if st.i + 4 > String.length st.s then
                  error st "truncated \\u escape";
                let hex = String.sub st.s st.i 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> error st "bad \\u escape %S" hex
                in
                (* the wire format only ever emits \u00XX control
                   bytes; reject the rest rather than mis-decode *)
                if code > 0x7f then
                  error st "non-ASCII \\u%s escape unsupported" hex;
                st.i <- st.i + 4;
                Buffer.add_char b (Char.chr code)
            | c -> error st "bad escape \\%c" c);
            go ())
    | Some c when Char.code c < 0x20 -> error st "raw control byte in string"
    | Some c ->
        st.i <- st.i + 1;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.i in
  let is_float = ref false in
  let digits () =
    while
      st.i < String.length st.s
      && match st.s.[st.i] with '0' .. '9' -> true | _ -> false
    do
      st.i <- st.i + 1
    done
  in
  if peek st = Some '-' then st.i <- st.i + 1;
  digits ();
  if peek st = Some '.' then begin
    is_float := true;
    st.i <- st.i + 1;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      st.i <- st.i + 1;
      (match peek st with
      | Some ('+' | '-') -> st.i <- st.i + 1
      | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub st.s start (st.i - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error st "bad number %S" text
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> error st "bad number %S" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
      st.i <- st.i + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.i <- st.i + 1;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.i <- st.i + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.i <- st.i + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> error st "expected ',' or '}' in object"
        in
        fields []
  | Some '[' ->
      st.i <- st.i + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.i <- st.i + 1;
        List []
      end
      else
        let rec elts acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.i <- st.i + 1;
              elts (v :: acc)
          | Some ']' ->
              st.i <- st.i + 1;
              List (List.rev (v :: acc))
          | _ -> error st "expected ',' or ']' in array"
        in
        elts []
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected %C" c

let parse s =
  let st = { s; i = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.i <> String.length s then error st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let kind_of = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_string = function
  | String s -> Ok s
  | v -> Error (Fmt.str "expected string, got %s" (kind_of v))

let get_int = function
  | Int n -> Ok n
  | v -> Error (Fmt.str "expected int, got %s" (kind_of v))

let get_bool = function
  | Bool b -> Ok b
  | v -> Error (Fmt.str "expected bool, got %s" (kind_of v))

let get_list = function
  | List xs -> Ok xs
  | v -> Error (Fmt.str "expected array, got %s" (kind_of v))

let field obj name get =
  match member name obj with
  | None -> Error (Fmt.str "missing field %S" name)
  | Some v -> (
      match get v with
      | Ok x -> Ok x
      | Error e -> Error (Fmt.str "field %S: %s" name e))

let field_opt obj name get =
  match member name obj with
  | None | Some Null -> Ok None
  | Some v -> (
      match get v with
      | Ok x -> Ok (Some x)
      | Error e -> Error (Fmt.str "field %S: %s" name e))
