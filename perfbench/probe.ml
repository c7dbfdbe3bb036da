(** Measurement primitives shared by every benchmark mode: a monotonic
    nanosecond clock, all-domain GC counters, the process's peak memory,
    and the one-line JSON record each mode prints last. *)

(** Monotonic nanoseconds. The external is unboxed and [noalloc], so a
    reading costs no minor words and can bracket allocation counts. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(** Minor words allocated by the calling domain (unboxed, no
    allocation) — exact for a single-domain section. *)
let[@inline] domain_words () = int_of_float (Gc.minor_words ())

(** All-domain GC totals. [Gc.quick_stat] folds in the counters of
    domains that have terminated, so a delta taken after every worker
    domain has joined counts every domain's allocation; [Gc.minor_words]
    would count the caller's only. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(** The major heap's high-water mark so far, in MB. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

let cpus () = Domain.recommended_domain_count ()

(** JSON values for the record printers. *)
type v =
  | I of int
  | F of float
  | B of bool
  | S of string
  | O of (string * v) list

let rec pp_v b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | F f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | B x -> Buffer.add_string b (if x then "true" else "false")
  | S s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | O fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          pp_v b (S k);
          Buffer.add_string b ": ";
          pp_v b v)
        fields;
      Buffer.add_char b '}'

(** Print one record as the last line of standard output. *)
let emit fields =
  let b = Buffer.create 1024 in
  pp_v b (O fields);
  print_string (Buffer.contents b);
  print_newline ()
