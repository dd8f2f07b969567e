(** Minimal JSON document construction, serialization and parsing.

    The experiment and mapper results are exported as JSON for downstream
    tooling, and the service protocol (qspr-job/2 / qspr-result/3) reads
    line-delimited JSON back in; this is the small, dependency-free
    emitter and parser behind both. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serializes with correct string escaping; [indent] (default true) pretty
    prints with two-space indentation.  Non-finite floats serialize as
    [null] (JSON has no representation for them). *)

val escape_string : string -> string
(** The quoted, escaped form of a string — exposed for tests. *)

val parse : string -> (t, string) result
(** Parses one RFC-8259 JSON document (leading/trailing whitespace
    allowed, anything else after the document is an error).  Numeric
    literals without ['.'], ['e'] or ['E'] that fit in an OCaml [int]
    parse as [Int]; all other numbers parse as [Float].  [\uXXXX]
    escapes decode to UTF-8; surrogate pairs are combined and lone
    surrogates rejected.  Errors carry a message and byte offset. *)

val member : string -> t -> t option
(** [member key t] is the value bound to [key] when [t] is an [Obj]
    (first binding wins), [None] otherwise. *)
