(** In-memory span recorder for the traced run.

    A span times one call into a layer's public function from the
    benchmark's side: name, start and end on the wall clock, the span that
    caused it, the request it belongs to, and the exact minor words the
    call allocated.  Spans stay in memory until {!write}. *)

type t = {
  id : int;
  name : string;
  start_ms : float;  (** wall clock, ms since the recorder was created *)
  end_ms : float;
  parent : int;  (** id of the enclosing span, [-1] for a root *)
  request : int;  (** request index; setup requests are negative *)
  minor_words : float;
}

type recorder

val create : unit -> recorder

val now_ms : recorder -> float
(** Wall clock in ms since [create]. *)

val root : recorder -> request:int -> string -> (int -> 'a) -> 'a * t
(** [root r ~request name f] runs [f id] inside a new root span [id] and
    returns its result with the finished span. *)

val child : recorder -> parent:int -> string -> (unit -> 'a) -> 'a
(** A span under [parent]; the request is the parent's. *)

val spans : recorder -> t list
(** Every finished span, in the order they were opened. *)

val children : recorder -> int -> t list
(** The finished spans whose parent is the given id. *)

val write : recorder -> string -> unit
(** Writes one JSON object per span, one per line. *)
