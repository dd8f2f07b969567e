(** Placer names and the one dispatch from a name to its {!Mapper} search.

    Every front end — [qspr map], [qspr audit] and the service — resolves a
    placer name here and runs it through {!map}, so a name means the same
    search everywhere. *)

type t = Mvfb | Mc | Sa | Portfolio | Center | Quale | Robust

val all : t list
(** Every kind, in [mvfb|mc|sa|portfolio|center|quale|robust] order. *)

val to_string : t -> string
val of_string : string -> t option

val resolve : allowed:t list -> string -> (t, string) result
(** {!of_string} restricted to [allowed].  The error reads
    ["unknown placer NAME (a|b|...)"], listing [allowed] in its order. *)

val policy : t -> Config.t -> Simulator.Engine.policy
(** The engine policy the kind's traces obey — the config's QUALE policy
    for {!Quale}, its QSPR policy otherwise — and so the one to certify
    them under. *)

val map :
  ?jobs:int -> ?prescreen_k:int -> t -> Mapper.t -> (Mapper.solution, Mapper.error) result
(** Runs the kind's search with the context config's [m] as its budget
    (MVFB seeds, MC runs, SA evaluations, portfolio per-strategy budget).
    [jobs] and [prescreen_k] reach the placers that take them and default
    as there; {!Center} and {!Quale} route one placement and ignore both. *)
