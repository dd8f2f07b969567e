(** Seeded request generators for the three benchmark workloads.

    A workload is an endless, deterministic stream of [qspr-job/2] request
    lines: request [k] is a pure function of [(seed, k)].  The program
    under test only ever sees these lines. *)

type request = {
  line : string;  (** the request line handed to [Scheduler.handle_line] *)
  gates : int;  (** gate count of the request's program *)
}

type t = {
  name : string;
  cycle : int;
      (** requests per cycle: one Table-1 rotation, one circuit pair, one
          1k/2k/4k/8k size ladder.  Runs measure whole cycles only, so every
          run sees the same request mix. *)
  quality_cycles : int;
      (** cycles every run completes; the mapped-latency quality number is
          taken over exactly these, so it is a pure function of the seed *)
  repeat_prefix : int;
      (** leading requests re-run on a fresh service to check that the
          deterministic encodings repeat *)
  warm_fabric : bool;
      (** every measured request reuses the fabric the warm-up registered:
          a registry miss means the run measures another code path *)
  warmup : request;
      (** the first request of each freshly created service; the same for
          every run seed, so every run sets up with the same work *)
  request : int -> request;  (** request [k], [k >= 0] *)
}

val names : string list
(** ["serve-table1-warm"; "serve-cold-fabric"; "map-scale"] *)

val make : string -> seed:int -> t option
(** The named workload's stream for [seed]; [None] for an unknown name. *)

val config : Qspr.Config.t
(** The mapper configuration every benchmark service runs with, written out
    field by field so no [QSPR_*] environment variable can change it:
    paper timing and policies, [m = 100] (requests override it),
    [sa_moves = 20_000], [patience = 3], [jobs = 1], no pre-screening, no
    budgets, incremental routing on. *)

val limits : Service.Scheduler.limits
(** Service limits: [jobs = 1] (every request runs inline on the calling
    domain) and otherwise the service defaults, pinned. *)
