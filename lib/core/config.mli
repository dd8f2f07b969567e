(** Mapper configuration: technology timing, engine policies and placer
    parameters, defaulting to the paper's experimental setup (Section V.A). *)

type budget = {
  wall_s : float option;
      (** wall-clock budget in seconds — searches stop between evaluations
          once it is spent and return best-so-far marked degraded.  Where the
          cut lands is inherently run-dependent; use [max_evals] when
          bit-reproducibility matters.  Measured on the monotonized
          {!Ion_util.Clock}, so a stepped wall clock cannot hang or
          instantly expire the budget. *)
  max_evals : int option;
      (** deterministic evaluation cap — at most this many full engine
          evaluations per search, truncating candidates in run order. *)
  deadline : Ion_util.Clock.deadline option;
      (** hard end-to-end deadline (armed by the service from the request's
          [deadline_ms]).  Unlike [wall_s] — which truncates gracefully to
          best-so-far — an expired deadline aborts the search at the next
          cooperative checkpoint (engine event batch, Pathfinder negotiation
          round, annealer move chunk) with the typed [Deadline_exceeded]
          mapper error. *)
}

val no_budget : budget
(** Both limits off — run to completion. *)

type t = {
  timing : Router.Timing.t;
  qspr_policy : Simulator.Engine.policy;
  quale_policy : Simulator.Engine.policy;
  m : int;  (** MVFB random seeds (the paper evaluates 25 and 100) *)
  sa_moves : int;
      (** delta-annealing move budget per stream — proposals scored by the
          incremental {!Estimator.Delta} model, not routed evaluations *)
  patience : int;  (** stop a local search after this many non-improving runs *)
  rng_seed : int;  (** root seed for all randomized placement *)
  jobs : int;
      (** worker domains for placement search fan-out; 1 = sequential.
          Results are bit-identical at any job count. *)
  prescreen_k : int option;
      (** estimator pre-screening: fully route only the [k] best-estimated
          candidate placements per search; [None] routes every candidate. *)
  budget : budget;
      (** anytime-search budgets for the randomized placers; see {!budget}. *)
  incremental_routing : bool;
      (** the incremental routing stack: dirty-net rerouting in the
          Pathfinder and the cross-candidate route cache in the engine.
          Engine latencies and traces are bit-identical either way (cache
          hits replay the uncached search verbatim); Pathfinder negotiation
          converges to an equal-quality fixpoint that may pick different
          equal-cost routes past iteration 1.  Off retains the legacy
          full-reroute / uncached path as the test oracle. *)
}

val default : t
(** Paper values: T_move=1us, T_turn=10us, T_1q=10us, T_2q=100us, channel
    capacity 2, m=100, sa_moves=20_000, patience 3, no pre-screening, no
    budgets, incremental routing on.  Only [jobs] comes from the
    environment, the [QSPR_JOBS] variable (default 1; invalid values fall
    back to 1); it cannot change any result.  Every other field changes
    through the [with_*] setters alone. *)

val with_m : int -> t -> t
val with_sa_moves : int -> t -> t
val with_seed : int -> t -> t
val with_jobs : int -> t -> t
val with_prescreen : int option -> t -> t
val with_budget : budget -> t -> t
val with_incremental : bool -> t -> t

val validate : t -> (t, string) result
(** Checks positivity of [m], [patience], [jobs], [prescreen_k] and the
    budget limits, and capacity sanity. *)
