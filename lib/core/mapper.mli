(** The QSPR mapper: scheduling, placement and routing of a QASM program
    onto an ion-trap fabric (the paper's core contribution).

    Typical use:
    {[
      let ctx = Mapper.create ~fabric (Qasm.Parser.parse_file "circuit.qasm") in
      let sol = Mapper.map_mvfb ctx in
      print_float sol.latency
    ]} *)

type t
(** A prepared mapping context: fabric graph, QIDG, UIDG (when the program
    is unitary), and the QSPR scheduling priorities. *)

val create :
  fabric:Fabric.Layout.t ->
  ?config:Config.t ->
  ?prebuilt:Fabric.Component.t * Fabric.Graph.t ->
  ?distance:Estimator.Distance.t ->
  ?shared_routes:Router.Route_cache.snapshot ->
  ?route_cache:Router.Route_cache.t ->
  Qasm.Program.t ->
  (t, string) result
(** Builds the routing graph and dependency graphs.  Fails on fabrics with
    fewer traps than qubits, on config errors, or on unroutable fabrics.

    The optional sharing hooks exist for the service's batch path, where
    many contexts target one fabric: [prebuilt] supplies an
    already-extracted component and its graph (skipping re-extraction and,
    critically, giving every context the same physical graph so warm route
    tables key correctly); [distance] supplies prebuilt estimator distance
    tables; [shared_routes] is a frozen per-fabric table snapshot attached
    to the engine's route cache before every run; [route_cache] overrides
    the domain-local cache with an explicit per-context one — the caller
    promises the context then runs on a single domain (use [jobs:1]), in
    exchange for exact per-context hit/miss counters. *)

val graph : t -> Fabric.Graph.t
val component : t -> Fabric.Component.t
val program : t -> Qasm.Program.t
val dag : t -> Qasm.Dag.t
val config : t -> Config.t

val ideal_latency : t -> float
(** The Section V.A baseline: QIDG critical path, no routing or congestion. *)

(** Why a mapping attempt failed — every search entry point returns these
    instead of strings, so callers (the retry cascade, fault campaigns, the
    CLI) can react to the failure class. *)
type error =
  | Unroutable of { net_id : int; src_trap : int; dst_trap : int; iterations : int }
      (** a routing net's endpoint traps are not connected (Pathfinder-style
          simultaneous routing; carries the negotiation round) *)
  | Deadlock of { stuck : int }
      (** the engine's event queue drained with instructions outstanding —
          operands unroutable even on an idle fabric *)
  | Livelock of { events : int; budget : int }
      (** the engine exceeded its event budget without completing *)
  | Infeasible_placement of string
      (** the (possibly degraded) fabric cannot hold the circuit at all *)
  | Budget_exhausted of { attempts : int; last : error }
      (** the retry cascade ran out of attempts; [last] is the final failure *)
  | Deadline_exceeded of { budget_ms : float }
      (** the request's end-to-end deadline ({!Config.budget.deadline})
          expired; the search was aborted at the next cooperative
          checkpoint — engine event batch, Pathfinder negotiation round or
          annealer move chunk — instead of running hot *)
  | Invalid of string  (** malformed arguments or non-unitary backward request *)

val error_to_string : error -> string
(** Human-readable rendering of a mapping failure. *)

val of_engine_error : Simulator.Engine.error -> error
(** Lift an engine failure into the mapper's error type. *)

type attempt = {
  stage : string;  (** cascade stage label: ["mvfb"], ["mc"], ["sa"], ... *)
  seed : int;  (** rng seed the stage ran under *)
  outcome : (float, error) result;  (** winning latency, or why it failed *)
}

type solution = {
  latency : float;  (** execution latency, us *)
  trace : Simulator.Trace.t;  (** forward-executable micro-command trace *)
  initial_placement : int array;  (** qubit -> trap, before execution *)
  final_placement : int array;  (** qubit -> trap, after execution *)
  direction : Placer.Mvfb.direction;  (** which MVFB pass won (Forward for non-MVFB flows) *)
  placement_runs : int;  (** total schedule-and-route evaluations *)
  run_latencies : float list;  (** latency of every placement run, in order *)
  engine_evals : int;
      (** engine evaluations actually performed — less than [placement_runs]
          when duplicates were deduplicated or candidates pre-screened out *)
  cpu_time_s : float;
  attempts : attempt list;
      (** full audit of the search attempts that produced this solution, in
          order; single-stage searches record exactly one entry *)
  degraded : bool;
      (** the solution is best-so-far rather than the full search's best: a
          budget truncated the search, or earlier cascade stages failed *)
  lower_bound_us : float;
      (** certified admissible latency lower bound for this program, fabric
          and initial placement ({!Estimator.Bound}): no legal execution can
          beat it, so [latency /. lower_bound_us - 1.] is a certified
          optimality gap *)
  bound_kind : Estimator.Bound.kind;  (** which bound attains [lower_bound_us] *)
}

val run_forward : t -> int array -> (Simulator.Engine.result, Simulator.Engine.error) result
(** One forward engine run (QIDG, schedule S, QSPR policy) from a given
    placement — the building block of all placers. *)

val run_backward : t -> int array -> (Simulator.Engine.result, Simulator.Engine.error) result
(** One backward run: UIDG under the reversed schedule S*.  Fails for
    non-unitary programs. *)

val run_with :
  t ->
  policy:Simulator.Engine.policy ->
  priorities:float array ->
  placement:int array ->
  (Simulator.Engine.result, Simulator.Engine.error) result
(** Escape hatch for custom policies (used by the QUALE mode and the
    ablation benches). *)

val map_mvfb : ?m:int -> ?jobs:int -> ?prescreen_k:int -> t -> (solution, error) result
(** The full QSPR flow: MVFB placement (defaulting to the config's [m]),
    best of all forward/backward runs; backward winners are reported as
    reversed traces (Section IV.A).  [jobs] (default: the config's [jobs])
    fans the [m] independent seeds out over that many domains; any job
    count returns a bit-identical solution.

    [prescreen_k] (default: the config's [prescreen_k], off in
    {!Config.default}) estimates every unique seed placement with the
    {!estimate} model and locally searches only the [k] best-estimated;
    [0] forces pre-screening off regardless of the config. *)

val map_monte_carlo : runs:int -> ?jobs:int -> ?prescreen_k:int -> t -> (solution, error) result
(** Best of [runs] random center placements under the QSPR engine.  [jobs]
    and [prescreen_k] behave as in {!map_mvfb}: parallel fan-out of the
    independent runs with bit-identical results at any job count, and
    estimator pre-screening routing only the [k] best-estimated unique
    candidates.

    The config's {!Config.budget} makes the search anytime: an evaluation
    cap truncates candidates deterministically in run order, a wall-clock
    budget stops between evaluation chunks; either marks the solution
    [degraded]. *)

val map_annealing : ?evaluations:int -> ?jobs:int -> ?prescreen_k:int -> t -> (solution, error) result
(** Simulated-annealing placement ({!Placer.Annealing}) under the QSPR
    engine, seeded from the config's [rng_seed].  [evaluations] defaults to
    the config's [m] so the budget matches the MVFB/MC comparison.  The
    anneal itself is sequential; [prescreen_k] draws that many candidate
    starts and anneals from the best-estimated one, with [jobs] fanning the
    estimates out.  The config's {!Config.budget} caps the cooling schedule
    (deterministic) and the wall clock (anytime), marking the solution
    [degraded] when cut. *)

val map_portfolio : ?m:int -> ?sa_moves:int -> ?jobs:int -> t -> (solution, error) result
(** Racing placer portfolio ({!Placer.Portfolio}): seeded MVFB, Monte-Carlo,
    the classic routed anneal (exactly {!map_annealing}'s search, so at
    matched parameters the portfolio's best latency is never worse than it)
    and two delta-annealing streams ({!Placer.Annealing.search_delta}, each
    spending [sa_moves] incremental {!Estimator.Delta} proposals and routing
    only improved incumbents), fanned over [jobs] domains.

    [m] (default config [m]) is the per-strategy routed-evaluation budget:
    MVFB seeds, MC runs, classic-SA schedule length.  [sa_moves] defaults to
    the config's [sa_moves] (20_000 in {!Config.default}).  Every
    strategy derives its randomness from the config seed alone, strategies
    map over the pool in fixed order, and the winner is the lowest
    [(latency, strategy order)], so the solution is bit-identical at any
    [jobs] count.  Failed strategies stay visible in [attempts]
    (stage ["portfolio:<name>"]); the solution is [Error] only when every
    strategy fails (the first failure).  The config's {!Config.budget}
    applies per strategy; a truncated winner marks the solution
    [degraded]. *)

val map_center : t -> (solution, error) result
(** Single deterministic center placement under the QSPR engine. *)

type retry = {
  max_attempts : int;  (** total stages tried before giving up (default 5) *)
  reseed_step : int;  (** seed increment between stages (default 1) *)
  relax_trap_candidates : int;
      (** extra per-issue trap candidates for the final relaxed stage
          (default 2) — the event-driven router's congestion relaxation *)
}

val default_retry : retry

val map_robust : ?retry:retry -> ?jobs:int -> t -> (solution, error) result
(** The hardened pipeline: escalate deterministically through
    mvfb -> mvfb re-seeded -> monte-carlo -> annealing -> mvfb under a
    relaxed routing policy, stopping at the first success, bounded by
    [retry.max_attempts].  The winning solution carries the full [attempts]
    audit (failures included) and is marked [degraded] when any earlier
    stage failed.  When every attempt fails the result is
    [Budget_exhausted] carrying the last underlying failure.  The cascade
    is a pure function of the context and [retry] — same inputs, same
    stages, same seeds. *)

val estimate : t -> int array -> float
(** LEQA-style latency estimate ({!Estimator.Model}) of an initial
    placement: no routing, no engine — microseconds, comparable to (and
    correlating with) {!run_forward} latencies.  Builds the distance model
    on first use; subsequent calls are allocation-free. *)

val estimator_model : t -> Estimator.Model.t
(** The underlying estimator (distance tables + DAG census), built lazily
    on first use and cached on the context. *)

val certified_bound : t -> initial_placement:int array -> Estimator.Bound.t
(** The full admissible lower-bound catalog ({!Estimator.Bound.compute})
    for an initial placement on this context — the values every solution
    carries in [lower_bound_us]/[bound_kind].  Pure in (context,
    placement); forces the estimator model for its distance tables. *)

val qspr_priorities : t -> float array
(** The Section III priorities driving the forward schedule. *)
