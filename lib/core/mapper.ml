open Qasm
module Engine = Simulator.Engine
module Trace = Simulator.Trace

type t = {
  graph : Fabric.Graph.t;
  comp : Fabric.Component.t;
  config : Config.t;
  program : Program.t;
  dag : Dag.t;
  udag : Dag.t option;
  priorities : float array;
  backward_priorities : float array option;
  estimator : Estimator.Model.t Lazy.t;
      (* built on first use (one Dijkstra per trap); forced on the main
         domain before any pool fan-out — Lazy.force is not domain-safe *)
  shared_routes : Router.Route_cache.snapshot option;
      (* per-fabric warm tables published by the service; attached to the
         engine's route cache before every run *)
  route_cache : Router.Route_cache.t option;
      (* explicit per-context cache overriding the domain-local one; the
         holder promises the context runs on a single domain *)
}

(* ------------------------------------------------------------------ *)
(* Typed mapping failures                                             *)

type error =
  | Unroutable of { net_id : int; src_trap : int; dst_trap : int; iterations : int }
  | Deadlock of { stuck : int }
  | Livelock of { events : int; budget : int }
  | Infeasible_placement of string
  | Budget_exhausted of { attempts : int; last : error }
  | Deadline_exceeded of { budget_ms : float }
  | Invalid of string

let rec error_to_string = function
  | Unroutable { net_id; src_trap; dst_trap; iterations } ->
      Printf.sprintf "unroutable: net %d (trap %d -> trap %d) has no route after %d iteration(s)"
        net_id src_trap dst_trap iterations
  | Deadlock { stuck } ->
      Printf.sprintf "deadlock: %d instruction(s) unroutable with an idle fabric" stuck
  | Livelock { events; budget } ->
      Printf.sprintf "livelock: %d events exceeded the budget of %d" events budget
  | Infeasible_placement msg -> "infeasible placement: " ^ msg
  | Budget_exhausted { attempts; last } ->
      Printf.sprintf "budget exhausted after %d attempt(s); last failure: %s" attempts
        (error_to_string last)
  | Deadline_exceeded { budget_ms } ->
      Printf.sprintf "deadline exceeded: the %.1f ms request budget expired mid-search" budget_ms
  | Invalid msg -> msg

let of_engine_error = function
  | Engine.Invalid msg -> Invalid msg
  | Engine.Deadlock { stuck } -> Deadlock { stuck }
  | Engine.Livelock { events; budget } -> Livelock { events; budget }

type attempt = { stage : string; seed : int; outcome : (float, error) result }

type solution = {
  latency : float;
  trace : Trace.t;
  initial_placement : int array;
  final_placement : int array;
  direction : Placer.Mvfb.direction;
  placement_runs : int;
  run_latencies : float list;
  engine_evals : int;
  cpu_time_s : float;
  attempts : attempt list;
  degraded : bool;
  lower_bound_us : float;
  bound_kind : Estimator.Bound.kind;
}

let graph t = t.graph
let component t = t.comp
let program t = t.program
let dag t = t.dag
let config t = t.config
let qspr_priorities t = t.priorities
let t_udag t = t.udag

let ideal_latency t = Baseline.latency_of_dag t.config.Config.timing t.dag

(* Priorities that make the backward (UIDG) run follow S*, the reverse of
   the forward schedule S (Section IV.A).  UIDG gate k corresponds to QIDG
   gate (G-1-k); its priority is the forward rank of that gate, so the last
   instruction of S issues first.  Declarations complete instantly and get a
   priority above every gate. *)
let backward_priorities_of dag udag fprios =
  let n = Dag.num_nodes dag in
  let order = Scheduler.Priority.order_of_priorities fprios in
  let rank = Array.make n 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  let gate_nodes d =
    Array.of_list
      (List.filter (fun i -> Instr.is_gate (Dag.node d i).Dag.instr) (List.init (Dag.num_nodes d) Fun.id))
  in
  let fg = gate_nodes dag and bg = gate_nodes udag in
  let g = Array.length fg in
  let prios = Array.make (Dag.num_nodes udag) (float_of_int (2 * n)) in
  Array.iteri (fun k u -> prios.(u) <- float_of_int rank.(fg.(g - 1 - k))) bg;
  prios

let create ~fabric ?(config = Config.default) ?prebuilt ?distance ?shared_routes ?route_cache
    program =
  match Config.validate config with
  | Error _ as e -> e
  | Ok config -> (
      let extracted =
        match prebuilt with
        | Some (comp, graph) when Fabric.Graph.component graph == comp -> Ok (comp, graph)
        | Some _ -> Error "Mapper.create: prebuilt graph was not built from the given component"
        | None -> (
            match Fabric.Component.extract fabric with
            | Error e -> Error ("Mapper.create: " ^ e)
            | Ok comp -> Ok (comp, Fabric.Graph.build comp))
      in
      match extracted with
      | Error _ as e -> e
      | Ok (comp, graph) ->
          let nq = Program.num_qubits program in
          if nq = 0 then Error "Mapper.create: program declares no qubits"
          else
          match Fabric.Component.capacity_error ~num_qubits:nq comp with
          | Some msg -> Error ("Mapper.create: " ^ msg)
          | None -> begin
            let dag = Dag.of_program program in
            let delay = Router.Timing.gate_delay config.Config.timing in
            let priorities = Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay dag in
            let udag, backward_priorities =
              match Dag.reverse dag with
              | Ok u -> (Some u, Some (backward_priorities_of dag u priorities))
              | Error _ -> (None, None)
            in
            let estimator =
              lazy
                (Estimator.Model.create ~graph ~timing:config.Config.timing ?distance ~priorities
                   dag)
            in
            Ok
              {
                graph;
                comp;
                config;
                program;
                dag;
                udag;
                priorities;
                backward_priorities;
                estimator;
                shared_routes;
                route_cache;
              }
          end)

(* The route cache rides on the evaluating domain (placement search fans
   run_forward/run_backward out over pool workers, each of which keeps its
   own), so it must be fetched inside the engine call, not captured when the
   closure is built on the main domain.  A context-held cache overrides the
   domain-local one (the holder promises single-domain use); any shared
   snapshot for this context's graph is attached as the cache's read-only
   fallback layer before the run. *)
let route_cache_of t =
  if not t.config.Config.incremental_routing then None
  else begin
    let cache =
      match t.route_cache with Some c -> c | None -> Router.Route_cache.domain_local ()
    in
    (match t.shared_routes with
    | Some snap when Router.Route_cache.snapshot_graph snap == t.graph ->
        Router.Route_cache.attach cache snap
    | Some _ | None -> Router.Route_cache.for_graph cache t.graph);
    Some cache
  end

(* The request deadline's cancellation checkpoint, armed from the config's
   budget: raises Ion_util.Clock.Expired once the deadline passes.  Handed
   to the engine (polled per event batch); [guarded] below translates the
   raise into the typed error at every map_* boundary. *)
let cancel_of t = Ion_util.Clock.guard t.config.Config.budget.Config.deadline

let guarded f =
  try f ()
  with Ion_util.Clock.Expired { budget_ms } -> Error (Deadline_exceeded { budget_ms })

let run_with t ~policy ~priorities ~placement =
  Engine.run ~graph:t.graph ~timing:t.config.Config.timing ~policy ~dag:t.dag ~priorities ~placement
    ?route_cache:(route_cache_of t) ?cancel:(cancel_of t) ()

let run_forward t placement =
  Engine.run ~graph:t.graph ~timing:t.config.Config.timing ~policy:t.config.Config.qspr_policy
    ~dag:t.dag ~priorities:t.priorities ~placement ?route_cache:(route_cache_of t)
    ?cancel:(cancel_of t) ()

let run_backward t placement =
  match (t.udag, t.backward_priorities) with
  | Some udag, Some prios ->
      Engine.run ~graph:t.graph ~timing:t.config.Config.timing ~policy:t.config.Config.qspr_policy
        ~dag:udag ~priorities:prios ~placement ?route_cache:(route_cache_of t)
        ?cancel:(cancel_of t) ()
  | None, _ | _, None ->
      Error
        (Engine.Invalid
           "Mapper.run_backward: program is not unitary, the uncompute graph does not exist")

(* UIDG node k corresponds to forward node: declarations map to themselves,
   the j-th gate (in UIDG program order) to the (G-1-j)-th forward gate.
   Backward traces must have their instruction ids rewritten through this
   map so a reversed trace's gate events reference the forward program —
   consumers (noise replay, JSON export) look gates up there. *)
let backward_id_map dag udag =
  let gate_nodes d =
    Array.of_list
      (List.filter (fun i -> Instr.is_gate (Dag.node d i).Dag.instr) (List.init (Dag.num_nodes d) Fun.id))
  in
  let fg = gate_nodes dag and bg = gate_nodes udag in
  let g = Array.length fg in
  let map = Array.init (Dag.num_nodes udag) Fun.id in
  Array.iteri (fun k u -> map.(u) <- fg.(g - 1 - k)) bg;
  map

let remap_trace_ids map trace =
  List.map
    (fun cmd ->
      match cmd with
      | Router.Micro.Gate_start { instr_id; trap; qubits; time } ->
          Router.Micro.Gate_start { instr_id = map.(instr_id); trap; qubits; time }
      | Router.Micro.Gate_end { instr_id; trap; qubits; time } ->
          Router.Micro.Gate_end { instr_id = map.(instr_id); trap; qubits; time }
      | Router.Micro.Move _ | Router.Micro.Turn _ -> cmd)
    trace

(* The full admissible-bound catalog for a forward-view initial placement:
   pure in (ctx, placement), so every surface (solutions, certificates, the
   audit pass, the service) reports bit-identical values at any jobs
   count.  Forces the lazy estimator model for its distance tables — built
   once per context and shared with pre-screening and quoting. *)
let certified_bound t ~initial_placement =
  Estimator.Bound.compute ~placement:initial_placement
    ~distance:(Estimator.Model.distance (Lazy.force t.estimator))
    ~timing:t.config.Config.timing
    ~num_traps:(Array.length (Fabric.Component.traps t.comp))
    t.dag

let solution_of_engine ~ctx ~runs ~run_latencies ~evals ~cpu ~direction ~initial
    ?(attempts = []) ?(degraded = false) (r : Engine.result) =
  let trace, initial_placement, final_placement =
    match direction with
    | Placer.Mvfb.Forward -> (r.Engine.trace, initial, r.Engine.final_placement)
    | Placer.Mvfb.Backward ->
        (* a backward winner executes forward as the time-reversed trace (with
           instruction ids rewritten to the forward program); its input
           placement in the forward view is the backward run's final one *)
        let trace =
          match t_udag ctx with
          | Some udag ->
              remap_trace_ids (backward_id_map ctx.dag udag) (Trace.reverse r.Engine.trace)
          | None -> Trace.reverse r.Engine.trace
        in
        (trace, r.Engine.final_placement, initial)
  in
  let bound = certified_bound ctx ~initial_placement in
  {
    latency = r.Engine.latency;
    trace;
    initial_placement;
    final_placement;
    direction;
    placement_runs = runs;
    run_latencies;
    engine_evals = evals;
    cpu_time_s = cpu;
    attempts;
    degraded;
    lower_bound_us = bound.Estimator.Bound.lower_bound_us;
    bound_kind = bound.Estimator.Bound.kind;
  }

let estimator_model t = Lazy.force t.estimator

let estimate t placement = Estimator.Model.estimate (Lazy.force t.estimator) placement

(* Resolve the effective pre-screening width: an explicit argument wins
   (0 = off, overriding the config), otherwise the config's default.
   Forcing the model here — on the calling domain, before any fan-out —
   keeps Lazy.force off the worker domains. *)
let prescreen_of t arg =
  let k =
    match arg with Some 0 -> None | Some k -> Some k | None -> t.config.Config.prescreen_k
  in
  match k with
  | None -> None
  | Some k ->
      let model = Lazy.force t.estimator in
      Some (k, Estimator.Model.estimate model)

(* Arm the wall-clock side of a budget: the clock starts when the search
   starts, on the monotonized Ion_util.Clock — a stepped system wall clock
   can no longer hang the budget or expire it instantly (Sys.time remains
   in use only for the *reported* CPU seconds).  The evaluation cap is
   handed to the placers verbatim — they truncate deterministically in run
   order.  The same polled closure doubles as the placers' cooperative
   deadline checkpoint: when the request deadline has passed it raises
   (Ion_util.Clock.Expired) instead of returning, so chunked placer loops
   (anneals every 512 moves, MC between evaluation chunks) abort promptly
   even between engine runs. *)
let out_of_time_of (budget : Config.budget) =
  let deadline_check =
    match Ion_util.Clock.guard budget.Config.deadline with
    | Some f -> f
    | None -> Fun.const ()
  in
  match budget.Config.wall_s with
  | None ->
      fun () ->
        deadline_check ();
        false
  | Some s ->
      let cutoff = Ion_util.Clock.now_s () +. s in
      fun () ->
        deadline_check ();
        Ion_util.Clock.now_s () > cutoff

let attempt_of ~stage ~seed outcome = { stage; seed; outcome }

let map_mvfb ?m ?jobs ?prescreen_k t =
  guarded @@ fun () ->
  let m = Option.value ~default:t.config.Config.m m in
  let jobs = Option.value ~default:t.config.Config.jobs jobs in
  let prescreen = prescreen_of t prescreen_k in
  let seed = t.config.Config.rng_seed in
  let t0 = Sys.time () in
  match
    Ion_util.Domain_pool.with_pool ~jobs (fun pool ->
        Placer.Mvfb.search ~pool ?prescreen ~seed ~m
          ~patience:t.config.Config.patience ~forward:(run_forward t) ~backward:(run_backward t)
          t.comp
          ~num_qubits:(Program.num_qubits t.program))
  with
  | Error e -> Error (of_engine_error e)
  | Ok o ->
      let cpu = Sys.time () -. t0 in
      let latency = o.Placer.Mvfb.result.Engine.latency in
      Ok
        (solution_of_engine ~ctx:t ~runs:o.Placer.Mvfb.runs ~run_latencies:o.Placer.Mvfb.latencies
           ~evals:o.Placer.Mvfb.evaluations ~cpu ~direction:o.Placer.Mvfb.direction
           ~initial:o.Placer.Mvfb.initial_placement
           ~attempts:[ attempt_of ~stage:"mvfb" ~seed (Ok latency) ]
           o.Placer.Mvfb.result)

let map_monte_carlo ~runs ?jobs ?prescreen_k t =
  guarded @@ fun () ->
  let jobs = Option.value ~default:t.config.Config.jobs jobs in
  let prescreen = prescreen_of t prescreen_k in
  let budget = t.config.Config.budget in
  let seed = t.config.Config.rng_seed in
  let t0 = Sys.time () in
  let out_of_time = out_of_time_of budget in
  match
    Ion_util.Domain_pool.with_pool ~jobs (fun pool ->
        Placer.Monte_carlo.search ~pool ?prescreen ?max_evals:budget.Config.max_evals ~out_of_time
          ~seed ~runs ~evaluate:(run_forward t) t.comp
          ~num_qubits:(Program.num_qubits t.program))
  with
  | Error e -> Error (of_engine_error e)
  | Ok o ->
      let cpu = Sys.time () -. t0 in
      let latency = o.Placer.Monte_carlo.result.Engine.latency in
      Ok
        (solution_of_engine ~ctx:t ~runs:o.Placer.Monte_carlo.runs
           ~run_latencies:o.Placer.Monte_carlo.latencies ~evals:o.Placer.Monte_carlo.evaluations
           ~cpu ~direction:Placer.Mvfb.Forward ~initial:o.Placer.Monte_carlo.placement
           ~attempts:[ attempt_of ~stage:"mc" ~seed (Ok latency) ]
           ~degraded:o.Placer.Monte_carlo.truncated o.Placer.Monte_carlo.result)

let map_annealing ?evaluations ?jobs ?prescreen_k t =
  guarded @@ fun () ->
  let evaluations = Option.value ~default:t.config.Config.m evaluations in
  let jobs = Option.value ~default:t.config.Config.jobs jobs in
  let prescreen = prescreen_of t prescreen_k in
  let budget = t.config.Config.budget in
  let seed = t.config.Config.rng_seed in
  let t0 = Sys.time () in
  let out_of_time = out_of_time_of budget in
  match
    Ion_util.Domain_pool.with_pool ~jobs (fun pool ->
        Placer.Annealing.search ~pool ?prescreen ?max_evals:budget.Config.max_evals ~out_of_time
          ~rng:(Ion_util.Rng.create seed)
          ~evaluations ~evaluate:(run_forward t) t.comp
          ~num_qubits:(Program.num_qubits t.program))
  with
  | Error e -> Error (of_engine_error e)
  | Ok o ->
      let cpu = Sys.time () -. t0 in
      let latency = o.Placer.Annealing.result.Engine.latency in
      Ok
        (solution_of_engine ~ctx:t ~runs:o.Placer.Annealing.evaluations
           ~run_latencies:o.Placer.Annealing.latencies ~evals:o.Placer.Annealing.evaluations ~cpu
           ~direction:Placer.Mvfb.Forward ~initial:o.Placer.Annealing.placement
           ~attempts:[ attempt_of ~stage:"sa" ~seed (Ok latency) ]
           ~degraded:o.Placer.Annealing.truncated o.Placer.Annealing.result)

(* The racing portfolio: seeded MVFB, Monte-Carlo, the classic routed
   anneal (exactly [map_annealing]'s search, so the portfolio can never do
   worse than it at matched parameters), and two delta-SA streams.  Every
   strategy derives its own randomness from the root seed — the classic
   placers use it exactly as their [map_*] counterparts do, the delta
   streams use [Rng.derive] on an offset root so no stream collides with
   MVFB's per-seed derivations — and runs sequentially inside one
   [Domain_pool] slot, so the race is bit-identical at any job count. *)
let map_portfolio ?m ?sa_moves ?jobs t =
  guarded @@ fun () ->
  let m = Option.value ~default:t.config.Config.m m in
  let sa_moves = Option.value ~default:t.config.Config.sa_moves sa_moves in
  let jobs = Option.value ~default:t.config.Config.jobs jobs in
  let budget = t.config.Config.budget in
  let max_evals = budget.Config.max_evals in
  let seed = t.config.Config.rng_seed in
  let nq = Program.num_qubits t.program in
  (* forced here, on the main domain, before any fan-out *)
  let model = Lazy.force t.estimator in
  let t0 = Sys.time () in
  let out_of_time = out_of_time_of budget in
  let ok ~placement ~result ~direction ~evaluations ~latencies ~truncated =
    Ok
      {
        Placer.Portfolio.placement;
        result;
        direction;
        evaluations;
        latencies;
        truncated;
      }
  in
  (* the classic strategies seed themselves exactly as their map_* twins do
     (bit-compatibility); the race's derived stream is ignored *)
  let mvfb ~rng:_ =
    match
      Placer.Mvfb.search ~seed ~m ~patience:t.config.Config.patience ~forward:(run_forward t)
        ~backward:(run_backward t) t.comp ~num_qubits:nq
    with
    | Error _ as e -> e
    | Ok o ->
        ok ~placement:o.Placer.Mvfb.initial_placement ~result:o.Placer.Mvfb.result
          ~direction:o.Placer.Mvfb.direction ~evaluations:o.Placer.Mvfb.evaluations
          ~latencies:o.Placer.Mvfb.latencies ~truncated:false
  in
  let mc ~rng:_ =
    match
      Placer.Monte_carlo.search ?max_evals ~out_of_time ~seed ~runs:m
        ~evaluate:(run_forward t) t.comp ~num_qubits:nq
    with
    | Error _ as e -> e
    | Ok o ->
        ok ~placement:o.Placer.Monte_carlo.placement ~result:o.Placer.Monte_carlo.result
          ~direction:Placer.Mvfb.Forward ~evaluations:o.Placer.Monte_carlo.evaluations
          ~latencies:o.Placer.Monte_carlo.latencies ~truncated:o.Placer.Monte_carlo.truncated
  in
  let sa ~rng:_ =
    match
      Placer.Annealing.search ?max_evals ~out_of_time ~rng:(Ion_util.Rng.create seed)
        ~evaluations:m ~evaluate:(run_forward t) t.comp ~num_qubits:nq
    with
    | Error _ as e -> e
    | Ok o ->
        ok ~placement:o.Placer.Annealing.placement ~result:o.Placer.Annealing.result
          ~direction:Placer.Mvfb.Forward ~evaluations:o.Placer.Annealing.evaluations
          ~latencies:o.Placer.Annealing.latencies ~truncated:o.Placer.Annealing.truncated
  in
  let delta_sa k ~rng:_ =
    match
      Placer.Annealing.search_delta ?max_evals ~out_of_time
        ~rng:(Ion_util.Rng.derive (seed + 7919) ~index:k)
        ~moves:sa_moves ~model ~evaluate:(run_forward t) t.comp ~num_qubits:nq
    with
    | Error _ as e -> e
    | Ok o ->
        ok ~placement:o.Placer.Annealing.placement ~result:o.Placer.Annealing.result
          ~direction:Placer.Mvfb.Forward ~evaluations:o.Placer.Annealing.engine_evals
          ~latencies:o.Placer.Annealing.latencies ~truncated:o.Placer.Annealing.truncated
  in
  let strategies =
    [
      { Placer.Portfolio.name = "mvfb"; run = mvfb };
      { Placer.Portfolio.name = "mc"; run = mc };
      { Placer.Portfolio.name = "sa"; run = sa };
      { Placer.Portfolio.name = "delta-sa-0"; run = delta_sa 0 };
      { Placer.Portfolio.name = "delta-sa-1"; run = delta_sa 1 };
    ]
  in
  match
    Ion_util.Domain_pool.with_pool ~jobs (fun pool ->
        Placer.Portfolio.race ~pool ~seed strategies)
  with
  | Error e -> Error (of_engine_error e)
  | Ok o ->
      let cpu = Sys.time () -. t0 in
      let best = o.Placer.Portfolio.best in
      let attempts =
        List.map
          (fun e ->
            let outcome =
              match e.Placer.Portfolio.entry_outcome with
              | Ok s -> Ok s.Placer.Portfolio.result.Engine.latency
              | Error err -> Error (of_engine_error err)
            in
            attempt_of ~stage:("portfolio:" ^ e.Placer.Portfolio.entry_name) ~seed outcome)
          o.Placer.Portfolio.entries
      in
      let evals =
        List.fold_left
          (fun acc e ->
            match e.Placer.Portfolio.entry_outcome with
            | Ok s -> acc + s.Placer.Portfolio.evaluations
            | Error _ -> acc)
          0 o.Placer.Portfolio.entries
      in
      Ok
        (solution_of_engine ~ctx:t ~runs:evals
           ~run_latencies:best.Placer.Portfolio.latencies ~evals ~cpu
           ~direction:best.Placer.Portfolio.direction
           ~initial:best.Placer.Portfolio.placement ~attempts
           ~degraded:best.Placer.Portfolio.truncated best.Placer.Portfolio.result)

let map_center t =
  guarded @@ fun () ->
  let placement = Placer.Center.place t.comp ~num_qubits:(Program.num_qubits t.program) in
  let seed = t.config.Config.rng_seed in
  let t0 = Sys.time () in
  match run_forward t placement with
  | Error e -> Error (of_engine_error e)
  | Ok r ->
      let cpu = Sys.time () -. t0 in
      Ok
        (solution_of_engine ~ctx:t ~runs:1 ~run_latencies:[ r.Engine.latency ] ~evals:1 ~cpu
           ~direction:Placer.Mvfb.Forward ~initial:placement
           ~attempts:[ attempt_of ~stage:"center" ~seed (Ok r.Engine.latency) ]
           r)

(* ------------------------------------------------------------------ *)
(* Hardened pipeline: bounded deterministic retry/fallback cascade     *)

type retry = { max_attempts : int; reseed_step : int; relax_trap_candidates : int }

let default_retry = { max_attempts = 5; reseed_step = 1; relax_trap_candidates = 2 }

let with_seed seed t = { t with config = Config.with_seed seed t.config }

(* widen the engine's per-issue trap candidate fan-out — the Pathfinder-style
   congestion relaxation available to the event-driven router *)
let relax_policy extra t =
  let p = t.config.Config.qspr_policy in
  let qspr_policy =
    { p with Engine.trap_candidates = p.Engine.trap_candidates + max 0 extra }
  in
  { t with config = { t.config with Config.qspr_policy } }

let map_robust ?(retry = default_retry) ?jobs t =
  let seed = t.config.Config.rng_seed in
  let step i = seed + (i * retry.reseed_step) in
  (* the escalation ladder: re-seed the placer, switch placer
     (mvfb -> mc -> annealing), then relax the routing policy *)
  let stages =
    [
      ("mvfb", fun () -> map_mvfb ?jobs t);
      ("mvfb+reseed", fun () -> map_mvfb ?jobs (with_seed (step 1) t));
      ("mc", fun () -> map_monte_carlo ~runs:t.config.Config.m ?jobs (with_seed (step 2) t));
      ("sa", fun () -> map_annealing ?jobs (with_seed (step 3) t));
      ( "mvfb+relaxed",
        fun () -> map_mvfb ?jobs (relax_policy retry.relax_trap_candidates (with_seed (step 4) t))
      );
    ]
  in
  let rec go n failures = function
    | [] -> (
        match failures with
        | [] -> Error (Invalid "Mapper.map_robust: no stages attempted")
        | { outcome = Error last; _ } :: _ -> Error (Budget_exhausted { attempts = n; last })
        | { outcome = Ok _; _ } :: _ -> assert false)
    | _ when n >= retry.max_attempts -> (
        match failures with
        | { outcome = Error last; _ } :: _ -> Error (Budget_exhausted { attempts = n; last })
        | _ -> Error (Invalid "Mapper.map_robust: retry budget must allow at least one attempt"))
    | (stage, run) :: rest -> (
        let stage_seed = step (List.length failures) in
        match run () with
        | Ok s ->
            let audit = List.rev (attempt_of ~stage ~seed:stage_seed (Ok s.latency) :: failures) in
            Ok { s with attempts = audit; degraded = s.degraded || failures <> [] }
        (* past the deadline every later stage would abort at its first
           checkpoint too — escalating is pure waste, so stop typed here *)
        | Error (Deadline_exceeded _ as e) -> Error e
        | Error e -> go (n + 1) (attempt_of ~stage ~seed:stage_seed (Error e) :: failures) rest)
  in
  go 0 [] stages
