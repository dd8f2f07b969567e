module Protocol = Service.Protocol
module Route_cache = Router.Route_cache
module Mapper = Qspr.Mapper

type entry = {
  layout : Fabric.Layout.t;
  comp : Fabric.Component.t;
  graph : Fabric.Graph.t;
  distance : Estimator.Distance.t;
  mutable snapshot : Route_cache.snapshot option;
}

(* Most recently used first, capped like the service's registry. *)
type registry = { mutable entries : (string * entry) list; mutable evictions : int }

let create_registry () = { entries = []; evictions = 0 }
let registry_evictions reg = reg.evictions
let capacity = Workload.limits.Service.Scheduler.max_fabrics
let turn_cost = Router.Timing.turn_cost_in_moves Workload.config.Qspr.Config.timing

let find reg layout =
  let key = Printf.sprintf "%.17g|%s" turn_cost (Fabric.Layout.to_ascii layout) in
  match List.assoc_opt key reg.entries with
  | Some e when Fabric.Layout.equal e.layout layout ->
      reg.entries <- (key, e) :: List.remove_assoc key reg.entries;
      (key, Some e)
  | Some _ | None -> (key, None)

let put reg key e =
  let kept = List.filteri (fun i _ -> i < capacity - 1) reg.entries in
  reg.evictions <- reg.evictions + (List.length reg.entries - List.length kept);
  reg.entries <- (key, e) :: kept

type strategy = { strategy : string; ms : float; latency : float }

type probe = {
  eval_searches : int;
  eval_cache_hits : int;
  bound_ok : bool;
  strategies : strategy list;
}

type t = {
  response : Protocol.response;
  placer : string;
  wall_ms : float;
  mirrored_ms : float;
  search_ms : float;
  probe : probe;
}

exception Refused of string

let ok_or_refuse = function Ok x -> x | Error e -> raise (Refused e)

let job_config (job : Protocol.job) =
  let c = Qspr.Config.with_seed job.Protocol.seed Workload.config in
  let c = match job.Protocol.m with Some m -> Qspr.Config.with_m m c | None -> c in
  Qspr.Config.with_budget
    { Qspr.Config.wall_s = None; max_evals = job.Protocol.max_evals; deadline = None }
    c

let resolve_circuit (job : Protocol.job) =
  match job.Protocol.circuit with
  | Protocol.Builtin name -> (
      match List.assoc_opt name (Circuits.Qecc.all ()) with
      | Some p -> Ok p
      | None -> Error (Qasm.Parser.error_of_string ("unknown builtin " ^ name)))
  | Protocol.Inline_qasm src -> Qasm.Parser.parse_located ~name:job.Protocol.id src

let resolve_fabric (job : Protocol.job) =
  match job.Protocol.fabric with
  | None -> Ok (Fabric.Layout.quale_45x85 ())
  | Some src -> Fabric.Layout.parse src

(* The service's placer dispatch for a full-service request. *)
let search (job : Protocol.job) ctx =
  match job.Protocol.placer with
  | "mvfb" -> Mapper.map_mvfb ~jobs:1 ctx
  | "mc" -> Mapper.map_monte_carlo ~runs:(Mapper.config ctx).Qspr.Config.m ~jobs:1 ctx
  | "sa" -> Mapper.map_annealing ~jobs:1 ctx
  | "center" -> Mapper.map_center ctx
  | "robust" -> Mapper.map_robust ~jobs:1 ctx
  | _ -> Mapper.map_portfolio ~jobs:1 ctx

let fresh_context entry layout config program snapshot =
  let cache = Route_cache.create () in
  Option.iter (Route_cache.attach cache) snapshot;
  let ctx =
    ok_or_refuse
      (Mapper.create ~fabric:layout ~config ~prebuilt:(entry.comp, entry.graph)
         ~distance:entry.distance ~route_cache:cache program)
  in
  ignore (Mapper.estimator_model ctx);
  ctx

(* Each portfolio strategy on its own, seeded exactly as
   [Mapper.map_portfolio] seeds it, in the portfolio's order. *)
let portfolio_strategies rec_ ~parent ctx =
  let config = Mapper.config ctx in
  let seed = config.Qspr.Config.rng_seed and m = config.Qspr.Config.m in
  let comp = Mapper.component ctx in
  let num_qubits = Qasm.Program.num_qubits (Mapper.program ctx) in
  let forward = Mapper.run_forward ctx in
  let model = Mapper.estimator_model ctx in
  let latency_of = function
    | Ok (r : Simulator.Engine.result) -> r.Simulator.Engine.latency
    | Error _ -> Float.nan
  in
  let timed name span_name f =
    let t0 = Span.now_ms rec_ in
    let latency = Span.child rec_ ~parent span_name (fun () -> latency_of (f ())) in
    { strategy = name; ms = Span.now_ms rec_ -. t0; latency }
  in
  let delta k =
    timed (Printf.sprintf "delta-sa-%d" k) "placer.delta_sa" (fun () ->
        Result.map
          (fun (o : Placer.Annealing.delta_outcome) -> o.Placer.Annealing.result)
          (Placer.Annealing.search_delta
             ~rng:(Ion_util.Rng.derive (seed + 7919) ~index:k)
             ~moves:config.Qspr.Config.sa_moves ~model ~evaluate:forward comp ~num_qubits))
  in
  [
    timed "mvfb" "placer.mvfb" (fun () ->
        Result.map
          (fun o -> o.Placer.Mvfb.result)
          (Placer.Mvfb.search ~seed ~m ~patience:config.Qspr.Config.patience ~forward
             ~backward:(Mapper.run_backward ctx) comp ~num_qubits));
    timed "mc" "placer.mc" (fun () ->
        Result.map
          (fun o -> o.Placer.Monte_carlo.result)
          (Placer.Monte_carlo.search ~seed ~runs:m ~evaluate:forward comp ~num_qubits));
    timed "sa" "placer.sa" (fun () ->
        Result.map
          (fun (o : Placer.Annealing.outcome) -> o.Placer.Annealing.result)
          (Placer.Annealing.search ~rng:(Ion_util.Rng.create seed) ~evaluations:m
             ~evaluate:forward comp ~num_qubits));
    delta 0;
    delta 1;
  ]

let run rec_ reg ~request line =
  try
    let outcome, root =
      Span.root rec_ ~request "replay" (fun id ->
          let sp name f = Span.child rec_ ~parent:id name f in
          let job =
            match sp "service.decode" (fun () -> Protocol.job_of_line line) with
            | Ok j -> j
            | Error e -> raise (Refused e)
          in
          let config = job_config job in
          let program_r = sp "qasm.parse" (fun () -> resolve_circuit job) in
          let fabric_r = sp "fabric.parse" (fun () -> resolve_fabric job) in
          let findings =
            sp "analysis.lint" (fun () ->
                Analysis.Registry.lint ~program:program_r ~fabric:fabric_r ~config ())
          in
          if not (Analysis.Finding.is_clean findings) then raise (Refused "lint errors");
          let program = ok_or_refuse (Result.map_error Qasm.Parser.error_to_string program_r) in
          let layout = ok_or_refuse fabric_r in
          let entry =
            match sp "service.registry" (fun () -> find reg layout) with
            | _, Some e -> e
            | key, None ->
                let comp =
                  ok_or_refuse (sp "fabric.extract" (fun () -> Fabric.Component.extract layout))
                in
                let graph = sp "fabric.graph" (fun () -> Fabric.Graph.build comp) in
                let distance =
                  sp "estimator.distance" (fun () -> Estimator.Distance.build graph ~turn_cost)
                in
                let e = { layout; comp; graph; distance; snapshot = None } in
                sp "service.registry" (fun () -> put reg key e);
                e
          in
          let cache = Route_cache.create () in
          let ctx =
            ok_or_refuse
              (sp "core.create" (fun () ->
                   Mapper.create ~fabric:layout ~config ~prebuilt:(entry.comp, entry.graph)
                     ~distance:entry.distance ~route_cache:cache program))
          in
          let quote =
            sp "estimator.quote" (fun () ->
                Mapper.estimate ctx
                  (Placer.Center.place entry.comp ~num_qubits:(Qasm.Program.num_qubits program)))
          in
          let before = entry.snapshot in
          let warm_paths =
            sp "router.snapshot" (fun () ->
                match before with
                | Some s ->
                    Route_cache.attach cache s;
                    Route_cache.snapshot_paths s
                | None -> 0)
          in
          let cpu0 = Sys.time () in
          sp "service.arena" (fun () -> Service.Arena.prewarm ctx);
          let s0 = Span.now_ms rec_ in
          let sol = sp "placer.search" (fun () -> search job ctx) in
          let search_ms = Span.now_ms rec_ -. s0 in
          let sol = ok_or_refuse (Result.map_error Mapper.error_to_string sol) in
          let cert = sp "analysis.certify" (fun () -> Analysis.Certify.of_solution ctx sol) in
          sp "service.arena" Service.Arena.record;
          let cpu_s = Sys.time () -. cpu0 in
          sp "router.snapshot" (fun () ->
              (match entry.snapshot with
              | Some s -> Route_cache.attach cache s
              | None -> Route_cache.for_graph cache entry.graph);
              entry.snapshot <- Some (Route_cache.freeze cache));
          let verdict =
            Protocol.Completed
              {
                latency_us = sol.Mapper.latency;
                quote_us = quote;
                lower_bound_us = sol.Mapper.lower_bound_us;
                bound_kind = Estimator.Bound.kind_to_string sol.Mapper.bound_kind;
                optimality_gap =
                  (if sol.Mapper.lower_bound_us > 0.0 then
                     Some ((sol.Mapper.latency -. sol.Mapper.lower_bound_us) /. sol.Mapper.lower_bound_us)
                   else None);
                placement_runs = sol.Mapper.placement_runs;
                engine_evals = sol.Mapper.engine_evals;
                degraded = sol.Mapper.degraded;
                direction =
                  (match sol.Mapper.direction with
                  | Placer.Mvfb.Forward -> "forward"
                  | Placer.Mvfb.Backward -> "backward");
                shed = "none";
                certificate_digest = cert.Analysis.Certify.digest;
                certificate_valid = cert.Analysis.Certify.valid;
                attempts =
                  List.map
                    (fun (a : Mapper.attempt) ->
                      {
                        Protocol.stage = a.Mapper.stage;
                        seed = a.Mapper.seed;
                        outcome = Result.map_error Mapper.error_to_string a.Mapper.outcome;
                      })
                    sol.Mapper.attempts;
              }
          in
          let response =
            {
              Protocol.job_id = job.Protocol.id;
              verdict;
              cache =
                Some
                  {
                    Protocol.hits = Route_cache.hits cache;
                    misses = Route_cache.misses cache;
                    shared_hits = Route_cache.shared_hits cache;
                    bound_builds = Route_cache.bound_builds cache;
                    warm_paths;
                    fabric_evictions = reg.evictions;
                  };
              cpu_s;
              cached = false;
            }
          in
          ignore (sp "service.encode" (fun () -> Protocol.response_to_line response));
          (response, job, entry, layout, config, program, before, sol, search_ms))
    in
    let response, job, entry, layout, config, program, before, sol, search_ms = outcome in
    let mirrored_ms =
      List.fold_left
        (fun acc (s : Span.t) -> acc +. (s.Span.end_ms -. s.Span.start_ms))
        0.0 (Span.children rec_ root.Span.id)
    in
    let probe, _ =
      Span.root rec_ ~request "probe" (fun id ->
          let ctx = fresh_context entry layout config program before in
          let eval =
            Span.child rec_ ~parent:id "simulator.eval" (fun () ->
                Mapper.run_forward ctx sol.Mapper.initial_placement)
          in
          let bound =
            Span.child rec_ ~parent:id "estimator.bound" (fun () ->
                Mapper.certified_bound ctx ~initial_placement:sol.Mapper.initial_placement)
          in
          let strategies =
            if job.Protocol.placer = "portfolio" then
              portfolio_strategies rec_ ~parent:id
                (fresh_context entry layout config program before)
            else []
          in
          let eval_searches, eval_cache_hits =
            match eval with
            | Ok r -> (r.Simulator.Engine.route_searches, r.Simulator.Engine.route_cache_hits)
            | Error _ -> (0, 0)
          in
          {
            eval_searches;
            eval_cache_hits;
            bound_ok =
              Int64.equal
                (Int64.bits_of_float bound.Estimator.Bound.lower_bound_us)
                (Int64.bits_of_float sol.Mapper.lower_bound_us);
            strategies;
          })
    in
    Ok
      {
        response;
        placer = job.Protocol.placer;
        wall_ms = root.Span.end_ms -. root.Span.start_ms;
        mirrored_ms;
        search_ms;
        probe;
      }
  with Refused e -> Error e
