(* Bench smoke test, wired into `dune runtest` via the bench-smoke alias.
   The one place the performance and identity contracts are enforced (the
   measurements themselves live in perfbench/).  It fails loudly instead of
   measuring:

   - workspace: reused-workspace Dijkstra and lower-bound-guided A* return
     exactly what fresh arrays and plain Dijkstra return;
   - parallel / estimator / analysis / bound / faults: pooled searches are
     bit-identical to sequential ones, estimates are pure, the prescreened
     winner certifies and carries an admissible, recomputable bound;
   - router: on all six Table-1 circuits a route-cached engine run returns
     the uncached latency bits and trace with strictly fewer searches when
     warm; PathFinder's 10-net wave converges and dirty-net rerouting runs
     strictly fewer searches than the legacy full reroute;
   - delta: the estimator's transactions are exact, and a delta-SA proposal
     loop is >= 10x faster than full-estimate SA on every Table-1 circuit
     (best of 5 interleaved windows per side);
   - portfolio: the race is bit-identical at jobs=1/2 and never worse than
     the classic anneal, at m=2 and at m=3 with 4000 delta-SA moves;
   - service: the six-circuit batch is byte-identical at jobs=1/2/4, to
     sequential submission and to six cold single-job services, matches
     independent Mapper runs bit for bit, certifies, runs strictly fewer
     searches than the cold services and is at most 1.15x slower;
   - memory: a warm forward evaluation of [[5,1,3]] / [[7,1,3]] stays
     >= 5x below the pre-arena engine's exact minor-word count;
   - ready-set scaling: forward evaluations of 40-qubit random Clifford
     programs at 1k / 4k / 16k gates return the latency bits of the
     full-scan engine, and the engine's exact ready-set work per gate at
     16k stays within 1.5x of that at 1k (wall times printed, not gated);
   - bound scaling: on the same programs the certified bound of the center
     placement keeps its pinned bits, never exceeds the latency, and the
     placement bound's exact ancestor-search visits per gate at 16k stay
     within 1.5x of those at 1k (wall times printed, not gated). *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench-smoke: " ^ m); exit 1) fmt

let check_eq name a b = if not (Float.abs (a -. b) < 1e-9) then fail "%s: %.9g <> %.9g" name a b

let check_bits name a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    fail "%s: %.17g <> %.17g (bitwise)" name a b

let solution label = function
  | Ok (s : Qspr.Mapper.solution) -> s
  | Error e -> fail "%s: %s" label (Qspr.Mapper.error_to_string e)

let solution_latency label r = (solution label r).Qspr.Mapper.latency

let circuits = Circuits.Qecc.all ()

let () =
  let fabric = Qspr.Experiments.fabric () in
  let ctx_of ?config name =
    match Qspr.Mapper.create ~fabric ?config (List.assoc name circuits) with
    | Ok c -> c
    | Error e -> fail "%s: %s" name e
  in
  let num_qubits ctx = Qasm.Program.num_qubits (Qspr.Mapper.program ctx) in
  let center ctx = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:(num_qubits ctx) in
  (* workspace group: fresh vs reused routing on a few trap pairs, and the
     production A* (Dijkstra's loop guided by a lower-bound table) against
     plain Dijkstra *)
  let comp = match Fabric.Component.extract fabric with Ok c -> c | Error e -> fail "%s" e in
  let graph = Fabric.Graph.build comp in
  let cong = Router.Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let w = Router.Congestion.weight cong ~turn_cost:10.0 in
  let ntraps = Array.length (Fabric.Component.traps comp) in
  let ws = Router.Workspace.create () in
  List.iter
    (fun i ->
      let src = Fabric.Graph.trap_node graph (i * 17 mod ntraps) in
      let dst = Fabric.Graph.trap_node graph ((ntraps - 1 - (i * 5)) mod ntraps) in
      let cost label = function Some r -> r.Router.Dijkstra.cost | None -> fail "%s: no route" label in
      let astar =
        let lb = Router.Lower_bound.build graph ~turn_cost:10.0 ~dst in
        Router.Dijkstra.run_into ~heuristic:(Router.Lower_bound.heuristic lb) ws graph ~weight:w ~src
          ~dst;
        cost "astar" (Router.Dijkstra.path_to ws graph ~dst)
      in
      let reused = cost "reused" (Router.Dijkstra.shortest_path ~workspace:ws graph ~weight:w ~src ~dst) in
      check_eq "dijkstra fresh vs reused"
        (cost "fresh" (Router.Dijkstra.shortest_path graph ~weight:w ~src ~dst))
        reused;
      check_eq "astar vs dijkstra reused" astar reused)
    [ 0; 1; 2; 3 ];
  (* parallel group: serial and pooled searches agree latency-for-latency *)
  let p = List.assoc "[[5,1,3]]" circuits in
  let ctx = ctx_of "[[5,1,3]]" in
  check_eq "monte carlo jobs1 vs jobs2"
    (solution_latency "mc jobs1" (Qspr.Mapper.map_monte_carlo ~runs:4 ~jobs:1 ctx))
    (solution_latency "mc jobs2" (Qspr.Mapper.map_monte_carlo ~runs:4 ~jobs:2 ctx));
  check_eq "mvfb jobs1 vs jobs2"
    (solution_latency "mvfb jobs1" (Qspr.Mapper.map_mvfb ~m:2 ~jobs:1 ctx))
    (solution_latency "mvfb jobs2" (Qspr.Mapper.map_mvfb ~m:2 ~jobs:2 ctx));
  (* estimator group: pure estimates, pooled fan-out bit-identity, and the
     pre-screened search contract *)
  let model = Qspr.Mapper.estimator_model ctx in
  let nq = Qasm.Program.num_qubits p in
  let pool =
    Array.init 8 (fun i ->
        Placer.Center.place_permuted (Ion_util.Rng.derive 7 ~index:i) (Qspr.Mapper.component ctx)
          ~num_qubits:nq)
  in
  let seq = Array.map (Estimator.Model.estimate model) pool in
  let fanned =
    Ion_util.Domain_pool.with_pool ~jobs:2 (fun dp ->
        Ion_util.Domain_pool.map dp (Estimator.Model.estimate model) pool)
  in
  Array.iteri (fun i a -> check_eq "estimate pooled vs sequential" a fanned.(i)) seq;
  Array.iteri (fun i a -> check_eq "estimate repeated" a (Estimator.Model.estimate model pool.(i))) seq;
  let plain = solution "mc plain" (Qspr.Mapper.map_monte_carlo ~runs:8 ~prescreen_k:0 ctx) in
  let pre1 =
    solution "mc prescreen jobs1" (Qspr.Mapper.map_monte_carlo ~runs:8 ~jobs:1 ~prescreen_k:3 ctx)
  in
  let pre2 =
    solution "mc prescreen jobs2" (Qspr.Mapper.map_monte_carlo ~runs:8 ~jobs:2 ~prescreen_k:3 ctx)
  in
  check_eq "prescreen jobs1 vs jobs2" pre1.Qspr.Mapper.latency pre2.Qspr.Mapper.latency;
  if pre1.Qspr.Mapper.initial_placement <> pre2.Qspr.Mapper.initial_placement then
    fail "prescreen jobs1 vs jobs2: placements differ";
  if pre1.Qspr.Mapper.engine_evals > 3 then
    fail "prescreen routed %d > k=3 candidates" pre1.Qspr.Mapper.engine_evals;
  if not (List.mem pre1.Qspr.Mapper.latency plain.Qspr.Mapper.run_latencies) then
    fail "prescreened winner %.1f not among the plain run latencies" pre1.Qspr.Mapper.latency;
  (* analysis group: every benchmarked solution must survive independent
     replay, and the pooled search must stay bit-deterministic *)
  let cert = Analysis.Certify.of_solution ctx pre1 in
  if not cert.Analysis.Certify.valid then
    fail "prescreened solution fails certification: %s"
      (Format.asprintf "%a" Analysis.Certify.pp cert);
  (match
     Analysis.Determinism.check ~label:"mc runs=4" ~jobs:2 (fun ~jobs ->
         Qspr.Mapper.map_monte_carlo ~runs:4 ~jobs ctx)
   with
  | [] -> ()
  | f :: _ ->
      fail "parallel determinism violated: %s" (Format.asprintf "%a" Analysis.Finding.pp f));
  (* bound group: every solution carries an admissible certified bound at or
     below its achieved latency, bit-identical across job counts and equal
     to the recomputation, and the auditor finds nothing wrong with an
     honest solution *)
  if pre1.Qspr.Mapper.lower_bound_us > pre1.Qspr.Mapper.latency +. 1e-6 then
    fail "certified bound %.1f us exceeds the achieved latency %.1f us"
      pre1.Qspr.Mapper.lower_bound_us pre1.Qspr.Mapper.latency;
  check_bits "certified bound jobs=1 vs jobs=2" pre1.Qspr.Mapper.lower_bound_us
    pre2.Qspr.Mapper.lower_bound_us;
  let recomputed =
    Qspr.Mapper.certified_bound ctx ~initial_placement:pre1.Qspr.Mapper.initial_placement
  in
  check_bits "certified bound vs recomputation" recomputed.Estimator.Bound.lower_bound_us
    pre1.Qspr.Mapper.lower_bound_us;
  let audit_report = Analysis.Bound.audit ctx pre1 in
  if Analysis.Finding.count Analysis.Finding.Error audit_report.Analysis.Bound.findings > 0 then
    fail "bound auditor flagged an honest solution";
  (* faults group: a survivability campaign over a degraded fabric is
     bit-identical at any job count *)
  let campaign jobs =
    match
      Fault.campaign ~jobs
        ~config:Qspr.Config.(default |> with_m 2)
        ~seed:11 ~levels:[ 0; 1; 2 ] ~trials:3
        ~fabric:(Fabric.Layout.linear ~traps:6 ())
        p
    with
    | Ok r -> Ion_util.Json.to_string (Fault.to_json r)
    | Error e -> fail "fault campaign (jobs=%d): %s" jobs e
  in
  if not (String.equal (campaign 1) (campaign 2)) then
    fail "fault campaign: jobs=1 vs jobs=2 reports differ";
  (* router group: on every Table-1 circuit the engine's route cache must
     change counters only — every lookup of a cold cache either hits or runs
     one of the uncached searches, a warm cache runs strictly fewer, and all
     three runs return the same latency bits and trace *)
  List.iter
    (fun (name, _) ->
      let ctx = ctx_of name in
      let cfg = Qspr.Mapper.config ctx in
      let placement = center ctx in
      let engine route_cache =
        match
          Simulator.Engine.run ~graph:(Qspr.Mapper.graph ctx) ~timing:cfg.Qspr.Config.timing
            ~policy:cfg.Qspr.Config.qspr_policy ~dag:(Qspr.Mapper.dag ctx)
            ~priorities:(Qspr.Mapper.qspr_priorities ctx) ~placement ?route_cache ()
        with
        | Ok r -> r
        | Error e -> fail "%s engine: %s" name (Simulator.Engine.string_of_error e)
      in
      let r0 = engine None in
      let cache = Router.Route_cache.create () in
      let r1 = engine (Some cache) in
      let r2 = engine (Some cache) in
      check_bits (name ^ " engine no-cache vs cold-cache latency") r0.Simulator.Engine.latency
        r1.Simulator.Engine.latency;
      check_bits (name ^ " engine no-cache vs warm-cache latency") r0.Simulator.Engine.latency
        r2.Simulator.Engine.latency;
      if r0.Simulator.Engine.trace <> r1.Simulator.Engine.trace
         || r0.Simulator.Engine.trace <> r2.Simulator.Engine.trace
      then fail "%s: route cache changed the trace" name;
      if
        r1.Simulator.Engine.route_searches + r1.Simulator.Engine.route_cache_hits
        <> r0.Simulator.Engine.route_searches
      then
        fail "%s: cold route cache searches %d + hits %d <> uncached searches %d" name
          r1.Simulator.Engine.route_searches r1.Simulator.Engine.route_cache_hits
          r0.Simulator.Engine.route_searches;
      if r2.Simulator.Engine.route_searches >= r1.Simulator.Engine.route_searches then
        fail "%s: warm route cache did not reduce searches (%d vs %d)" name
          r2.Simulator.Engine.route_searches r1.Simulator.Engine.route_searches;
      if r2.Simulator.Engine.route_cache_hits = 0 then fail "%s: warm route cache never hit" name)
    circuits;
  (* ten crossing nets at the paper's channel capacity negotiate for several
     rounds; both schedules must converge, the dirty-net one with fewer
     single-net searches *)
  let nets =
    List.init 10 (fun i ->
        {
          Router.Pathfinder.net_id = i;
          src = Fabric.Graph.trap_node graph (i * 5 mod ntraps);
          dst = Fabric.Graph.trap_node graph (ntraps - 1 - (i * 9 mod ntraps));
        })
  in
  let route incremental =
    match Router.Pathfinder.route_all graph ~incremental ~capacity:(fun _ -> 2) nets with
    | Ok o -> o
    | Error e -> fail "pathfinder wave10: %s" (Router.Pathfinder.string_of_error e)
  in
  let inc = route true and leg = route false in
  if inc.Router.Pathfinder.overused > 0 || leg.Router.Pathfinder.overused > 0 then
    fail "pathfinder wave10: negotiation did not converge";
  if inc.Router.Pathfinder.searches >= leg.Router.Pathfinder.searches then
    fail "pathfinder wave10: dirty-net schedule ran %d searches, legacy %d (want strictly fewer)"
      inc.Router.Pathfinder.searches leg.Router.Pathfinder.searches;
  (* the MVFB search must be bit-identical with the incremental stack on or
     off, with the legacy-routing winner certifying *)
  let mvfb incremental =
    let ctx = ctx_of ~config:Qspr.Config.(default |> with_incremental incremental) "[[5,1,3]]" in
    (ctx, solution (Printf.sprintf "mvfb incremental=%b" incremental) (Qspr.Mapper.map_mvfb ~m:2 ctx))
  in
  let _, on = mvfb true in
  let off_ctx, off = mvfb false in
  check_eq "mvfb incremental on vs off" on.Qspr.Mapper.latency off.Qspr.Mapper.latency;
  if on.Qspr.Mapper.trace <> off.Qspr.Mapper.trace then
    fail "mvfb incremental on vs off: traces differ";
  let cert_off = Analysis.Certify.of_solution off_ctx off in
  if not cert_off.Analysis.Certify.valid then
    fail "legacy-routing solution fails certification: %s"
      (Format.asprintf "%a" Analysis.Certify.pp cert_off);
  (* delta group, on every Table-1 circuit: the incremental estimator's
     transactional contract — undo restores the latency bitwise, a committed
     chain of swaps agrees with a from-scratch evaluation, resync reports
     zero drift — and its throughput floor: the greedy proposal loop of
     search_delta runs >= 10x the moves per second of the identical loop
     paying one from-scratch estimate per candidate.  Each side is the best
     of five windows, interleaved with the other side's, so scheduler noise
     or a burst of load on a shared machine cannot mask the structural
     gap. *)
  List.iter
    (fun (name, _) ->
      let ctx = ctx_of name in
      let model = Qspr.Mapper.estimator_model ctx in
      let comp = Qspr.Mapper.component ctx in
      let nq = num_qubits ctx in
      let placement = center ctx in
      let delta = Estimator.Delta.create model placement in
      let lat0 = Estimator.Delta.latency delta in
      ignore (Estimator.Delta.apply_swap delta 0 3);
      Estimator.Delta.undo delta;
      if Estimator.Delta.latency delta <> lat0 then fail "%s: delta undo did not restore the latency" name;
      for k = 0 to 19 do
        ignore (Estimator.Delta.apply_swap delta (k mod nq) ((k + 2) mod nq));
        Estimator.Delta.commit delta
      done;
      let scratch = Estimator.Delta.eval model (Estimator.Delta.placement delta) in
      if Estimator.Delta.latency delta <> scratch then
        fail "%s: delta swap chain diverged from a from-scratch evaluation (%.9g vs %.9g)" name
          (Estimator.Delta.latency delta) scratch;
      if Estimator.Delta.resync delta <> 0.0 then fail "%s: delta resync reported drift" name;
      let module Pr = Placer.Annealing.Proposal in
      let num_traps = Array.length (Fabric.Component.traps comp) in
      let pool = Array.of_list (Placer.Center.center_traps comp (min (3 * nq) num_traps)) in
      let moves_per_s moves step =
        let rng = Ion_util.Rng.create 2012 in
        let tracker = Pr.create ~num_traps pool placement in
        let t0 = Ion_util.Clock.now_s () in
        for _ = 1 to moves do
          step tracker (Pr.draw tracker rng ~num_qubits:nq)
        done;
        float_of_int moves /. Float.max 1e-9 (Ion_util.Clock.now_s () -. t0)
      in
      let delta_loop moves =
        let delta = Estimator.Delta.create model placement in
        moves_per_s moves (fun tracker -> function
          | Pr.Stay -> ()
          | Pr.Swap (i, j) ->
              if Estimator.Delta.apply_swap delta i j <= 0.0 then Estimator.Delta.commit delta
              else Estimator.Delta.undo delta
          | Pr.Relocate (q, dst) ->
              let src = Estimator.Delta.trap_of delta q in
              if Estimator.Delta.apply_move delta q dst <= 0.0 then begin
                Estimator.Delta.commit delta;
                Pr.relocate tracker ~src ~dst
              end
              else Estimator.Delta.undo delta)
      in
      let full_loop moves =
        let current = Array.copy placement in
        let cur = ref (Estimator.Model.estimate model current) in
        let try_candidate cand on_accept =
          let lat = Estimator.Model.estimate model cand in
          if lat <= !cur then begin
            Array.blit cand 0 current 0 nq;
            cur := lat;
            on_accept ()
          end
        in
        moves_per_s moves (fun tracker -> function
          | Pr.Stay -> ()
          | Pr.Swap (i, j) ->
              let cand = Array.copy current in
              cand.(i) <- current.(j);
              cand.(j) <- current.(i);
              try_candidate cand ignore
          | Pr.Relocate (q, dst) ->
              let cand = Array.copy current in
              let src = cand.(q) in
              cand.(q) <- dst;
              try_candidate cand (fun () -> Pr.relocate tracker ~src ~dst))
      in
      ignore (delta_loop 2_000);
      ignore (full_loop 200);
      let rounds = List.init 5 (fun _ -> (delta_loop 60_000, full_loop 4_000)) in
      let best side = List.fold_left (fun acc r -> Float.max acc (side r)) 0.0 rounds in
      let dmps = best fst and fmps = best snd in
      let ratio = dmps /. fmps in
      Printf.printf "bench-smoke: %s delta-SA %.0f moves/s vs full-estimate SA %.0f (%.1fx, floor 10x)\n"
        name dmps fmps ratio;
      if ratio < 10.0 then
        fail "%s: delta-SA only %.1fx faster than full-estimate SA (need >= 10x)" name ratio)
    circuits;
  (* portfolio group: the five-strategy race is bit-identical across job
     counts and never loses to the classic anneal at a matched budget — on
     [[5,1,3]] at m=2, and on every Table-1 circuit at m=3 with 4000
     delta-SA moves against a three-evaluation anneal *)
  List.iter
    (fun (name, m, sa_moves, evaluations) ->
      let ctx = ctx_of name in
      let race jobs =
        solution
          (Printf.sprintf "%s portfolio m=%d jobs=%d" name m jobs)
          (Qspr.Mapper.map_portfolio ~m ~sa_moves ~jobs ctx)
      in
      let race1 = race 1 and race2 = race 2 in
      check_bits (name ^ " portfolio jobs1 vs jobs2") race1.Qspr.Mapper.latency
        race2.Qspr.Mapper.latency;
      if race1.Qspr.Mapper.initial_placement <> race2.Qspr.Mapper.initial_placement then
        fail "%s portfolio m=%d jobs1 vs jobs2: placements differ" name m;
      let anneal = solution_latency (name ^ " sa") (Qspr.Mapper.map_annealing ~evaluations ctx) in
      if race1.Qspr.Mapper.latency > anneal then
        fail "%s: portfolio m=%d %.1f us lost to the classic anneal %.1f us" name m
          race1.Qspr.Mapper.latency anneal)
    (("[[5,1,3]]", 2, 1_000, 2) :: List.map (fun (name, _) -> (name, 3, 4_000, 3)) circuits);
  (* service group: the six Table-1 circuits as one batch against the shared
     fabric.  Caches change counters only: the deterministic encodings are
     byte-identical at jobs=1/2/4, to sequential submission and to six cold
     single-job services, and every response matches an independent Mapper
     run (latency bits, certificate digest) and certifies.  The shared warm
     caches run strictly fewer searches than the cold services, per job and
     in total, and the warm batch is not slower than them (1.15x slack for
     scheduler noise). *)
  let module P = Service.Protocol in
  let module S = Service.Scheduler in
  let sjobs =
    List.mapi
      (fun i (name, _) -> P.make_job ~seed:(2012 + i) ~placer:"mvfb" ~m:2 ~id:name (P.Builtin name))
      circuits
  in
  let det = List.map (P.response_to_line ~deterministic:true) in
  let timed f =
    let t0 = Ion_util.Clock.now_s () in
    let r = f () in
    (r, Ion_util.Clock.now_s () -. t0)
  in
  let batch width = S.run_batch (S.create ~limits:{ S.default_limits with S.jobs = width } ()) sjobs in
  (* three interleaved warm/cold rounds, each side timed by its fastest
     round, so a burst of load on a shared machine hits both sides alike *)
  let cold_services () = List.map (fun j -> S.submit (S.create ()) j) sjobs in
  let rounds = List.init 3 (fun _ -> (timed (fun () -> batch 1), timed cold_services)) in
  let (warm, _), (cold, _) = List.hd rounds in
  let fastest side = List.fold_left (fun acc r -> Float.min acc (snd (side r))) Float.infinity rounds in
  let warm_s = fastest fst and cold_s = fastest snd in
  let sequential =
    let t = S.create () in
    List.map (S.submit t) sjobs
  in
  List.iter
    (fun (label, responses) ->
      if det responses <> det warm then fail "service: %s responses differ from the jobs=1 batch" label)
    (List.concat_map (fun ((w, _), (c, _)) -> [ ("jobs=1", w); ("cold single-job", c) ]) rounds
    @ [ ("jobs=2", batch 2); ("jobs=4", batch 4); ("sequential", sequential) ]);
  List.iter2
    (fun (j : P.job) (r : P.response) ->
      match r.P.verdict with
      | P.Completed { latency_us; certificate_digest; certificate_valid; _ } ->
          let config =
            Qspr.Config.(default |> with_jobs 1 |> with_seed j.P.seed |> with_m 2 |> with_budget no_budget)
          in
          let ctx = ctx_of ~config j.P.id in
          let sol = solution (j.P.id ^ " service reference") (Qspr.Mapper.map_mvfb ~jobs:1 ctx) in
          check_bits ("service batch vs independent mapper " ^ j.P.id) latency_us sol.Qspr.Mapper.latency;
          if not (Int64.equal certificate_digest (Analysis.Certify.of_solution ctx sol).Analysis.Certify.digest)
          then fail "service: %s certificate digest diverged from the independent run" j.P.id;
          if not certificate_valid then fail "service: %s did not certify" j.P.id
      | _ -> fail "service: %s did not complete" j.P.id)
    sjobs warm;
  let cache (r : P.response) =
    match r.P.cache with Some c -> c | None -> fail "service: %s has no cache counters" r.P.job_id
  in
  let searches = List.fold_left (fun acc r -> acc + (cache r).P.misses + (cache r).P.bound_builds) 0 in
  (* per job: every job after the first reuses the batch's shared snapshot
     and searches strictly less than the same job on a cold service *)
  List.iteri
    (fun i (w, c) ->
      let wc = cache w and cc = cache c in
      if i > 0 && (wc.P.shared_hits = 0 || wc.P.misses >= cc.P.misses) then
        fail "service: warm %s ran %d searches with %d shared hits, cold ran %d (want fewer)"
          w.P.job_id wc.P.misses wc.P.shared_hits cc.P.misses)
    (List.combine warm cold);
  let warm_searches = searches warm and cold_searches = searches cold in
  Printf.printf "bench-smoke: service batch %d searches in %.2f s, cold services %d in %.2f s\n"
    warm_searches warm_s cold_searches cold_s;
  if warm_searches >= cold_searches then
    fail "service: warm batch ran %d searches, cold services %d (want strictly fewer)" warm_searches
      cold_searches;
  if warm_s > cold_s *. 1.15 then
    fail "service: warm batch %.2f s slower than the cold services %.2f s (x1.15)" warm_s cold_s;
  (* memory group: the flat-arena warm path must stay allocation-lean.
     After two warm-up evaluations (route cache filled, arenas sized), the
     per-evaluation minor-word cost of a forward schedule-and-route must be
     at least 5x below the pre-arena engine's exact count — 69,091 words on
     [[5,1,3]] and 72,714 on [[7,1,3]], so ceilings of 13,818 and 14,542
     (the packed-path/arena engine reads about 10.4k and 10.9k).  A
     regression that reintroduces per-edge or per-event list allocation on
     the engine's hot path trips this immediately, long before it shows in
     wall-clock noise.  Domain-local accounting: jobs=1 runs inline, and
     Gc.minor_words reads the allocation pointer directly, so the count is
     exact on this domain (unlike quick_stat's per-collection counters). *)
  List.iter
    (fun (name, ceiling) ->
      let ctx = ctx_of name in
      let placement = center ctx in
      let eval () =
        match Qspr.Mapper.run_forward ctx placement with
        | Ok r -> ignore r.Simulator.Engine.latency
        | Error e -> fail "memory %s: %s" name (Simulator.Engine.string_of_error e)
      in
      eval ();
      eval ();
      let reps = 8 in
      let w0 = Gc.minor_words () in
      for _ = 1 to reps do
        eval ()
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int reps in
      Printf.printf "bench-smoke: %s warm eval %.0f minor words (ceiling %.0f)\n" name words ceiling;
      if words > ceiling then
        fail "%s: warm evaluation allocates %.0f minor words (ceiling %.0f) — arena regression" name
          words ceiling)
    [ ("[[5,1,3]]", 13_818.0); ("[[7,1,3]]", 14_542.0) ];
  (* ready-set and bound scaling groups, on shared contexts.  Ready set:
     the engine's ready-set work must grow linearly in program size.
     [ready_visits] counts exactly the ids each issue round snapshots plus
     the ids requeued from the busy queue; a ready set that scanned every
     instruction per round would make the work per gate grow with the
     program (issue rounds grow linearly too).  The latency bits were
     recorded with the full-scan ready set (10488 / 37023 / 152657 us): how
     the ready set is kept must not change a schedule.  Bound: the
     certified bound of the center placement keeps its bits (7056 / 25078
     us recorded with per-node ancestor bitsets; 102897 us at 16k, where
     the bitset version skipped the ancestor term), stays admissible, and
     the placement bound's co-reader search work per gate
     ([ancestor_visits]) must not grow with the program either. *)
  let per_gate =
    List.map
      (fun (gates, latency_bits, bound_bits) ->
        let p =
          Circuits.Library.random_clifford (Ion_util.Rng.derive 1 ~index:gates) ~num_qubits:40 ~gates
        in
        let ctx =
          match Qspr.Mapper.create ~fabric p with
          | Ok c -> c
          | Error e -> fail "scaling %d gates: %s" gates e
        in
        let placement = center ctx in
        let t0 = Ion_util.Clock.now_s () in
        let r =
          match Qspr.Mapper.run_forward ctx placement with
          | Ok r -> r
          | Error e -> fail "scaling %d gates: %s" gates (Simulator.Engine.string_of_error e)
        in
        let wall_ms = (Ion_util.Clock.now_s () -. t0) *. 1000.0 in
        check_bits
          (Printf.sprintf "scaling %d gates: latency vs the full-scan engine" gates)
          r.Simulator.Engine.latency (Int64.float_of_bits latency_bits);
        (* the distance tables are built on first use; keep them out of the bound's time *)
        ignore (Qspr.Mapper.estimator_model ctx);
        let t0 = Ion_util.Clock.now_s () in
        let b = Qspr.Mapper.certified_bound ctx ~initial_placement:placement in
        let bound_ms = (Ion_util.Clock.now_s () -. t0) *. 1000.0 in
        check_bits
          (Printf.sprintf "scaling %d gates: certified bound" gates)
          b.Estimator.Bound.lower_bound_us (Int64.float_of_bits bound_bits);
        if b.Estimator.Bound.lower_bound_us > r.Simulator.Engine.latency then
          fail "scaling %d gates: certified bound %.17g exceeds the latency %.17g" gates
            b.Estimator.Bound.lower_bound_us r.Simulator.Engine.latency;
        let per g = float_of_int g /. float_of_int (Qasm.Program.gate_count p) in
        let ready = per r.Simulator.Engine.ready_visits
        and ancestors = per b.Estimator.Bound.ancestor_visits in
        Printf.printf
          "bench-smoke: %5d gates forward eval %.0f ms, %.2f ready-set visits per gate; bound %.1f \
           ms, %.2f ancestor visits per gate\n"
          gates wall_ms ready bound_ms ancestors;
        (ready, ancestors))
      [
        (1_000, 0x40c47c0000000000L, 0x40bb900000000000L);
        (4_000, 0x40e213e000000000L, 0x40d87d8000000000L);
        (16_000, 0x4102a28800000000L, 0x40f91f1000000000L);
      ]
  in
  (match per_gate with
  | [ (r1k, a1k); _; (r16k, a16k) ] ->
      if r16k > 1.5 *. r1k then
        fail "ready-set work grows superlinearly: %.2f visits per gate at 16k vs %.2f at 1k (max 1.5x)"
          r16k r1k;
      if a16k > 1.5 *. a1k then
        fail
          "bound ancestor search grows superlinearly: %.2f visits per gate at 16k vs %.2f at 1k \
           (max 1.5x)"
          a16k a1k
  | _ -> assert false);
  print_endline
    "bench-smoke: OK (workspace routing and A* exact, parallel search exact, estimator pure, \
     prescreen consistent, winner certified, certified bound admissible and deterministic, fault \
     campaign deterministic, route cache bit-identical with fewer searches on every circuit, \
     pathfinder dirty-net schedule converges with fewer searches, incremental on/off identical, \
     delta transactions exact and delta-SA >= 10x full-estimate SA, portfolio deterministic and \
     never worse than the anneal, service batch deterministic and identical to independent runs \
     with fewer searches, warm evaluation >= 5x below the pre-arena allocation, ready-set work \
     linear in program size with unchanged latencies, certified bound admissible with pinned bits \
     and ancestor-search work linear in program size)"
