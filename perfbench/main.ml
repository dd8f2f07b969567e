(* The QSPR benchmark's main program.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   One closed-loop client sends each request line through
   [Service.Scheduler.handle_line] after the previous response came back.
   With [--trace 0] it prints the end-to-end metrics; with [--trace 1] it
   also replays every request through the layers' public functions
   (Replay) and prints the per-layer metrics.  Either way it runs the
   output-correctness gate and the path guards.  The last stdout line is
   one JSON object: {"correct", "attempted", "failed", "metrics"}. *)

open Perfbench
module Scheduler = Service.Scheduler
module Protocol = Service.Protocol

let setups = 9

(* No new cycle starts after this many seconds, even when quality cycles
   are still missing, so a run on a slow host still ends in about two
   minutes. *)
let hard_cap_s = 120.0

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    ("usage: main.exe --workload <" ^ String.concat "|" Workload.names
   ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> go { a with seed = s } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { a with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | _ -> usage ()
  in
  go { workload = ""; seed = 1; seconds = 10.0; trace = false } (List.tl (Array.to_list Sys.argv))

let now () = Unix.gettimeofday ()

(* ------------------------------------------------ gate and path guards *)

let violations = ref []
let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt

(* A failed guard means the run measured another code path than the
   workload names: no result is printed. *)
let guard_failed fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("path guard failed: " ^ m);
      exit 3)
    fmt

let deterministic r = Protocol.response_to_line ~deterministic:true r

let fnv1a64 h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let fnv_offset = 0xcbf29ce484222325L

(* Decodes a response line and applies the gate and the guards to it. *)
let inspect (wl : Workload.t) ~measured ~k line =
  match Protocol.response_of_line line with
  | Error e ->
      violate "request %d: undecodable response (%s)" k e;
      None
  | Ok r ->
      if r.Protocol.cached then guard_failed "request %d was served from the response cache" k;
      (match r.Protocol.verdict with
      | Protocol.Completed c -> (
          if c.shed <> "none" then guard_failed "request %d ran at ladder rung %s" k c.shed;
          if not c.certificate_valid then violate "request %d: invalid certificate" k;
          if not (c.lower_bound_us <= c.latency_us) then
            violate "request %d: lower bound %.17g above latency %.17g" k c.lower_bound_us
              c.latency_us;
          match r.Protocol.cache with
          | None -> guard_failed "request %d has no cache section" k
          | Some cs ->
              if measured && wl.Workload.warm_fabric && cs.Protocol.warm_paths = 0 then
                guard_failed "request %d missed the warm fabric registry" k)
      | Protocol.Rejected { stage; reason; _ } ->
          prerr_endline (Printf.sprintf "request %d rejected at %s: %s" k stage reason)
      | Protocol.Failed { reason; _ } ->
          prerr_endline (Printf.sprintf "request %d failed: %s" k reason));
      Some r

(* Full-service ok: completed, not degraded, certified.  Everything else
   counts as failed. *)
let full_service r =
  match r.Protocol.verdict with
  | Protocol.Completed c -> (not c.degraded) && c.certificate_valid
  | Protocol.Rejected _ | Protocol.Failed _ -> false

(* ------------------------------------------------------------ sampling *)

type sample = {
  k : int;
  cycle : int;
  wall_ms : float;
  words : float;
  gates : int;
  response : Protocol.response option;
}

let handle svc line =
  let w0 = Alloc.minor_words () in
  let t0 = now () in
  let out = Scheduler.handle_line svc line in
  let t1 = now () in
  let w1 = Alloc.minor_words () in
  (out, (t1 -. t0) *. 1000.0, w1 -. w0)

(* [setups] fresh services, each timed from creation to its first
   response; the last one serves the measured requests. *)
let setup (wl : Workload.t) ~on_warmup =
  let times = ref [] and last = ref None in
  for i = 1 to setups do
    let t0 = now () in
    let svc = Scheduler.create ~limits:Workload.limits ~config:Workload.config () in
    let out = Scheduler.handle_line svc wl.Workload.warmup.Workload.line in
    times := (now () -. t0) :: !times;
    (match inspect wl ~measured:false ~k:(-i) out with
    | Some r when full_service r -> ()
    | _ -> guard_failed "warm-up request %d did not complete" i);
    on_warmup ~i out;
    last := Some svc
  done;
  (List.rev !times, Option.get !last)

(* Whole cycles until [seconds] have passed and at least [min_cycles] are
   done; [per_request] runs one request and returns its sample. *)
let measure (wl : Workload.t) ~min_cycles ~seconds ~started per_request =
  let samples = ref [] and k = ref 0 and cycle = ref 0 in
  let t0 = now () in
  while
    (!cycle < min_cycles || now () -. t0 < seconds)
    && now () -. started < hard_cap_s
  do
    for _ = 1 to wl.Workload.cycle do
      samples := per_request ~cycle:!cycle !k (wl.Workload.request !k) :: !samples;
      incr k
    done;
    incr cycle
  done;
  List.rev !samples

(* The deterministic encodings of the leading requests, mapped again on a
   fresh service, must repeat byte for byte. *)
let repeat_check (wl : Workload.t) samples =
  let svc = Scheduler.create ~limits:Workload.limits ~config:Workload.config () in
  let digest = ref fnv_offset and again = ref fnv_offset in
  List.iteri
    (fun i s ->
      if i < wl.Workload.repeat_prefix then
        match s.response with
        | None -> ()
        | Some r -> (
            digest := fnv1a64 !digest (deterministic r);
            let out = Scheduler.handle_line svc (wl.Workload.request s.k).Workload.line in
            match Protocol.response_of_line out with
            | Ok r2 -> again := fnv1a64 !again (deterministic r2)
            | Error e -> violate "repeat of request %d: undecodable response (%s)" s.k e))
    samples;
  if not (Int64.equal !digest !again) then
    violate "deterministic encodings differ on repeat: %016Lx vs %016Lx" !digest !again;
  prerr_endline
    (Printf.sprintf "deterministic digest of the first %d responses: %016Lx"
       wl.Workload.repeat_prefix !digest)

(* The service's own counters agree with the per-response guards. *)
let check_stats (wl : Workload.t) svc =
  let st = Scheduler.stats svc in
  if st.Scheduler.response_hits <> 0 then
    guard_failed "%d responses came from the response cache" st.Scheduler.response_hits;
  if wl.Workload.warm_fabric && (st.Scheduler.fabrics <> 1 || st.Scheduler.fabric_evictions <> 0)
  then
    guard_failed "the warm registry holds %d fabrics after %d evictions" st.Scheduler.fabrics
      st.Scheduler.fabric_evictions

(* ------------------------------------------------------------- metrics *)

let sorted l = List.sort Float.compare l

(* Nearest rank: the smallest value with at least [q] of the samples at or
   below it. *)
let percentile q l =
  match sorted l with
  | [] -> Float.nan
  | s ->
      let n = List.length s in
      List.nth s (max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  match sorted l with
  | [] -> Float.nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let mean l = match l with [] -> Float.nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let sum l = List.fold_left ( +. ) 0.0 l

(* Median request time per gate at the largest program size over the same
   at the smallest.  With sizes g_min < g_max and a power law t ~ g^e the
   ratio is (g_max / g_min)^(e - 1): above 1 the mapper is superlinear.
   Unlike the exponent itself it stays away from 0 when size barely
   matters (serve-cold-fabric), so its run-to-run spread is a usable
   share of its median. *)
let per_gate_time_ratio samples =
  let sizes = List.sort_uniq compare (List.map (fun s -> s.gates) samples) in
  let per_gate g =
    median
      (List.filter_map
         (fun s -> if s.gates = g then Some (s.wall_ms /. float_of_int g) else None)
         samples)
  in
  match sizes with
  | [] -> Float.nan
  | smallest :: _ -> per_gate (List.nth sizes (List.length sizes - 1)) /. per_gate smallest

let latency_of s =
  match s.response with
  | Some ({ Protocol.verdict = Protocol.Completed c; _ } as r) when full_service r ->
      Some c.latency_us
  | _ -> None

let end_to_end (wl : Workload.t) ~setup_times samples =
  let ok = List.filter (fun s -> latency_of s <> None) samples in
  let walls = List.map (fun s -> s.wall_ms) samples in
  let busy_s = sum walls /. 1000.0 in
  let quality =
    List.filter_map
      (fun s -> if s.cycle < wl.Workload.quality_cycles then latency_of s else None)
      samples
  in
  [
    ("requests_per_s", "1/s", float_of_int (List.length ok) /. busy_s);
    ("request_p50_ms", "ms", percentile 0.5 walls);
    ("request_p90_ms", "ms", percentile 0.9 walls);
    ("gates_per_s", "1/s", float_of_int (List.fold_left (fun a s -> a + s.gates) 0 ok) /. busy_s);
    ("per_gate_time_ratio", "1", per_gate_time_ratio ok);
    ("mapped_latency_geomean_us", "us", exp (mean (List.map log quality)));
    ("ok_rate", "1", float_of_int (List.length ok) /. float_of_int (List.length samples));
    ("setup_s", "s", median setup_times);
    ("minor_words_per_request", "words", mean (List.map (fun s -> s.words) samples));
    ("peak_heap_mb", "MiB", Alloc.peak_heap_mb ());
  ]

(* ------------------------------------------------------------- traced run *)

let span_layers =
  [
    "service.decode";
    "qasm.parse";
    "fabric.parse";
    "analysis.lint";
    "service.registry";
    "fabric.extract";
    "fabric.graph";
    "estimator.distance";
    "core.create";
    "estimator.quote";
    "router.snapshot";
    "service.arena";
    "placer.search";
    "analysis.certify";
    "service.encode";
    "simulator.eval";
    "estimator.bound";
  ]

let strategy_group name =
  if String.length name >= 8 && String.sub name 0 8 = "delta-sa" then "delta_sa" else name

type traced = { sample : sample; replay : Replay.t option }

let check_replay ~k (service : Protocol.response) (rp : Replay.t) =
  (match (service.Protocol.verdict, rp.Replay.response.Protocol.verdict) with
  | Protocol.Completed a, Protocol.Completed b ->
      if
        not
          (Int64.equal (Int64.bits_of_float a.latency_us) (Int64.bits_of_float b.latency_us)
          && Int64.equal a.certificate_digest b.certificate_digest)
      then
        violate "request %d: replay latency/digest %.17g/%016Lx differ from the service's %.17g/%016Lx"
          k b.latency_us b.certificate_digest a.latency_us a.certificate_digest;
      (* the portfolio probes must be the searches the service ran *)
      List.iter
        (fun (st : Replay.strategy) ->
          let stage = "portfolio:" ^ st.Replay.strategy in
          match List.find_opt (fun (at : Protocol.attempt) -> at.Protocol.stage = stage) a.attempts with
          | Some { Protocol.outcome = Ok l; _ } when Float.equal l st.Replay.latency -> ()
          | _ -> violate "request %d: strategy %s probe disagrees with the response" k stage)
        rp.Replay.probe.Replay.strategies
  | _ -> violate "request %d: replay verdict differs from the service's" k);
  if not (String.equal (deterministic service) (deterministic rp.Replay.response)) then
    violate "request %d: replayed deterministic encoding differs from the service's" k;
  if not rp.Replay.probe.Replay.bound_ok then violate "request %d: recomputed bound differs" k;
  let coverage = rp.Replay.mirrored_ms /. rp.Replay.wall_ms in
  if coverage < 0.95 || coverage > 1.0001 then
    violate "request %d: spans cover %.3f of the replay's wall time" k coverage

let per_layer rec_ ~registry (traced : traced list) =
  let spans = Span.spans rec_ in
  let by_name name = List.filter (fun (s : Span.t) -> s.Span.name = name) spans in
  let span_metrics =
    List.concat_map
      (fun name ->
        let calls = by_name name in
        [
          (name ^ "_ms", "ms", mean (List.map (fun (s : Span.t) -> s.Span.end_ms -. s.Span.start_ms) calls));
          (name ^ "_minor_words", "words", mean (List.map (fun (s : Span.t) -> s.Span.minor_words) calls));
        ])
      span_layers
  in
  let replays = List.filter_map (fun t -> Option.map (fun r -> (t.sample, r)) t.replay) traced in
  let search_total = sum (List.map (fun (_, r) -> r.Replay.search_ms) replays) in
  let strategy_ms group =
    sum
      (List.map
         (fun (_, (r : Replay.t)) ->
           if r.Replay.placer = "portfolio" then
             sum
               (List.filter_map
                  (fun (st : Replay.strategy) ->
                    if strategy_group st.Replay.strategy = group then Some st.Replay.ms else None)
                  r.Replay.probe.Replay.strategies)
           else if r.Replay.placer = group then r.Replay.search_ms
           else 0.0)
         replays)
  in
  let portfolio = List.filter (fun (_, r) -> r.Replay.placer = "portfolio") replays in
  let portfolio_coverage =
    match portfolio with
    | [] -> 0.0
    | _ ->
        sum
          (List.map
             (fun (_, (r : Replay.t)) ->
               sum (List.map (fun (st : Replay.strategy) -> st.Replay.ms) r.Replay.probe.Replay.strategies))
             portfolio)
        /. sum (List.map (fun (_, r) -> r.Replay.search_ms) portfolio)
  in
  if portfolio <> [] && (portfolio_coverage < 0.75 || portfolio_coverage > 1.33) then
    prerr_endline
      (Printf.sprintf "warning: portfolio sub-spans cover %.3f of placer.search" portfolio_coverage);
  let cache_of (s : sample) =
    match s.response with Some { Protocol.cache = Some c; _ } -> Some c | _ -> None
  in
  let caches = List.filter_map (fun (s, _) -> cache_of s) replays in
  let per_request f = mean (List.map (fun c -> float_of_int (f c)) caches) in
  let hits = sum (List.map (fun c -> float_of_int c.Protocol.hits) caches) in
  let misses = sum (List.map (fun c -> float_of_int c.Protocol.misses) caches) in
  let evals, runs =
    List.fold_left
      (fun (e, r) (s, _) ->
        match s.response with
        | Some { Protocol.verdict = Protocol.Completed c; _ } ->
            (e + c.engine_evals, r + c.placement_runs)
        | _ -> (e, r))
      (0, 0) replays
  in
  let n = float_of_int (List.length replays) in
  span_metrics
  @ [
      ( "service.overhead_ms",
        "ms",
        median (List.map (fun (s, r) -> s.wall_ms -. r.Replay.mirrored_ms) replays) );
      ("trace.request_ms", "ms", median (List.map (fun (s, _) -> s.wall_ms) replays));
      ( "trace.overhead_ms",
        "ms",
        median (List.map (fun (s, r) -> r.Replay.wall_ms -. s.wall_ms) replays) );
      ( "trace.span_coverage",
        "1",
        List.fold_left
          (fun a (_, r) -> Float.min a (r.Replay.mirrored_ms /. r.Replay.wall_ms))
          1.0 replays );
      ("placer.mvfb_share", "1", strategy_ms "mvfb" /. search_total);
      ("placer.mc_share", "1", strategy_ms "mc" /. search_total);
      ("placer.sa_share", "1", strategy_ms "sa" /. search_total);
      ("placer.delta_sa_share", "1", strategy_ms "delta_sa" /. search_total);
      ("placer.portfolio_coverage", "1", portfolio_coverage);
      ("placer.engine_evals", "count", float_of_int evals /. n);
      ("placer.evals_per_run", "1", float_of_int evals /. float_of_int (max 1 runs));
      ("router.route_searches", "count", per_request (fun c -> c.Protocol.misses));
      ("router.cache_hit_ratio", "1", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
      ("router.bound_builds", "count", per_request (fun c -> c.Protocol.bound_builds));
      ("router.shared_hits", "count", per_request (fun c -> c.Protocol.shared_hits));
      ( "simulator.eval_route_searches",
        "count",
        mean (List.map (fun (_, r) -> float_of_int r.Replay.probe.Replay.eval_searches) replays) );
      ( "simulator.eval_cache_hits",
        "count",
        mean (List.map (fun (_, r) -> float_of_int r.Replay.probe.Replay.eval_cache_hits) replays) );
      ("service.registry_evictions", "count", float_of_int (Replay.registry_evictions registry) /. n);
    ]

(* ------------------------------------------------------------- output *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  List.iter
    (fun (name, unit, v) -> prerr_endline (Printf.sprintf "  %-34s %18s %s" name (json_number v) unit))
    metrics;
  List.iter (fun v -> prerr_endline ("correctness violation: " ^ v)) (List.rev !violations);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!violations = []) attempted failed (String.concat ", " fields)

let () =
  let args = parse_args () in
  let wl = match Workload.make args.workload ~seed:args.seed with Some w -> w | None -> usage () in
  let started = now () in
  let plain_request svc ~cycle k (req : Workload.request) =
    let out, wall_ms, words = handle svc req.Workload.line in
    let response = inspect wl ~measured:true ~k out in
    { k; cycle; wall_ms; words; gates = req.Workload.gates; response }
  in
  let svc, samples, metrics =
    if not args.trace then begin
      let setup_times, svc = setup wl ~on_warmup:(fun ~i:_ _ -> ()) in
      let samples =
        measure wl ~min_cycles:wl.Workload.quality_cycles ~seconds:args.seconds ~started
          (plain_request svc)
      in
      (svc, samples, end_to_end wl ~setup_times samples)
    end
    else begin
      let rec_ = Span.create () in
      let registry = ref (Replay.create_registry ()) in
      let on_warmup ~i out =
        registry := Replay.create_registry ();
        match (Replay.run rec_ !registry ~request:(-i) wl.Workload.warmup.Workload.line,
               Protocol.response_of_line out) with
        | Ok rp, Ok r -> check_replay ~k:(-i) r rp
        | Error e, _ -> violate "warm-up %d: replay refused (%s)" i e
        | _, Error e -> violate "warm-up %d: undecodable response (%s)" i e
      in
      let _, svc = setup wl ~on_warmup in
      let traced = ref [] in
      let samples =
        (* the quality number is not reported here, so one cycle will do *)
        measure wl ~min_cycles:1 ~seconds:args.seconds ~started (fun ~cycle k req ->
            let s = plain_request svc ~cycle k req in
            let replay =
              match (s.response, Replay.run rec_ !registry ~request:k req.Workload.line) with
              | Some r, Ok rp ->
                  check_replay ~k r rp;
                  Some rp
              | Some r, Error e ->
                  if full_service r then violate "request %d: replay refused (%s)" k e;
                  None
              | None, _ -> None
            in
            traced := { sample = s; replay } :: !traced;
            s)
      in
      let dir = Filename.concat "perfbench" "out" in
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" wl.Workload.name args.seed) in
      (try Span.write rec_ path with Sys_error e -> prerr_endline ("cannot write spans: " ^ e));
      (svc, samples, per_layer rec_ ~registry:!registry (List.rev !traced))
    end
  in
  check_stats wl svc;
  repeat_check wl samples;
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> latency_of s = None) samples) in
  prerr_endline
    (Printf.sprintf "%s seed %d: %d requests in %d cycles, %.1f s" wl.Workload.name args.seed
       attempted
       (match List.rev samples with s :: _ -> s.cycle + 1 | [] -> 0)
       (now () -. started));
  print_result ~attempted ~failed metrics;
  if !violations <> [] then exit 1
