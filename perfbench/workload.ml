module Protocol = Service.Protocol

type request = { line : string; gates : int }

type t = {
  name : string;
  cycle : int;
  quality_cycles : int;
  repeat_prefix : int;
  warm_fabric : bool;
  warmup : request;
  request : int -> request;
}

let names = [ "serve-table1-warm"; "serve-cold-fabric"; "map-scale" ]

let config =
  {
    Qspr.Config.timing = Router.Timing.paper;
    qspr_policy = Simulator.Engine.qspr_policy;
    quale_policy = Simulator.Engine.quale_policy;
    m = 100;
    sa_moves = 20_000;
    patience = 3;
    rng_seed = 2012;
    jobs = 1;
    prescreen_k = None;
    budget = Qspr.Config.no_budget;
    incremental_routing = true;
  }

let limits =
  {
    Service.Scheduler.jobs = 1;
    max_pending = 64;
    max_quote_us = None;
    max_evals = None;
    shed_start = None;
    max_fabrics = 8;
    response_cache = 256;
    response_ttl_s = None;
  }

(* The warm-up request's index: outside the range any run reaches, so its
   seed never equals a measured request's.  Warm-up requests are built from
   seed 0 whatever the run's seed, so every run sets up with the same work. *)
let warmup_index = 999_999

(* A distinct request seed per (run seed, request index): distinct seeds make
   distinct response-cache keys, so the cache never answers a request. *)
let request_seed seed k = 1 + ((abs seed mod 10_000) * 1_000_000) + k

let line_of ?fabric ~seed ~placer ~k circuit =
  Protocol.job_to_line
    (Protocol.make_job ?fabric ~seed:(request_seed seed k) ~placer ~m:2
       ~id:(Printf.sprintf "r%d" k) circuit)

let table1 = Circuits.Qecc.all ()

let gates_of name = Qasm.Program.gate_count (List.assoc name table1)

let serve_table1_warm ~seed =
  let circuits = Array.of_list (List.map fst table1) in
  let n = Array.length circuits in
  let request k =
    let name = circuits.(k mod n) in
    { line = line_of ~seed ~placer:"portfolio" ~k (Protocol.Builtin name); gates = gates_of name }
  in
  {
    name = "serve-table1-warm";
    cycle = n;
    quality_cycles = 8;
    repeat_prefix = n;
    warm_fabric = true;
    warmup = request warmup_index;
    request;
  }

(* Every trap must reach every other one, or a request could deadlock; the
   moves are reversible, so reachability from one trap suffices. *)
let traps_connected comp =
  let graph = Fabric.Graph.build comp in
  let traps = Array.length (Fabric.Component.traps comp) in
  let seen = Array.make (Fabric.Graph.num_nodes graph) false in
  let stack = ref [ Fabric.Graph.trap_node graph 0 ] in
  seen.(Fabric.Graph.trap_node graph 0) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        for e = Fabric.Graph.succ_start graph u to Fabric.Graph.succ_stop graph u - 1 do
          let v = Fabric.Graph.succ_dst graph e in
          if not seen.(v) then begin
            seen.(v) <- true;
            stack := v :: !stack
          end
        done
  done;
  let ok = ref true in
  for i = 0 to traps - 1 do
    if not seen.(Fabric.Graph.trap_node graph i) then ok := false
  done;
  !ok

let serve_cold_fabric ~seed =
  let base = Fabric.Layout.quale_45x85 () in
  let base_comp =
    match Fabric.Component.extract base with Ok c -> c | Error e -> failwith e
  in
  let circuits = [| "[[5,1,3]]"; "[[7,1,3]]" |] in
  let programs = Array.map (fun name -> List.assoc name table1) circuits in
  (* request k's fabric: three structural faults drawn with index k.  A draw
     that would refuse or strand a request (lint error, disconnected traps)
     is redrawn at the next index of a disjoint range, so every request of
     the stream can complete. *)
  let rec fabric_for k attempt =
    let index = k + (attempt * 10_000_000) in
    let faults = Fault.sample ~seed ~index ~n:3 base_comp in
    let usable =
      match Fault.apply base faults with
      | Error _ -> None
      | Ok applied -> (
          let ascii = Fabric.Layout.to_ascii applied.Fault.layout in
          match Fabric.Layout.parse ascii with
          | Error _ -> None
          | Ok layout -> (
              match Fabric.Component.extract layout with
              | Error _ -> None
              | Ok comp ->
                  let clean =
                    Array.for_all
                      (fun p ->
                        Analysis.Finding.is_clean
                          (Analysis.Registry.lint ~program:(Ok p) ~fabric:(Ok layout) ~config ()))
                      programs
                  in
                  if clean && traps_connected comp then Some ascii else None))
    in
    match usable with Some ascii -> ascii | None -> fabric_for k (attempt + 1)
  in
  let request k =
    let name = circuits.(k mod 2) in
    {
      line = line_of ~fabric:(fabric_for k 0) ~seed ~placer:"mvfb" ~k (Protocol.Builtin name);
      gates = gates_of name;
    }
  in
  {
    name = "serve-cold-fabric";
    cycle = 2;
    quality_cycles = 50;
    repeat_prefix = 4;
    warm_fabric = false;
    warmup = request warmup_index;
    request;
  }

let scale_sizes = [| 1000; 2000; 4000; 8000 |]

let map_scale ~seed =
  let make k ~gates =
    let program =
      Circuits.Library.random_clifford (Ion_util.Rng.derive seed ~index:k) ~num_qubits:40 ~gates
    in
    {
      line =
        line_of ~seed ~placer:"center" ~k (Protocol.Inline_qasm (Qasm.Printer.to_string program));
      gates = Qasm.Program.gate_count program;
    }
  in
  {
    name = "map-scale";
    cycle = Array.length scale_sizes;
    quality_cycles = 6;
    repeat_prefix = 2;
    warm_fabric = true;
    warmup = make warmup_index ~gates:scale_sizes.(0);
    request = (fun k -> make k ~gates:scale_sizes.(k mod Array.length scale_sizes));
  }

let make name ~seed =
  let build =
    match name with
    | "serve-table1-warm" -> Some serve_table1_warm
    | "serve-cold-fabric" -> Some serve_cold_fabric
    | "map-scale" -> Some map_scale
    | _ -> None
  in
  Option.map (fun build -> { (build ~seed) with warmup = (build ~seed:0).warmup }) build
