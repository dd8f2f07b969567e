module D = Qasm.Dag
module Timing = Router.Timing

type kind = Critical_path | Serialization | Capacity | Placement | Exact

let kind_to_string = function
  | Critical_path -> "critical-path"
  | Serialization -> "serialization"
  | Capacity -> "capacity"
  | Placement -> "placement"
  | Exact -> "exact"

let kind_of_string = function
  | "critical-path" -> Some Critical_path
  | "serialization" -> Some Serialization
  | "capacity" -> Some Capacity
  | "placement" -> Some Placement
  | "exact" -> Some Exact
  | _ -> None

type t = {
  critical_path_us : float;
  serialization_us : float;
  capacity_us : float;
  placement_us : float option;
  lower_bound_us : float;
  kind : kind;
  ancestor_visits : int;
}

(* Release-time propagation: est(i) >= release(i) and
   est(i) >= est(p) + delay(p) for every QIDG predecessor p.  Any legal
   schedule satisfies both, so max_i (est(i) + delay(i)) is admissible. *)
let propagate ~delay nodes release =
  let n = Array.length nodes in
  let est = Array.make n 0.0 in
  let finish = ref 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      let r =
        List.fold_left
          (fun acc p -> Float.max acc (est.(p) +. delay nodes.(p).D.instr))
          release.(nd.D.id) nd.D.preds
      in
      est.(nd.D.id) <- r;
      finish := Float.max !finish (r +. delay nd.D.instr))
    nodes;
  !finish

(* Ancestor gate work per operand, W_q(i): the summed delay of the QIDG
   ancestors of [i] that touch qubit [q].  They all finish before [i]
   starts and pairwise share ion [q], hence run serially.  The QIDG's
   read/write hazards ({!Qasm.Dag}) make the set cheap to name:

   - every q-gate before q's last writer W is an ancestor of W, so when
     [i] writes q, or reads it after W, all q-gates up to W count — a
     per-qubit prefix sum in id order;
   - when [i] writes q it also depends on every reader of q since W, so
     all earlier q-gates count;
   - when [i] reads q (a control), the co-readers of q since W are
     ancestors only if some other path reaches [i].  A backward search over
     preds, restricted to ids >= the oldest co-reader (every path from it
     stays there), stamps them.

   Summing the prefix and then the reached co-readers in ascending id adds
   exactly the terms an id-ordered walk of the full ancestor set would, in
   the same order, so the value is bit-for-bit that sum. *)
let placement_bound ~delay ~timing ~dist ~pl nodes nq =
  let n = Array.length nodes in
  if Array.length pl < nq then
    invalid_arg "Estimator.Bound.compute: placement shorter than the program's qubit count";
  let ntraps = Distance.num_traps dist in
  for q = 0 to nq - 1 do
    if pl.(q) < 0 || pl.(q) >= ntraps then
      invalid_arg "Estimator.Bound.compute: placement names a trap outside the distance tables"
  done;
  let prefix = Array.make nq 0.0 (* all q-gates so far *)
  and at_writer = Array.make nq 0.0 (* q-gates up to q's last writer *)
  and readers = Array.make nq [] (* q's readers since that writer, newest first *)
  and ctrl = Array.make n (-1) (* control qubit of each two-qubit gate *)
  and stamp = Array.make n (-1)
  and stack = Array.make (max n 1) 0
  and visits = ref 0 in
  let touch q d = if d > 0.0 then prefix.(q) <- prefix.(q) +. d in
  let write q d =
    touch q d;
    at_writer.(q) <- prefix.(q);
    readers.(q) <- []
  in
  let read_work i q =
    match readers.(q) with
    | [] -> at_writer.(q)
    | rs ->
        (* stamp the ancestors of i with id >= lo, stopping once every
           co-reader is found *)
        let lo = List.fold_left Int.min i rs in
        let missing = ref (List.length rs) and sp = ref 0 in
        let push p =
          if p >= lo && stamp.(p) <> i then begin
            stamp.(p) <- i;
            incr visits;
            if ctrl.(p) = q then decr missing;
            stack.(!sp) <- p;
            incr sp
          end
        in
        List.iter push nodes.(i).D.preds;
        while !missing > 0 && !sp > 0 do
          decr sp;
          List.iter push nodes.(stack.(!sp)).D.preds
        done;
        List.fold_left
          (fun acc r ->
            let d = delay nodes.(r).D.instr in
            if d > 0.0 && stamp.(r) = i then acc +. d else acc)
          at_writer.(q) (List.rev rs)
  in
  let t_move = timing.Timing.t_move in
  let release = Array.make n 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      let i = nd.D.id in
      let d = delay nd.D.instr in
      match nd.D.instr with
      | Qasm.Instr.Qubit_decl { qubit; _ } -> write qubit d
      | Qasm.Instr.Gate1 (_, q) ->
          release.(i) <- prefix.(q);
          write q d
      | Qasm.Instr.Gate2 (_, a, b) ->
          (* The gate runs in some trap m; each operand must first spend its
             ancestor gate time and then at least the shortest-path travel
             from its initial trap to m (a route's cumulative cost can only
             exceed the table distance).  Minimize over the unknown m. *)
          let wa = read_work i a and wb = prefix.(b) in
          let pa = pl.(a) and pb = pl.(b) in
          let best = ref infinity in
          for m = 0 to ntraps - 1 do
            let c =
              Float.max
                (wa +. (Distance.between dist pa m *. t_move))
                (wb +. (Distance.between dist pb m *. t_move))
            in
            if c < !best then best := c
          done;
          release.(i) <- !best;
          ctrl.(i) <- a;
          touch a d;
          readers.(a) <- i :: readers.(a);
          write b d)
    nodes;
  (propagate ~delay nodes release, !visits)

let compute ?placement ?distance ~timing ~num_traps dag =
  let delay = Timing.gate_delay timing in
  let nodes = D.nodes dag in
  let nq = Qasm.Program.num_qubits (D.program dag) in
  let critical_path_us = D.critical_path ~delay dag in
  (* serialization: the busiest single ion's total gate time *)
  let per_q = Array.make (max nq 1) 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      let d = delay nd.D.instr in
      if d > 0.0 then List.iter (fun q -> per_q.(q) <- per_q.(q) +. d) (Qasm.Instr.qubits nd.D.instr))
    nodes;
  let serialization_us = Array.fold_left Float.max 0.0 per_q in
  (* capacity: two-qubit gate work over the concurrency ceiling *)
  let g2 =
    Array.fold_left (fun acc nd -> if Qasm.Instr.is_two_qubit nd.D.instr then acc + 1 else acc) 0 nodes
  in
  let slots = min num_traps (nq / 2) in
  let capacity_us =
    if g2 = 0 || slots <= 0 then 0.0
    else float_of_int g2 *. timing.Timing.t_gate2 /. float_of_int slots
  in
  let placement_us, ancestor_visits =
    match (placement, distance) with
    | Some pl, Some dist when Array.length nodes > 0 ->
        let p, visits = placement_bound ~delay ~timing ~dist ~pl nodes nq in
        (Some p, visits)
    | _ -> (None, 0)
  in
  let candidates =
    [
      (Critical_path, critical_path_us);
      (Serialization, serialization_us);
      (Capacity, capacity_us);
    ]
    @ (match placement_us with Some p -> [ (Placement, p) ] | None -> [])
  in
  let lower_bound_us = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 candidates in
  let kind =
    (* first in catalog order attaining the max, for deterministic ties *)
    match List.find_opt (fun (_, v) -> v >= lower_bound_us) candidates with
    | Some (k, _) -> k
    | None -> Critical_path
  in
  {
    critical_path_us;
    serialization_us;
    capacity_us;
    placement_us;
    lower_bound_us;
    kind;
    ancestor_visits;
  }

type infeasibility = {
  inf_qubits : int;
  inf_traps : int;
  inf_required : int;
  inf_hard : bool;
}

let infeasibility ~num_traps dag =
  let nq = Qasm.Program.num_qubits (D.program dag) in
  if nq = 0 then None
  else if 2 * num_traps < nq then
    Some { inf_qubits = nq; inf_traps = num_traps; inf_required = (nq + 1) / 2; inf_hard = true }
  else if num_traps < nq then
    Some { inf_qubits = nq; inf_traps = num_traps; inf_required = nq; inf_hard = false }
  else None

let infeasibility_message i =
  if i.inf_hard then
    Printf.sprintf
      "capacity bound is infinite: %d qubits need at least %d traps (two ions per trap) but the \
       fabric has %d"
      i.inf_qubits i.inf_required i.inf_traps
  else
    Printf.sprintf
      "unmappable under the load rule: %d qubits need %d traps (one ion per trap at load) but the \
       fabric has %d"
      i.inf_qubits i.inf_required i.inf_traps
