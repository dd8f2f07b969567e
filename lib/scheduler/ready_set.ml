open Qasm

(* Per-instruction state, one int: [>= 0] while Ready — the instruction's
   index in the ready bag — or one of the negative codes below.  Folding the
   bag position into the state keeps add/remove O(1) without a second
   per-instruction array. *)
let waiting = -1
let deferred = -2
let in_flight = -3
let done_ = -4

type t = {
  dag : Dag.t;
  priorities : float array;
  slot : int array; (* state or bag position, see above *)
  pending_preds : int array;
  (* [ids.(0 .. n_ready-1)] is the ready bag (unordered); the busy queue
     grows down from the other end, [ids.(n - n_busy .. n-1)].  Ready and
     deferred instructions are disjoint, so the two never meet. *)
  ids : int array;
  scratch : int array; (* reusable snapshot buffer for iter_ready *)
  mutable n_ready : int;
  mutable n_done : int;
  mutable n_busy : int;
  mutable n_flight : int;
  mutable visits : int;
}

let add_ready t i =
  t.slot.(i) <- t.n_ready;
  t.ids.(t.n_ready) <- i;
  t.n_ready <- t.n_ready + 1

(* swap-remove a Ready id from the bag and give it state [s] *)
let remove_ready t i s =
  let p = t.slot.(i) in
  let last = t.n_ready - 1 in
  let moved = t.ids.(last) in
  t.ids.(p) <- moved;
  t.slot.(moved) <- p;
  t.n_ready <- last;
  t.slot.(i) <- s

let create dag ~priorities =
  let n = Dag.num_nodes dag in
  if Array.length priorities <> n then invalid_arg "Ready_set.create: priorities length mismatch";
  let pending_preds = Array.init n (fun i -> List.length (Dag.node dag i).Dag.preds) in
  let t =
    {
      dag;
      priorities;
      slot = Array.make n waiting;
      pending_preds;
      ids = Array.make n 0;
      scratch = Array.make n 0;
      n_ready = 0;
      n_done = 0;
      n_busy = 0;
      n_flight = 0;
      visits = 0;
    }
  in
  for i = 0 to n - 1 do
    if pending_preds.(i) = 0 then add_ready t i
  done;
  t

(* highest priority first, ties toward lower id — a total order, so the
   snapshot sequence does not depend on the bag's internal order *)
let before t a b =
  match Float.compare t.priorities.(b) t.priorities.(a) with 0 -> a < b | c -> c < 0

let iter_ready t f =
  (* copy the bag into the reusable scratch, insertion sort it (ready sets
     are small), iterate.  The buffer is only valid during this call — [f]
     may mutate the set freely, the snapshot is already taken. *)
  let buf = t.scratch in
  let k = t.n_ready in
  Array.blit t.ids 0 buf 0 k;
  t.visits <- t.visits + k;
  for i = 1 to k - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && before t x buf.(!j) do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  for i = 0 to k - 1 do
    f buf.(i)
  done

let is_ready t i = t.slot.(i) >= 0

let mark_issued t i =
  if t.slot.(i) < 0 then invalid_arg "Ready_set.mark_issued: instruction not ready";
  remove_ready t i in_flight;
  t.n_flight <- t.n_flight + 1

let mark_done t i =
  let state = t.slot.(i) in
  if state = in_flight then begin
    t.n_flight <- t.n_flight - 1;
    t.slot.(i) <- done_
  end
  else if state >= 0 then remove_ready t i done_ (* declarations complete without issue *)
  else invalid_arg "Ready_set.mark_done: bad state";
  t.n_done <- t.n_done + 1;
  List.filter
    (fun s ->
      t.pending_preds.(s) <- t.pending_preds.(s) - 1;
      if t.pending_preds.(s) = 0 && t.slot.(s) = waiting then begin
        add_ready t s;
        true
      end
      else false)
    (Dag.node t.dag i).Dag.succs

let defer t i =
  if t.slot.(i) < 0 then invalid_arg "Ready_set.defer: instruction not ready";
  remove_ready t i deferred;
  t.n_busy <- t.n_busy + 1;
  t.ids.(Array.length t.ids - t.n_busy) <- i

let requeue_busy t =
  let n = Array.length t.ids in
  (* the bag may grow into the queue's cells only after they are read *)
  for j = n - t.n_busy to n - 1 do
    add_ready t t.ids.(j)
  done;
  t.visits <- t.visits + t.n_busy;
  t.n_busy <- 0

let ready_count t = t.n_ready
let busy_count t = t.n_busy
let done_count t = t.n_done
let all_done t = t.n_done = Dag.num_nodes t.dag
let in_flight_count t = t.n_flight
let visits t = t.visits
