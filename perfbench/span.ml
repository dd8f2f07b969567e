type t = {
  id : int;
  name : string;
  start_ms : float;
  end_ms : float;
  parent : int;
  request : int;
  minor_words : float;
}

type recorder = {
  origin : float;
  mutable next_id : int;
  mutable finished : t list;  (* newest first *)
  requests : (int, int) Hashtbl.t;  (* span id -> request *)
  by_parent : (int, t list) Hashtbl.t;  (* parent id -> children, newest first *)
}

let create () =
  {
    origin = Unix.gettimeofday ();
    next_id = 0;
    finished = [];
    requests = Hashtbl.create 1024;
    by_parent = Hashtbl.create 1024;
  }

let now_ms r = (Unix.gettimeofday () -. r.origin) *. 1000.0

let run r ~parent ~request name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  Hashtbl.replace r.requests id request;
  let w0 = Alloc.minor_words () in
  let t0 = now_ms r in
  let x = f id in
  let t1 = now_ms r in
  let w1 = Alloc.minor_words () in
  let span =
    { id; name; start_ms = t0; end_ms = t1; parent; request; minor_words = w1 -. w0 }
  in
  r.finished <- span :: r.finished;
  Hashtbl.replace r.by_parent parent
    (span :: Option.value ~default:[] (Hashtbl.find_opt r.by_parent parent));
  (x, span)

let root r ~request name f = run r ~parent:(-1) ~request name f

let child r ~parent name f =
  let request = Option.value ~default:0 (Hashtbl.find_opt r.requests parent) in
  fst (run r ~parent ~request name (fun _ -> f ()))

let spans r = List.rev r.finished

let children r id = List.rev (Option.value ~default:[] (Hashtbl.find_opt r.by_parent id))

let write r path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,\"request\":%d,\"minor_words\":%.0f}\n"
        s.id s.name s.start_ms s.end_ms s.parent s.request s.minor_words)
    (spans r);
  close_out oc
