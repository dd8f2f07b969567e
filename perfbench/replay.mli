(** The traced replay: one request re-run through the layers' public
    functions, each call timed as a {!Span.t}.

    The replay mirrors what [Service.Scheduler.handle_line] does for a
    full-service request — decode, circuit and fabric resolution, lint,
    the per-fabric warm registry (extract, graph, distance tables), mapper
    context, quote, route-cache snapshot attach/fold, arenas, placer
    search, certification, encode — in the same order.  It keeps its own
    registry with the service's capacity and LRU policy, so fed the same
    request stream it warms and evicts exactly like the service.

    Probes run afterwards under their own root span, on a fresh context
    that starts from the same warm route-cache state as the request: one
    forward engine run of the winning placement, the certified bound, and
    for portfolio requests each portfolio strategy on its own. *)

type registry

val create_registry : unit -> registry

val registry_evictions : registry -> int

type strategy = { strategy : string; ms : float; latency : float }

type probe = {
  eval_searches : int;  (** [Engine.result.route_searches] of the eval run *)
  eval_cache_hits : int;
  bound_ok : bool;  (** the recomputed bound equals the solution's, bitwise *)
  strategies : strategy list;
      (** portfolio requests: per-strategy wall time and latency; the two
          delta-annealing streams are separate entries *)
}

type t = {
  response : Service.Protocol.response;  (** the replayed response *)
  placer : string;
  wall_ms : float;  (** the replay root span *)
  mirrored_ms : float;  (** sum of the replay's direct child spans *)
  search_ms : float;
  probe : probe;
}

val run : Span.recorder -> registry -> request:int -> string -> (t, string) result
(** Replays one request line.  [Error] when the request does not take the
    full-service path (refused by lint or the mapper, or the mapping
    failed). *)
