(** The line-delimited JSON wire protocol of [qspr serve].

    One request per line (schema ["qspr-job/2"]), one response per line
    (schema ["qspr-result/3"]); decoders refuse every other version.
    Requests are pure data — circuit, fabric, seed, placer, budgets — and
    every response is a pure function of its request and the service
    configuration: per-request seeds make responses bit-reproducible, so
    identical requests are end-to-end cacheable.

    Two response sections are {e observability, not results}: the [cache]
    counters (warm-table hits vary with what ran before) and [cpu_s].
    Encoding with [~deterministic:true] omits both, leaving exactly the
    reproducible payload — the golden-file CI check and the
    shared-vs-cold byte-identity tests compare that form. *)

type circuit =
  | Builtin of string  (** a circuit from [Circuits.Qecc.all] (Table 1) *)
  | Inline_qasm of string  (** QASM source carried in the request *)

type job = {
  id : string;  (** client-chosen correlation id, echoed in the response *)
  circuit : circuit;
  fabric : string option;
      (** ASCII fabric layout; [None] = the paper's QUALE 45x85 grid *)
  seed : int;  (** root seed for all randomized placement (default 2012) *)
  placer : string;
      (** ["portfolio"] (default), ["mvfb"], ["mc"], ["sa"], ["center"]
          or ["robust"] *)
  m : int option;  (** placer width (MVFB seeds / MC runs / SA schedule) *)
  max_evals : int option;  (** deterministic engine-evaluation budget *)
  max_quote_us : float option;
      (** client-side admission ceiling: reject when the estimator quotes
          a higher predicted latency than this *)
  deadline_ms : float option;
      (** end-to-end deadline: the service arms it at admission and the
          mapper polls it at cooperative checkpoints, so a request past
          its deadline gets a typed refusal instead of running hot *)
}

val make_job :
  ?fabric:string ->
  ?seed:int ->
  ?placer:string ->
  ?m:int ->
  ?max_evals:int ->
  ?max_quote_us:float ->
  ?deadline_ms:float ->
  id:string ->
  circuit ->
  job
(** Request with the wire defaults: QUALE fabric, seed 2012, portfolio
    placer, no budgets, no deadline. *)

type cache_stats = {
  hits : int;  (** route-cache lookups served (own tables + shared) *)
  misses : int;  (** base-weight searches actually run (one Dijkstra each) *)
  shared_hits : int;  (** subset of [hits] served from the shared snapshot *)
  bound_builds : int;  (** lower-bound tables built (shared table misses) *)
  warm_paths : int;  (** snapshot path entries the job started with *)
  fabric_evictions : int;
      (** warm-state registry entries evicted (LRU) over the service
          lifetime — growth here means many distinct fabrics are competing
          for the registry cap *)
}

type attempt = { stage : string; seed : int; outcome : (float, string) result }
(** One search-stage audit entry, mirroring [Qspr.Mapper.attempt]. *)

type verdict =
  | Completed of {
      latency_us : float;
      quote_us : float;  (** the admission estimate the job was quoted *)
      lower_bound_us : float;
          (** certified admissible latency lower bound ({!Estimator.Bound})
              for the mapped instance — no legal execution can beat it *)
      bound_kind : string;  (** which bound attained it (wire encoding) *)
      optimality_gap : float option;
          (** (latency - bound) / bound when the bound is positive *)
      placement_runs : int;
      engine_evals : int;
      degraded : bool;
      direction : string;  (** ["forward"] or ["backward"] *)
      shed : string;
          (** degradation-ladder rung the job actually ran at: ["none"]
              (the requested search), ["prescreen"] (estimator-prescreened
              MVFB) or ["budgeted"] (single budgeted placement); the rung
              is also audited as a ["shed:<rung>"] attempt *)
      certificate_digest : int64;
          (** FNV-1a 64 of the canonical trace rendering
              ([Analysis.Certify]); machine-independent *)
      certificate_valid : bool;
      attempts : attempt list;
    }
  | Rejected of {
      stage : string;
          (** admission tier that refused the job: ["request"] (malformed),
              ["lint"] (severity-2 findings), ["admission"] (mapper
              context), ["budget"], ["quote"], ["deadline"] (already
              expired on arrival), ["shed"] (overload: estimate-only
              quote, [quote_us] carries it) or ["queue"] *)
      reason : string;
      quote_us : float option;  (** present when admission got that far *)
      findings : Ion_util.Json.t list;
          (** the lint report that refused the job (qspr-findings items) *)
    }
  | Failed of {
      reason : string;  (** mapper failure, [Qspr.Mapper.error_to_string] *)
      quote_us : float option;
      attempts : attempt list;
    }

type response = {
  job_id : string;
  verdict : verdict;
  cache : cache_stats option;
      (** present for jobs that reached the engine when incremental
          routing is on; omitted from deterministic encodings *)
  cpu_s : float;  (** omitted from deterministic encodings *)
  cached : bool;
      (** the response was served verbatim from the response cache;
          observability only — omitted from deterministic encodings
          (a cached response is byte-identical to a recomputed one
          there by construction) *)
}

val encode_job : job -> Ion_util.Json.t
val decode_job : Ion_util.Json.t -> (job, string) result

val job_of_line : string -> (job, string) result
(** Parse one request line (JSON parse + [decode_job]). *)

val job_to_line : job -> string
(** Compact single-line rendering of [encode_job]. *)

val encode_response : ?deterministic:bool -> response -> Ion_util.Json.t
(** [deterministic] (default false) omits the [cache] and [cpu_s]
    sections, leaving only fields that are a pure function of the job. *)

val decode_response : Ion_util.Json.t -> (response, string) result

val response_to_line : ?deterministic:bool -> response -> string
(** Compact single-line rendering of [encode_response]. *)

val response_of_line : string -> (response, string) result

val status_of : verdict -> string
(** ["ok"], ["rejected"] or ["failed"] — the wire [status] field. *)

val exit_code : response list -> int
(** Tiered like [Analysis.Finding.exit_code]: 2 when any response was
    rejected, else 1 when any failed, else 0. *)
