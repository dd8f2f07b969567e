(** Fabric analysis (pass ["fabric"]): the one fabric lint.  [qspr lint],
    the [qspr map] gate, [qspr fabric --lint] and the service's lint
    ingress ({!Registry.lint}) all run {!check}, which extracts the
    components once and builds one routing graph.

    Structural findings, for user-authored fabrics:
    - [malformed] (error): {!Fabric.Component.extract} rejects the layout;
    - [no-traps] (error): no gate can execute;
    - [disconnected] (error): traps that cannot reach trap 0 over the
      turn-aware routing graph;
    - [trap-capacity] (error): fewer traps than program qubits
      ({!Fabric.Component.capacity_error});
    - [tight-capacity] (warning): fewer than two traps per qubit;
    - [no-junctions] (hint): a linear fabric, flagged so grid users notice
      a parse surprise;
    - [dead-end] (warning): channel segments with fewer than two junction
      endpoints that serve no trap — wasted fabric area.

    Whole-mapper context:
    - [bottleneck] (warning): a junction that is an articulation point of
      the turn-aware routing graph with traps on both sides — every
      crossing ion serializes through its limited capacity, the congestion
      pathology of the paper's Figure 5;
    - [transit-capacity] (warning): the channel system can hold at most
      [channel_capacity x segments] ions in transit; programs wider than
      that serialize their transport no matter how good the placement. *)

val check :
  ?num_qubits:int ->
  ?channel_capacity:int ->
  Fabric.Layout.t ->
  Finding.t list
(** All findings, errors first.  [num_qubits] enables the capacity checks;
    the channel capacity defaults to the paper's QSPR policy (2). *)

val check_result :
  ?num_qubits:int ->
  ?channel_capacity:int ->
  (Fabric.Layout.t, string) result ->
  Finding.t list
(** Like {!check}; an [Error] (parse failure) becomes a single
    [parse-error] finding of [Error] severity. *)

val bottleneck_junctions : Fabric.Layout.t -> (Ion_util.Coord.t * int * int) list
(** The cut-vertex junctions: each with the trap counts of the two sides it
    separates (smaller side first).  Exposed for tests; empty on malformed
    or junction-free fabrics. *)
