(** Dynamic ready-set manager for list scheduling over a QIDG.

    Tracks, for every instruction, how many predecessors are still
    unfinished; exposes the ready instructions in priority order; and keeps
    the paper's {e busy queue} of instructions that were ready but could not
    be routed — those return to the ready set when the fabric state changes
    ({!requeue_busy}).

    Cost contract: after {!create} (O(instructions)), no call touches more
    than the ready and deferred instructions themselves.  The ready ids live
    in an unordered bag with a position index, so {!mark_issued},
    {!mark_done}, {!defer} and unblocking a successor are O(1) (plus the
    completed instruction's successor list); {!iter_ready} is O(k²) in the
    ready-set size k, never in program size; {!requeue_busy} is
    O(deferred).  Nothing allocates except {!mark_done}'s result list. *)

type t

val create : Qasm.Dag.t -> priorities:float array -> t
(** @raise Invalid_argument on length mismatch. *)

val iter_ready : t -> (int -> unit) -> unit
(** [iter_ready t f] applies [f] to the ready (unissued, non-deferred)
    instructions, highest priority first with ties toward lower id, without
    allocating: a reusable internal buffer snapshots and sorts the ready set
    before the first call to [f], so [f] may mutate the set (issue, defer,
    complete) as engine issue rounds do.  Not reentrant: [f] must not
    itself call [iter_ready] on the same [t]. *)

val is_ready : t -> int -> bool

val mark_issued : t -> int -> unit
(** Removes from the ready set (the instruction is now in flight).
    @raise Invalid_argument if it was not ready. *)

val mark_done : t -> int -> int list
(** Completes an issued instruction, unblocking its dependents; returns the
    instructions that became ready as a result (ascending id).  Source nodes
    (declarations) may complete without being issued. *)

val defer : t -> int -> unit
(** Moves a ready instruction to the busy queue. *)

val requeue_busy : t -> unit
(** Busy-queue instructions become ready again. *)

val ready_count : t -> int
(** Ready, unissued, non-deferred instructions; O(1). *)

val busy_count : t -> int
val done_count : t -> int
val all_done : t -> bool
val in_flight_count : t -> int

val visits : t -> int
(** Exact ready-set work so far: ids snapshotted by {!iter_ready} plus ids
    moved back by {!requeue_busy}. *)
