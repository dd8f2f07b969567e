(** Exact allocation counters for the benchmark. *)

val minor_words : unit -> float
(** Words allocated on the calling domain's minor heap so far
    ([Gc.minor_words]); take deltas around a call. *)

val peak_heap_mb : unit -> float
(** Peak major-heap size of the process, in MiB ([top_heap_words]). *)
