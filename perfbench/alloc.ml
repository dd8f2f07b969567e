(* Exact allocation counters.  [Gc.minor_words] reads the allocating
   domain's young pointer, so it moves on every allocation; the
   [Gc.quick_stat] counter only moves when a minor collection runs and
   reads 0 across short calls on OCaml 5.  Everything the benchmark runs is
   inline on the main domain (service [jobs = 1]), so the main domain's
   count is the whole count. *)

let minor_words () = Gc.minor_words ()

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1_048_576.0
