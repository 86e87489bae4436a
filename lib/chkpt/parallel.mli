(** Parallel checkpointing — §5's "efficient and thread-safe way",
    exercised for real on OCaml 5 domains.

    A forest of roots sharing [Arc]-wrapped nodes is checkpointed by
    [workers] domains, each taking a contiguous slice. Deduplication of
    shared cells is coordinated through one {!Checkpointable.shared_memo}:
    whichever worker reaches a cell first claims it with a CAS on the
    cell's atomic scratch word and publishes its copy; others adopt
    that copy. The result preserves sharing {e across} slices. *)

val sum_stats : Checkpointable.stats -> Checkpointable.stats -> Checkpointable.stats
val zero_stats : Checkpointable.stats

val checkpoint_forest :
  ?workers:int ->
  'a Checkpointable.t ->
  'a array ->
  'a array * Checkpointable.stats
(** [checkpoint_forest desc roots] (default 4 workers, capped at the
    number of roots). Returned stats are summed over workers; the
    interesting invariant is [rc_copies] = number of distinct shared
    cells, regardless of how the race went. *)
