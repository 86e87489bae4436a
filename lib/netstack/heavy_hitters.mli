(** Heavy-hitter detection over flows — the Space-Saving algorithm
    (Metwally et al., ICDT'05), the standard constant-memory telemetry
    NFs attach to their pipelines.

    At most [capacity] counters are kept. When a new flow arrives with
    the table full, the minimum counter is evicted and inherited
    (count+1, with the inherited amount recorded as the estimation
    error). The sketch is the stateful NF of the E13 rollback-recovery
    experiment, which only observes, checkpoints and compares it:
    what the tests and E13's golden check is that a checkpoint plus
    replay rebuilds it exactly ({!equal}). Eviction breaks ties by
    flow order, so replay is deterministic. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] unless [capacity > 0]. *)

val observe : t -> Flow.t -> unit
(** Count one observation of the flow. *)

val desc : t Chkpt.Checkpointable.t
(** Checkpoint descriptor (flows are immutable and shared; counters are
    copied) — the sketch is the stateful NF used by the E13
    rollback-recovery experiment. *)

val equal : t -> t -> bool
(** Same capacity, observation count and counter table — used to check
    recovered state against the pre-crash original. *)
