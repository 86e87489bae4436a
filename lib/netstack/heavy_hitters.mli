(** Heavy-hitter detection over flows — the Space-Saving algorithm
    (Metwally et al., ICDT'05), the standard constant-memory telemetry
    NFs attach to their pipelines.

    At most [capacity] counters are kept. When a new flow arrives with
    the table full, the minimum counter is evicted and inherited
    (count+1, with the inherited amount recorded as the estimation
    error). Guarantees, verified by the property tests:

    - estimates never undercount: [count ≥ true frequency];
    - [count − error ≤ true frequency];
    - any flow with true frequency > N/capacity is present. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] unless [capacity > 0]. *)

val observe : ?count:int -> t -> Flow.t -> unit
(** Count one observation of the flow ([count] of them). For tests:
    [?count]. *)

val desc : t Chkpt.Checkpointable.t
(** Checkpoint descriptor (flows are immutable and shared; counters are
    copied) — the sketch is the stateful NF used by the E13
    rollback-recovery experiment. *)

val equal : t -> t -> bool
(** Same capacity, observation count and counter table — used to check
    recovered state against the pre-crash original. *)

(** {1 For tests}

    The queries and the stage the Space-Saving tests check; E13 only
    observes and checkpoints the sketch. *)

val estimate : t -> Flow.t -> (int * int) option
(** [(count, error)] if tracked; the true frequency lies in
    [\[count − error, count\]]. *)

val top : t -> int -> (Flow.t * int * int) list
(** The [k] largest (flow, count, error) triples, descending. *)

val observed : t -> int
(** Total observations (the stream length N). *)

val tracked : t -> int
(** Flows currently holding a counter (≤ capacity). *)

val stage : t -> Stage.t
(** A pipeline stage that feeds every packet's 5-tuple through the
    sketch (accounting one header touch per packet). *)
