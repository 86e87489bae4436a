(** Deterministic fault plans.

    A plan is the crash storm's score sheet: for every receive queue,
    a seeded Poisson process decides at which scheduling rounds faults
    strike, and a seeded draw decides what each fault is. Two
    properties make injected storms a continuously verifiable claim
    rather than a flaky stress test:

    - {b Replayable}: equal [(seed, rate, rounds, stages)]
      yield byte-equal plans, so a storm can be re-run and diffed.
    - {b Shard-count invariant}: each queue's schedule is derived from
      [(seed, queue)] alone — never from the queue→shard assignment —
      so regrouping queues over 1, 2 or 4 OCaml domains replays the
      exact same faults at the exact same points, preserving the
      sharded engine's byte-identical merge property.

    The plan is pure data; applying it (arming stage panics, revoking
    rrefs, squeezing channels, draining mempools) is the embedding
    engine's job (see {!Netstack.Shard}). *)

(** One injection point. Stage indices refer to pipeline position. *)
type fault =
  | Panic_in_stage of { stage : int }
      (** The stage panics while owning the in-flight batch. *)
  | Recovery_panic of { stage : int; times : int }
      (** The stage panics {e and} its next [times] recovery attempts
          panic too — the supervisor's restart path is itself the
          faulty component. *)
  | Rref_revoke of { stage : int }
      (** The stage's remote reference is revoked while a batch is in
          flight; the next invocation fails with [Revoked]. *)
  | Channel_full
      (** The queue's control channel is filled to capacity so the
          next {!Sfi.Channel.send_exn} from stage 0 overflows —
          exercising sender-side panic attribution. *)
  | Mempool_exhaust of { buffers : int }
      (** [buffers] buffers are held hostage for one round, starving
          the NIC's receive path. *)

type queue_plan
(** One queue's schedule: round → faults. *)

val for_queue :
  seed:int64 ->
  rate:float ->
  rounds:int ->
  stages:int ->
  queue:int ->
  unit ->
  queue_plan
(** Derive queue [queue]'s schedule. Fault rounds are Poisson arrivals
    with mean inter-arrival [1/rate] rounds (exponential gaps, floored
    at one round); each arrival draws one of the five fault families
    uniformly, then its parameters ([stage] uniform in [0, stages),
    [times] in [1, 3], [buffers] in [1, 16]). [rate] must be in
    [0, 1]; 0 yields an empty schedule. *)

val faults_at : queue_plan -> round:int -> fault list
(** Faults striking at scheduling round [round] (1-based), in draw
    order. Empty for off-plan rounds. *)

val queue_total : queue_plan -> int
