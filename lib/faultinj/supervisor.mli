(** The supervision layer over {!Sfi.Manager} domains.

    A supervisor owns a fixed set of {e units} (pipeline stages, each
    backed by one protection domain) and turns the paper's "unwind,
    clear the table, keep serving" mechanism into an availability
    {e policy}: when a unit fails, the configured {!Restart.policy}
    decides whether and when its domain is restarted — immediately,
    after capped exponential backoff in virtual cycles, behind a
    circuit breaker with half-open probes, or never (graceful
    degradation: the pipeline routes around the dead stage).

    The supervisor learns about failures through the manager's
    lifecycle hooks ({!Sfi.Manager.subscribe}, see {!supervise}) or an
    explicit {!note_failure} (for faults that fail an invocation
    without failing the domain, e.g. an rref revoked mid-batch), and
    gates service through {!admit}: due restarts are attempted there
    (driven by the same virtual clock the workload charges), and a
    batch is admitted only when every unit is up, probing, or
    deliberately skipped.

    Everything is single-threaded per supervisor and driven by the
    owning queue's clock, so supervised runs stay byte-deterministic
    and shard-count invariant.

    With a [telemetry] registry, each unit mints
    [sfi.<name>.restarts], [sfi.<name>.backoff_cycles] (total virtual
    cycles spent waiting behind backoff or a tripped breaker) and the
    [sfi.<name>.breaker_state] gauge ({!Restart.breaker_code}). *)

type t

val create :
  ?telemetry:Telemetry.Registry.t ->
  ?on_degrade:(int -> unit) ->
  clock:Cycles.Clock.t ->
  policy:Restart.policy ->
  names:string array ->
  restart:(int -> (unit, string) result) ->
  unit ->
  t
(** [restart i] must bring unit [i]'s domain back to [Running]
    (typically {!Netstack.Pipeline.recover_stage}, optionally restoring
    a checkpoint first); an [Error] counts as a fresh failure of the
    unit and re-enters the policy. [on_degrade i] fires once when the
    policy gives unit [i] up (e.g. to skip the stage in the
    pipeline). *)

val supervise : t -> Sfi.Manager.t -> index_of:(Sfi.Pdomain.t -> int) -> unit
(** Subscribe to the manager's lifecycle events: every
    [Domain_failed d] becomes [note_failure t (index_of d)]. Every
    domain of the manager must back a unit. *)

val note_failure : t -> int -> unit
(** Unit [i] failed at the clock's current time. Ignored when the unit
    is already awaiting a restart or skipped (a restart attempt's own
    failure is accounted inside {!admit}), so manager hooks and
    explicit reports never double-count one fault. *)

val admit : t -> [ `Serve of int list | `Drop ]
(** Gate one batch: first attempt every restart whose due time has
    passed, then either admit ([`Serve skipped] — the stage indices to
    route around, empty when fully healthy) or reject ([`Drop] — some
    unit is still down; the batch should be counted dropped). *)

val report_success : t -> unit
(** The admitted batch completed without failure: closes half-open
    breakers and resets every live unit's consecutive-failure streak. *)

val cold_start : t -> restore:(int -> (string, string) result) -> (int * (string, string) result) list
(** Crash-restart recovery: bring every unit up {e from durable state}
    before the first batch. [restore i] reattaches unit [i]'s state
    from disk (typically {!Chkpt.Durable.recover} inside a stage's
    restart hook) and returns a short description of what it recovered
    ([Ok "gen 12 tag flowtab"]) or why it could not ([Error]). A
    success counts as a restart, increments the unit's restarts counter
    and a lazily-minted [sfi.<name>.cold_restores] counter (lazy so
    supervisors that never cold-start keep their exact historical
    metric set); a failure enters the ordinary restart policy at the
    clock's current time, exactly like a failed in-flight restart.
    Returns the outcomes in unit order — callers print them verbatim,
    which is what makes recovery telemetry goldenable. *)

type stats = {
  restarts : int;           (** Successful domain restarts. *)
  restart_failures : int;   (** Restart attempts that themselves failed. *)
  dropped_admissions : int; (** Batches rejected while a unit was down. *)
  breaker_trips : int;      (** Closed/half-open → open transitions. *)
  degraded_units : int;     (** Units given up and routed around. *)
}

val stats : t -> stats

(** {1 For tests}

    oracle: the unit state the degrade and cold-start tests read back. *)

val is_skipped : t -> int -> bool
