(** The domain manager — the SFI "management plane" of §3.

    Owns the experiment-wide virtual clock and shared heap, tracks
    every protection domain, and implements the fault-recovery
    sequence: after a panic has been caught at the domain boundary
    (stack already unwound, caller already got its error code),
    {!recover} (1) clears the failed domain's reference table, which
    atomically revokes every outstanding rref and (2) releases all heap
    memory the domain owned, then (3) re-initialises the domain from
    clean state by running its user-provided recovery function — which
    typically re-populates the table, "making the failure transparent
    to clients of the domain". *)

type t

val create :
  ?clock:Cycles.Clock.t ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** [clock] lets the manager share an experiment-wide clock (so SFI
    costs and workload costs land in the same cache hierarchy — every
    pipeline experiment needs this). When absent, a fresh clock with
    the default cost model and cache geometry is created.

    [telemetry] turns on per-domain metrics: each {!create_domain}
    pre-resolves [sfi.<name>.{invocations,panics,upgrade_failures,
    recoveries}] counters, and {!recover} times itself into the
    [sfi.recovery_cycles] histogram. *)

val clock : t -> Cycles.Clock.t

val create_domain :
  t ->
  name:string ->
  ?policy:Policy.t ->
  ?recovery:(Pdomain.t -> unit) ->
  unit ->
  Pdomain.t

(** {2 Supervisor-visible lifecycle hooks}

    A supervision layer (see {!Faultinj.Supervisor}) drives restart
    policies from these events instead of polling domain states:
    [Domain_failed] fires for every caught panic — whether it unwound
    to the {!Pdomain.execute} boundary or was attributed out-of-band
    (e.g. a {!Channel.send_exn} overflow charged to the sending
    domain); [Domain_recovered] fires after a successful {!recover};
    [Domain_destroyed] after {!destroy}. *)

type event =
  | Domain_failed of Pdomain.t
  | Domain_recovered of Pdomain.t
  | Domain_destroyed of Pdomain.t

val subscribe : t -> (event -> unit) -> unit
(** Subscribers are called synchronously, in registration order, from
    the thread that triggered the transition. They must not raise. *)

val recover : t -> Pdomain.t -> (unit, string) result
(** Recover a [Failed] domain (also accepts a [Running] domain, for
    proactive recycling). Returns [Error _] if the domain is destroyed
    or its recovery function itself panics — in which case the domain
    stays [Failed]. *)

type stats = {
  domains_created : int;
  domains_destroyed : int;
  recoveries : int;
  slots_revoked_by_recovery : int;
}

(** {1 For tests}

    The shared heap, explicit destruction and lifetime counters the
    isolation tests read. *)

val heap : t -> Heap.t

val destroy : t -> Pdomain.t -> unit
(** Clear the table, free the heap, and mark the domain [Destroyed].
    Idempotent. *)

val stats : t -> stats
