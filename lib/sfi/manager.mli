(** The domain manager — the SFI "management plane" of §3.

    Owns the experiment-wide virtual clock, creates the protection
    domains, and implements the fault-recovery sequence: after a panic
    has been caught at the domain boundary (stack already unwound,
    caller already got its error code), {!recover} (1) clears the
    failed domain's reference table, which atomically revokes every
    outstanding rref and drops the table's strong references, so what
    the domain exported is left to the garbage collector, then (2)
    re-initialises the domain from clean state by running its
    user-provided recovery function — which typically re-populates the
    table, "making the failure transparent to clients of the
    domain". *)

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
  ?recovery:(Pdomain.t -> unit) ->
  unit ->
  Pdomain.t

(** {2 Supervisor-visible lifecycle hooks}

    A supervision layer (see {!Faultinj.Supervisor}) drives restart
    policies from these events instead of polling domain states:
    [Domain_failed] fires for every caught panic — whether it unwound
    to the {!Pdomain.execute} boundary or was attributed out-of-band
    (e.g. a {!Channel.send_exn} overflow charged to the sending
    domain); [Domain_recovered] fires after a successful {!recover}. *)

type event =
  | Domain_failed of Pdomain.t
  | Domain_recovered of Pdomain.t

val subscribe : t -> (event -> unit) -> unit
(** Subscribers are called synchronously, in registration order, from
    the thread that triggered the transition. They must not raise. *)

val recover : t -> Pdomain.t -> (unit, string) result
(** Recover a [Failed] domain (also accepts a [Running] domain, for
    proactive recycling). Returns [Error _] if its recovery function
    itself panics — in which case the domain stays [Failed]. *)
