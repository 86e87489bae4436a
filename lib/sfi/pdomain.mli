(** Protection domains.

    A PD bundles an identity, a reference table, an access policy and
    a fault state. Code "runs inside" a
    domain when the thread-local current-domain slot ({!Tls}) names it;
    {!execute} is the only entry point, and it converts escaping panics
    into [Error (Domain_failed _)] after unwinding — never letting them
    cross the isolation boundary.

    A failed domain refuses further entries until {!Manager.recover}
    has cleared its table and re-run its recovery function. *)

type state =
  | Running
  | Failed of string  (** A panic escaped; payload is the panic message. *)

type t

(** Pre-resolved telemetry handles under [sfi.<name>.*] — built by
    {!Manager.create_domain} when the manager carries a registry, so
    hot-path recording never hashes a metric name. *)
type tele = {
  tl_invocations : Telemetry.Counter.t;
  tl_panics : Telemetry.Counter.t;
  tl_upgrade_failures : Telemetry.Counter.t;
  tl_recoveries : Telemetry.Counter.t;
}

val create :
  clock:Cycles.Clock.t ->
  name:string ->
  ?policy:Policy.t ->
  ?recovery:(t -> unit) ->
  ?tele:tele ->
  unit ->
  t
(** Normally called via {!Manager.create_domain}. [recovery] is the
    "user-provided recovery function to re-initialize the domain from
    clean state"; it runs inside the fresh domain. *)

val tele : t -> tele option

val id : t -> Domain_id.t
val name : t -> string
val state : t -> state
val policy : t -> Policy.t
val table : t -> Ref_table.t
val clock : t -> Cycles.Clock.t
val recovery : t -> (t -> unit) option
val set_recovery : t -> (t -> unit) option -> unit

val state_addr : t -> int
(** Synthetic address of the domain descriptor; invokers touch it for
    the availability check. *)

val generation : t -> int
(** Starts at 0, bumped by each recovery. *)

val panic_count : t -> int
(** Total panics caught at this domain's boundary (across recoveries). *)

val cycles_consumed : t -> int64
(** Virtual cycles spent executing inside this domain (attributed by
    {!execute}), across recoveries — the management plane's per-domain
    CPU accounting. *)

val entry_count : t -> int
(** Completed {!execute} calls (including failed ones). *)

val execute : t -> (unit -> 'a) -> ('a, Sfi_error.t) result
(** Enter the domain and run a thunk: checks availability, switches the
    thread-local current domain, charges entry/exit costs, and catches
    panics (marking the domain [Failed]). This is [Domain::execute] of
    the §3 listing. *)

(** {2 Used by the manager — not part of the client API} *)

val set_on_fail : t -> (t -> unit) option -> unit
(** Install the failure notification the manager fans out to its
    subscribers (supervisors, watchdogs). Invoked exactly once per
    caught panic — whether it was caught by {!execute} or attributed
    out-of-band via {!mark_failed} — after the domain has transitioned
    to [Failed] and its panic counters were bumped. *)

val mark_failed : t -> string -> unit
val reset_after_recovery : t -> unit

(** {1 For tests}

    model: the access-control policies DESIGN.md lists for [sfi/];
    the isolation tests install one and check that {!Rref.invoke}
    refuses a caller it does not name. *)

val set_policy : t -> Policy.t -> unit
