(** Per-domain restart policies — the decision kernel of the
    supervisor, kept clock-agnostic (the caller passes virtual [now]s)
    so it is trivially deterministic and unit-testable.

    One [t] tracks one supervised unit (one protection domain / one
    pipeline stage). The supervisor reports failures and successful
    service; the policy answers {e when} the unit may be restarted:

    - {!Immediate} — restart at the next admission attempt.
    - {!Backoff} — capped exponential backoff in {e virtual cycles}:
      the [n]-th consecutive failure waits [min cap (base * 2^(n-1))]
      cycles. A healthy served batch resets the streak.
    - {!Breaker} — a circuit breaker: [failures] failures within a
      [window] of virtual cycles trip it [Open] for [cooldown] cycles;
      the first restart after the cooldown runs as a {e half-open
      probe} — one healthy batch closes the breaker, one more failure
      re-opens it for another cooldown.
    - {!Degrade} — never restart: the supervisor drops the dead stage
      from the pipeline and routes batches around it. *)

type policy =
  | Immediate
  | Backoff of { base : int; cap : int }
  | Breaker of { failures : int; window : int; cooldown : int }
  | Degrade

val policy_name : policy -> string

type breaker_state = Closed | Open | Half_open

val breaker_code : breaker_state -> int
(** Gauge encoding: [Closed] = 0, [Open] = 1, [Half_open] = 2. *)

type t

val create : policy -> t
val policy : t -> policy

(** What to do about a failure observed at virtual time [now]. *)
type decision =
  | Retry_at of int64   (** Attempt a restart once the clock reaches this. *)
  | Trip_until of int64 (** The breaker tripped open; earliest probe time. *)
  | Give_up             (** [Degrade]: drop the unit instead of restarting. *)

val on_failure : t -> now:int64 -> decision
(** Also used when a restart attempt itself fails (a panicking
    recovery function): each call extends the consecutive-failure
    streak. For a [Half_open] unit this re-opens the breaker. *)

val on_restart : t -> [ `Normal | `Probe ]
(** The supervisor restarted the unit successfully. [`Probe] iff the
    breaker was [Open] — the unit is now [Half_open] and the next
    batch is its probe. *)

val on_service_ok : t -> unit
(** A batch was served healthily: reset the consecutive-failure
    streak, clear the breaker's failure window and close it. *)

val breaker_state : t -> breaker_state
