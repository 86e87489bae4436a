(** Per-domain reference tables.

    The table is the heart of the §3 design (Figure 1): when an object
    is exported from a domain, the strong reference is parked in the
    owning domain's table and only a *weak* pointer escapes inside the
    rref. Dropping the table entry — one slot ({!revoke}) or all of
    them ({!clear}) — instantly invalidates every outstanding rref,
    because weak upgrades start failing. No callee list, no revocation
    broadcast.

    Each slot also owns a synthetic cache-resident address; remote
    invocations touch it, which is how reference-table locality shows
    up in the Figure-2 overhead curve. *)

type t

type slot_id = int

val create : clock:Cycles.Clock.t -> owner:Domain_id.t -> t

val register : t -> ?label:string -> 'a -> slot_id * 'a Linear.Rc.weak * int
(** Park a strong reference to the object in the table. Returns the
    slot id, the weak pointer to hand to the rref, and the slot's
    synthetic address (for cache modelling by the invoker). *)

val revoke : t -> slot_id -> bool
(** Drop the strong reference of one slot. [false] if unknown/already
    revoked. *)

val clear : t -> int
(** Revoke every live slot; returns how many. Used by recovery. *)

(** {1 For tests}

    oracle: the slot count and generation the revocation tests read. *)

val size : t -> int
(** Live slots. *)

val generation : t -> int
(** Incremented by every {!clear}; lets tests assert recovery really
    cycled the table. *)
