(** The shared heap with per-domain ownership accounting.

    §3: "All PDs use a common heap for memory allocation; however they
    do not share any data." Objects live at synthetic addresses drawn
    from the experiment's {!Cycles.Clock} address space, so allocations
    made by different domains contend in the same simulated cache —
    that is the "common heap" part. Ownership accounting is what makes
    "clearing the reference table automatically deallocates all memory
    owned by the domain" testable: the manager frees everything a
    failed domain owns and tests assert the books return to zero.

    Passing an allocation across a domain boundary is a {!transfer} —
    an O(1) owner-field update, the zero-copy move the paper
    advertises; a copy would pay allocation plus per-byte costs
    instead. *)

type t
(** The heap. One per experiment / manager. *)

type allocation = {
  addr : int;                (** Base synthetic address. *)
  bytes : int;
  mutable owner : Domain_id.t;
  mutable freed : bool;
}

val create : clock:Cycles.Clock.t -> t

val alloc : t -> owner:Domain_id.t -> bytes:int -> allocation
(** Charges the allocator fast path and first-touch cache traffic. *)

val free_all_owned_by : t -> Domain_id.t -> int
(** Free every live allocation of a domain; returns the count. This is
    the "deallocate all memory and resources owned by the domain" step
    of recovery. *)

(** {1 For tests}

    Explicit frees, ownership transfer and the per-owner accounting the
    isolation tests check recovery and transfer cost against. *)

val free : t -> allocation -> unit
(** Raises [Invalid_argument] on double free. *)

val transfer : t -> allocation -> to_:Domain_id.t -> unit
(** Zero-copy ownership move across the boundary: constant cost,
    no data movement. *)

val live_bytes : t -> Domain_id.t -> int

val live_allocations : t -> Domain_id.t -> int

val total_live_bytes : t -> int
