(** Access-control policies on cross-domain invocations.

    §3: proxying through the reference table "gives the owner of the
    domain complete control over its interfaces", e.g. intercepting
    remote invocations "for fine-grained access control". A policy is
    consulted on every {!Rref.invoke} with the caller's identity and the
    slot being invoked; rejection surfaces as
    [Error Sfi_error.Access_denied] without the method ever running. *)

type t

val allows : t -> caller:Domain_id.t -> slot:int -> bool

val allow_all : t

(** {1 For tests}

    model: an allow-list access-control policy, which the caller-check
    tests install. *)

val allow_callers : Domain_id.t list -> t
(** Only the listed callers may invoke; the kernel is always allowed. *)
