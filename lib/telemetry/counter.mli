(** Monotonic event counter.

    The hot path ({!incr} / {!add}) is a single atomic fetch-and-add:
    lock-free, loss-free across OCaml domains, and O(1) with no name
    lookup — handles are pre-resolved once through
    {!Registry.counter}. *)

type t

val make : charge:(unit -> unit) -> unit -> t
(** Used by {!Registry}; [charge] is invoked once per recorded event
    (a no-op unless the registry charges the virtual clock). *)

val incr : t -> unit

val add : t -> int -> unit
(** Raises [Invalid_argument] on a negative increment: counters only
    go up (gauges are the type that moves both ways). *)

val value : t -> int
