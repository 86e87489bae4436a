(** An instantaneous level (pool occupancy, live domains, queue depth):
    like a {!Counter} but allowed to move in both directions. *)

type t

val make : charge:(unit -> unit) -> unit -> t
val set : t -> int -> unit
val add : t -> int -> unit
val value : t -> int
