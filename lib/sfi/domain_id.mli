(** Identifiers of protection domains.

    Domain 0 is the {e kernel} (the trusted domain manager and any code
    running outside an isolated component); real PDs get ids from 1. *)

type t

val kernel : t
val is_kernel : t -> bool

val fresh : unit -> t
(** Next unused id. Process-global, thread-safe. *)

val equal : t -> t -> bool
