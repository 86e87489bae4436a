(** Atomically reference-counted sharing — the analogue of
    [std::sync::Arc].

    Same discipline as {!Rc} but safe to clone/drop/upgrade from
    multiple OCaml domains: counters are atomics and the weak-upgrade
    path is a CAS loop that can never resurrect a dead cell. Unlike
    {!Rc} it has no scratch word: [Chkpt.Checkpointable.arc]
    deduplicates Arc cells by {!id}. *)

type 'a t
type 'a weak

val create : ?label:string -> 'a -> 'a t
val clone : 'a t -> 'a t
val get : 'a t -> 'a

val id : 'a t -> int

(** {1 For tests}

    model: the rest of [std::sync::Arc]'s surface. Nothing in the system
    drops, counts or downgrades an Arc; [test/test_linear.ml] pins the
    atomic counts and the upgrade CAS under concurrent domains. *)

val drop : 'a t -> unit

val strong_count : 'a t -> int

val downgrade : 'a t -> 'a weak

val upgrade : 'a weak -> 'a t option
(** Lock-free; returns [None] once the last strong handle is gone. *)

val upgrade_exn : 'a weak -> 'a t

val ptr_eq : 'a t -> 'a t -> bool
