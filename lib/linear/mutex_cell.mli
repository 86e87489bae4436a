(** Dynamically-enforced single ownership for shared mutable state —
    the analogue of [Mutex<T>].

    §2: "When write aliasing is essential ... single ownership can be
    enforced dynamically by additionally wrapping the object with the
    Mutex type. In contrast to conventional languages, this form of
    aliasing is explicit in the object's type signature" — which lets
    §5's checkpointer treat such objects specially.

    The cell's content is only reachable inside {!with_lock}; there is
    deliberately no way to leak a reference out (the closure returns a
    *replacement* value plus a result). Re-entrant locking deadlocks,
    as with a real mutex. *)

type 'a t

val create : ?label:string -> 'a -> 'a t
val label : _ t -> string

val with_lock : 'a t -> ('a -> 'a * 'b) -> 'b
(** [with_lock t f] runs [f current] under the lock; [f] returns the
    new content and a result. If [f] raises, the content is left
    unchanged and the lock is released. *)

(** {1 For tests}

    model: lock-scoped access besides {!with_lock}, which
    [test/test_linear.ml] and [test/test_chkpt.ml] drive concurrent
    writers with. *)

val update : 'a t -> ('a -> 'a) -> unit
(** [with_lock] specialised to no result. *)

val get : 'a t -> 'a
(** Snapshot the content under the lock. *)

val set : 'a t -> 'a -> unit

val try_with_lock : 'a t -> ('a -> 'a * 'b) -> 'b option
(** Non-blocking variant; [None] if the lock is held. *)
