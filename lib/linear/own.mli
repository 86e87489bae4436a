(** Uniquely-owned values — the runtime analogue of Rust's move
    semantics.

    An ['a t] is a *handle* to a value with exactly one live owner.
    Moving ({!move}, {!consume}) invalidates the source handle; any
    later use raises {!Lin_error.Ownership_violation}, which is the
    dynamic counterpart of rustc's "use of moved value" error (the
    paper's §2 listing).

    Borrows ({!borrow}, {!borrow_mut}) give scoped access without
    breaking the binding and enforce Rust's exclusion rule: any number
    of shared borrows, or one mutable borrow, never both, and a value
    cannot be moved while borrowed. This is the §2 model, which
    [test/test_linear.ml] pins; no protection-domain boundary takes a
    borrow. The SFI layer moves an argument across a boundary instead
    ([Sfi.Rref.invoke_move] consumes the handle before dispatch). *)

type 'a t

val create : ?label:string -> 'a -> 'a t
(** Wrap a fresh value. [label] names the handle in error messages. *)

val consume : 'a t -> 'a
(** Take the value out, killing the handle. Raises if dead/borrowed. *)

val borrow : 'a t -> ('a -> 'b) -> 'b
(** Scoped shared (read-only by convention) borrow. Re-entrant; may
    nest with other shared borrows but not with a mutable borrow. *)

(** {1 For tests}

    model: the rest of the single-ownership discipline. The system only
    creates, borrows and consumes owned values; [test/test_linear.ml]
    pins moves, mutable borrows and their exclusion as the model of
    Rust's rules (§2). *)

val label : _ t -> string

val is_live : _ t -> bool
(** [true] until the value has been moved out or consumed. *)

val move : 'a t -> 'a t
(** Transfer ownership to a new handle; the argument becomes dead.
    Raises if the argument is dead or borrowed. *)

val borrow_mut : 'a t -> ('a -> 'b) -> 'b
(** Scoped exclusive borrow. Raises if any borrow is live. *)

val replace : 'a t -> 'a -> 'a
(** [replace t v] swaps the owned value for [v] and returns the old
    value, like [std::mem::replace]. Requires a live, unborrowed
    handle. *)

val borrow_count : _ t -> int
(** Live shared borrows (for tests and diagnostics). *)

val mut_borrowed : _ t -> bool
