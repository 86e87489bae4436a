(** Reference-counted read-only sharing — the analogue of Rust's
    [std::rc::Rc] and [std::rc::Weak].

    This is the *only* sanctioned aliasing in the safe fragment (§2):
    "Rust supports safe read-only aliasing by wrapping the object with a
    reference counted type". Crucially, the aliasing is explicit in the
    type, which is what the checkpointing library (§5) and the SFI
    reference tables (§3) exploit.

    Handles are affine: {!drop} invalidates a handle, and any use after
    that raises. {!weak} handles do not keep the object alive and must
    be upgraded before use — the upgrade failure path is exactly how
    rref revocation surfaces to callers in §3.

    Each underlying cell carries one integer {e scratch} word. It is the
    "internal flag" of the paper's custom [Checkpointable] for [Rc]: a
    graph traversal may mark the cell on first visit and recognise it on
    later visits through other aliases, with no auxiliary visited-set. *)

type 'a t
type 'a weak

val create : ?label:string -> 'a -> 'a t

val clone : 'a t -> 'a t
(** New strong handle to the same cell (refcount + 1). *)

val get : 'a t -> 'a
(** Read-only access. Raises [Use_after_drop] on a dropped handle. *)

val drop : 'a t -> unit
(** Release this handle. When the last strong handle is dropped the
    cell dies: remaining weak handles stop upgrading and remaining
    (buggy) strong uses raise. Double-drop raises. *)

val strong_count : 'a t -> int

val downgrade : 'a t -> 'a weak

val upgrade : 'a weak -> 'a t option
(** [Some] fresh strong handle while the cell is alive, else [None]. *)

val dangling : ?label:string -> unit -> 'a weak
(** A weak handle whose target is already gone: {!upgrade} always
    returns [None]. What a checkpoint emits for external pointers it
    must not resurrect. *)

val ptr_eq : 'a t -> 'a t -> bool
(** Do two handles alias the same cell? ([Rc::ptr_eq].) *)

val id : 'a t -> int
(** Stable unique id of the underlying cell (its synthetic address). *)

val scratch : 'a t -> int
val set_scratch : 'a t -> int -> unit
(** The per-cell scratch word (initially 0). See module doc. *)

(** {1 For tests}

    oracle: the weak-count and failing upgrade the weak-edge tests read. *)

val weak_count : 'a t -> int

val upgrade_exn : 'a weak -> 'a t
(** Like {!upgrade} but raises [Upgrade_failed]. *)
