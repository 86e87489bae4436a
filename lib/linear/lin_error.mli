(** Ownership-discipline violations.

    In Rust these are compile-time errors; our runtime raises them at
    the exact program point the borrow checker would have flagged (see
    DESIGN.md §2). Mechanisms built on the runtime — SFI, checkpointing
    — treat a violation as a bug in the *client* of the library, never
    as a recoverable condition, which mirrors "it does not compile". *)

type violation =
  | Use_after_move of string
      (** A handle was read, borrowed, moved or consumed after its
          value had been moved out. Carries the handle's label. *)
  | Move_while_borrowed of { label : string; shared : int; mut : bool }
      (** Attempt to move/consume a value with live borrows. *)
  | Borrow_conflict of { label : string; requested_mut : bool; shared : int; mut : bool }
      (** Attempt to take a borrow incompatible with live borrows
          (mutable ⊕ shared exclusion). *)
  | Use_after_drop of string
      (** A reference-counted handle was used after [drop]. *)
  | Upgrade_failed of string
      (** A weak handle could not be upgraded because the object is
          gone. Only raised by [Rc.upgrade_exn]; [upgrade] returns
          [None] instead, which is how revocation is detected in SFI. *)

exception Ownership_violation of violation

val violation_to_string : violation -> string

val raise_violation : violation -> 'a
