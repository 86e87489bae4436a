(** Errors surfaced by cross-domain operations.

    These are the *expected* failure modes of remote invocation — the
    [Err(_)] arm of the paper's §3 listing. Ownership violations, in
    contrast, raise (they are client bugs; see {!Linear.Lin_error}). *)

type t =
  | Revoked
      (** The rref's proxy was removed from the reference table (either
          explicit revocation or a domain recovery cleared the table);
          the weak pointer no longer upgrades. *)
  | Access_denied
      (** The target domain's policy rejected the caller. *)
  | Domain_failed of string
      (** A panic escaped the invoked method. The string is the panic
          payload; the target domain is now in the [Failed] state and
          must be recovered before further use. *)
  | Domain_unavailable
      (** The target domain is [Failed], so the call was not
          attempted. *)

val to_string : t -> string
