(** Remote references.

    An ['a t] designates an object living inside another protection
    domain. The object itself never crosses the boundary: the strong
    reference stays in the target domain's {!Ref_table}; the rref holds
    only a weak pointer plus routing metadata. All interaction happens
    through {!invoke}, which performs the §3 remote-invocation
    sequence:

    + consult the thread-local current domain (the caller's identity);
    + check the target domain is available;
    + consult the target's access-control {!Policy};
    + upgrade the weak pointer — failure here means the proxy was
      revoked, and the call returns [Error Revoked];
    + dispatch indirectly through the proxy and run the method inside
      the target domain (panics are caught at the boundary and fail the
      domain);
    + drop the temporary strong reference on the way out.

    Every step charges the virtual clock; the sum is the "overhead of
    90 cycles per protected method call" measured in Figure 2. *)

type 'a t

val create : Pdomain.t -> ?label:string -> 'a -> 'a t
(** [create d obj] moves [obj] into domain [d]: registers it in [d]'s
    reference table and returns the remote handle. This is
    [RRef::new] of the §3 listing (typically run via
    [Pdomain.execute]). *)

val invoke : 'a t -> ('a -> 'b) -> ('b, Sfi_error.t) result
(** [invoke r m] calls method [m] on the remote object. The closure's
    result transfers ownership back to the caller per Rust semantics.
    The closure must not leak the ['a] — that is the one discipline the
    OCaml type system cannot enforce for us (in Rust the borrow ends
    with the call); tests enforce it by auditing with {!Linear}
    handles. *)

val invoke_move :
  'a t -> 'arg Linear.Own.t -> ('a -> 'arg -> 'b) -> ('b, Sfi_error.t) result
(** Like {!invoke} but also moves an owned argument into the target
    domain: the {!Linear.Own.t} is consumed {e before} dispatch, so the
    caller provably cannot observe the argument afterwards even if the
    call fails — matching "all other arguments change their ownership
    permanently". *)

(** {2 Pinning (ablation)}

    A pinned rref performs the policy check and weak upgrade {e once}
    and caches the strong reference, so later calls skip both. This is
    the design point the paper implicitly rejects: it shaves the
    atomic-upgrade cost off every call, but revocation and recovery
    stop being observable by the pinning caller until it unpins — the
    reference table can no longer cut this client off. The ablation
    bench quantifies exactly what the ~90-cycle proxy buys. *)

type 'a pinned

val pin : 'a t -> ('a pinned, Sfi_error.t) result
(** Availability + policy + upgrade, once. *)

val invoke_pinned : 'a pinned -> ('a -> 'b) -> ('b, Sfi_error.t) result
(** Dispatch without re-checking anything but domain availability. *)

val unpin : 'a pinned -> unit
(** Release the cached strong reference. Using the pin afterwards
    raises (it is an owning handle). *)

val revoke : 'a t -> bool
(** Remove the proxy from the target's table. Subsequent invokes return
    [Error Revoked]. Already-pinned callers are unaffected until they
    unpin. *)

(** {1 For tests}

    oracle: revocation state, read by the revocation tests. *)

val is_revoked : 'a t -> bool
(** Non-invasive probe (does not charge the clock). *)
