(** Session-typed channels — the other published exploitation of
    linearity the paper points to (§2: Jespersen et al., "session-typed
    channels for Rust, which exploits linear types to enable
    compile-time guarantees of adherence to a specific communication
    protocol").

    A protocol is a type built from {!type:send}, {!type:recv},
    {!type:choose}, {!type:offer} and {!type:stop}; {!create} returns
    two endpoints with {e dual} protocols (the duality witness is a
    GADT, so mismatched endpoints are a type error — the compile-time
    half of the guarantee). Each operation consumes its endpoint and
    returns the endpoint at the continuation protocol; reusing a
    consumed endpoint raises {!Lin_error.Ownership_violation} — the
    linearity half, enforced by the same dynamic discipline as
    {!Own}.

    Endpoints communicate through a shared queue and may be used from
    different OCaml domains ({!recv} blocks). *)

type (!'a, !'p) send
(** Send an ['a], continue as ['p]. *)

type (!'a, !'p) recv
type (!'p, !'q) choose
(** Actively select the left (['p]) or right (['q]) branch. *)

type (!'p, !'q) offer
(** Passively receive the peer's selection. *)

type stop

type 'p t
(** An endpoint obeying protocol ['p]. Affine: each value is consumed
    by exactly one operation. *)

(** Duality witness: [(p, q) dual] proves [q] is the complement of
    [p]. Build it with the constructors below; [create] consumes it. *)
type (_, _) dual =
  | Stop : (stop, stop) dual
  | Send : ('p, 'q) dual -> (('a, 'p) send, ('a, 'q) recv) dual
  | Recv : ('p, 'q) dual -> (('a, 'p) recv, ('a, 'q) send) dual
  | Choose : ('p1, 'q1) dual * ('p2, 'q2) dual -> (('p1, 'p2) choose, ('q1, 'q2) offer) dual
  | Offer : ('p1, 'q1) dual * ('p2, 'q2) dual -> (('p1, 'p2) offer, ('q1, 'q2) choose) dual

val create : ('p, 'q) dual -> 'p t * 'q t
(** A fresh channel as its two endpoints. *)

val send : ('a, 'p) send t -> 'a -> 'p t
(** Non-blocking enqueue; consumes the endpoint. *)

val recv : ('a, 'p) recv t -> 'a * 'p t
(** Blocks until the peer sends. *)

val choose_left : ('p, 'q) choose t -> 'p t
val choose_right : ('p, 'q) choose t -> 'q t

val offer : ('p, 'q) offer t -> ('p t, 'q t) Either.t
(** Blocks until the peer chooses. *)

val close : stop t -> unit
(** Terminate the session; consumes the endpoint. Both peers must
    close their own end. *)

(** {1 For tests}

    model: endpoint liveness, which the protocol tests read after a close. *)

val is_live : 'p t -> bool
(** Diagnostics: has this endpoint value been consumed yet? *)
