(** Receive-side scaling: the flow hasher that spreads traffic over
    the shard engine's receive queues.

    Real NICs hash the connection 5-tuple (Toeplitz over the RSS key)
    into a small indirection table whose entries name receive queues;
    all packets of a flow therefore land in the same queue, in arrival
    order — the property that lets a run-to-completion pipeline
    process its queue without locks or reordering, and the property
    Oxide's exclusive-access guarantee turns into "one owner per
    batch, always". We hash with the deterministic {!Flow.hash}
    (FNV-1a) instead of Toeplitz; the indirection-table shape is the
    real one. *)

type t

val create : queues:int -> unit -> t
(** Round-robin 128-entry indirection table over [queues] (at most
    128) receive queues; a flow's bucket is [Flow.hash flow mod 128].
    Deterministic: the same [queues] always builds the same table. *)

val queue : t -> Flow.t -> int
(** Receive queue a flow is steered to. Stable for the lifetime of the
    table: every packet of a flow goes to the same queue. *)
