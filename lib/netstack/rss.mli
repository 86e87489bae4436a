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

val default_entries : int
(** 128, the common NIC indirection-table size. *)

val create : ?entries:int -> queues:int -> unit -> t
(** Round-robin indirection table over [queues] receive queues.
    [entries] must be a power of two ≥ [queues]. Deterministic: the
    same [(entries, queues)] always builds the same table. *)

val queues : t -> int
val entries : t -> int

val bucket : t -> Flow.t -> int
(** Indirection-table bucket of a flow: [Flow.hash flow mod entries]. *)

val queue : t -> Flow.t -> int
(** Receive queue a flow is steered to. Stable for the lifetime of the
    table: every packet of a flow goes to the same queue. *)

val bucket_of_key : t -> Flow.Key.t -> int
(** {!bucket} from a packed flow key ({!Batch.flow_key}) without
    materialising a {!Flow.t}. *)

val retarget : t -> bucket:int -> queue:int -> unit
(** Re-point one indirection bucket (how real NICs rebalance under
    skew). Not used by the deterministic scaling experiment — moving a
    bucket mid-run would change per-queue streams. *)
