(** The synthetic NIC — our stand-in for DPDK.

    Receive synthesises packets from a {!Traffic} generator into pool
    buffers (charging the per-packet driver costs: mbuf allocation,
    descriptor read, header writes); transmit returns buffers to the
    pool. Batches a pipeline does not serve must also be released here
    via {!drop_batch} — buffer leaks surface as pool exhaustion exactly
    like forgotten mbuf frees do with real DPDK. *)

type t

val create : ?driver_seed:int64 -> engine:Engine.t -> traffic:Traffic.t -> unit -> t
(** [driver_seed] seeds the deterministic per-packet driver
    bookkeeping traffic (one line in a 256 KiB driver-state region per
    received packet) — the realistic "everything else the driver
    touches" that gives Figure 2 its gradual cache-pressure onset. *)

val rx_batch : t -> int -> Batch.t
(** [rx_batch t n] produces up to [n] freshly-crafted packets (fewer
    only if the pool runs dry). The header plane and flow memo of
    the returned batch are seeded: the driver knows the 5-tuple it
    crafted for, so the headers are never parsed again downstream. *)

val rx_batch_filtered : t -> int -> keep:(Flow.t -> bool) -> Batch.t
(** [rx_batch_filtered t n ~keep] draws exactly [n] arrivals from the
    generator but crafts (and charges) only those whose flow satisfies
    [keep] — hardware RSS steering seen from one receive queue. Every
    shard-queue replica replays the same generator stream with its own
    [keep], so the union of all queues' batches is exactly the global
    arrival stream, each flow's packets stay in arrival order, and a
    queue's workload is independent of how queues are spread over
    shards. The returned batch may be empty. *)

val tx_batch : t -> Batch.t -> int
(** Transmit (and release) every packet of the batch; returns the
    count. The batch is left empty. *)

val drop_batch : t -> Batch.t -> unit
(** Release every buffer of an unserved batch and empty it — the
    list-free drop path (supervisor-rejected batches and the like). *)

val rx_packets : t -> int
val tx_packets : t -> int

(** {1 For tests}

    oracle: rx into a caller-owned batch, whose allocation [test/test_fusion.ml]
    bounds. *)

val rx_batch_into : t -> Batch.t -> int -> unit
(** [rx_batch_into t batch n] is {!rx_batch} into a caller-owned batch
    (cleared first — hand in an empty one or its packets leak): the
    serve loop recycles one batch instead of allocating per call.
    Raises [Invalid_argument] if [n] exceeds the batch's capacity. *)
