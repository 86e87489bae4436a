(** DPDK-style packet buffer pools.

    A pool pre-allocates a fixed population of equally-sized buffers at
    contiguous synthetic addresses (2 KiB stride, like DPDK mbufs) and
    hands them out through a LIFO free list. LIFO matters: it is what
    gives small working sets their cache locality, and large batches
    their cache pressure — the mechanism behind Figure 2's growth. *)

type t

val create :
  clock:Cycles.Clock.t ->
  capacity:int ->
  unit ->
  t
(** Every buffer is 2240 bytes — DPDK's 2 KiB data room plus headroom
    and metadata; the non-power-of-two stride matters for realistic
    cache-set distribution (see the implementation note). Payloads
    live in one off-heap {!Slab} the GC never scans, sliced into slot
    views. *)

val capacity : t -> int
val buf_bytes : t -> int
val in_use : t -> int

val alloc : t -> Packet.t option
(** Pop a buffer; [None] when exhausted. Charges the allocator fast
    path and the free-list touch. The returned packet has [len = 0]. *)

val alloc_into : t -> Batch.t -> bool
(** Pop a buffer directly into the batch; [false] when the pool is
    exhausted (nothing pushed). Charge-identical to {!alloc} but
    allocation-free on the OCaml heap: no [option] box per packet.
    Raises [Invalid_argument] if the batch is full. *)

val free : t -> Packet.t -> unit
(** Return a buffer. Raises [Invalid_argument] if the packet does not
    belong to this pool or is already free (double-free detection). *)

val free_batch : t -> Batch.t -> unit
(** Release every buffer of the batch in index order and empty it —
    the list-free equivalent of freeing [take_all]'s result in order. *)

val is_allocated : t -> Packet.t -> bool
(** [true] iff the packet belongs to this pool and its buffer is
    currently allocated. Lets fault-recovery reclaim "whatever the
    failed domain still held" without double-freeing buffers the
    domain had already released. *)

val mark : t -> int
(** Current allocation watermark. Buffers allocated after a [mark] can
    be bulk-reclaimed with {!reclaim_since} — the mechanism the
    isolated pipeline uses to reclaim buffers a stage allocated
    {e itself} before panicking (its in-flight inputs are reclaimed
    from the batch snapshot; its own allocations would otherwise
    leak). *)

val reclaim_since : t -> int -> int
(** [reclaim_since t m] frees every buffer allocated at or after
    watermark [m] that is still allocated, returning how many were
    reclaimed. Safe against double-frees: buffers the failed domain
    already released are skipped. *)

val assert_no_leaks : t -> unit
(** Raises [Failure] if any buffer is still allocated — the shard
    engine's end-of-run leak check (after every batch is either
    transmitted or reclaimed along a panic path, occupancy must be
    zero). *)

(** {1 For tests}

    oracle: the free count, which the leak tests check against
    {!in_use} and the pool's capacity. *)

val available : t -> int
