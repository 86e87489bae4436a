(** Packet batches.

    NetBricks "retrieves packets from DPDK in batches of user-defined
    size and feeds them to the pipeline, which processes the batch to
    completion before starting the next batch". A batch is the unit of
    ownership transfer between pipeline stages: in the isolated
    pipeline it moves across domain boundaries wrapped in a
    {!Linear.Own.t}, so "only one pipeline stage can access the batch
    at any time". *)

type t

val create : capacity:int -> t

val length : t -> int
val capacity : t -> int
val is_empty : t -> bool

val push : t -> Packet.t -> unit
(** Raises [Invalid_argument] when full. The new slot starts with no
    header plane. *)

val get : t -> int -> Packet.t
val iter : (Packet.t -> unit) -> t -> unit
val iteri : (int -> Packet.t -> unit) -> t -> unit

(** {2 Header plane (SoA columns)}

    Structure-of-arrays view of each packet's L3/L4 header: parsed
    once (seeded by the NIC at rx via {!seed_hdr}, or lazily from wire
    bytes on first column access), mutated through the [set_col_*]
    writers which record a per-column dirty bit, and written back to
    wire bytes by a single {!materialize} pass with one accumulated
    RFC 1624 checksum fold per packet ({!Packet.apply_hdr}).

    The plane is the one source of truth for a slot's header. Its
    flow memo — the materialised {!Flow.t} and the packed
    {!Flow.Key.t} of the tuple columns — is derived from it: set by
    {!seed_hdr} or on first {!flow}/{!flow_key}, cleared by the one
    tuple-column writer ({!set_col_dst_ip}), kept by {!set_col_ttl}
    and {!materialize}, and dropped with the whole plane by
    {!invalidate_hdr}, {!push} and compaction's tail reset. Because
    only the plane's own write path touches the memo, that write path
    is a complete invalidation barrier: no stage has a second cache to
    forget.

    Contract for column ([Stage.Cols]) stages: read and write header
    fields only through these columns and {!flow}/{!flow_key}; never
    touch wire bytes. The pipeline materializes the batch before any
    byte-reading stage, flowcache guard compare or exit — see
    DESIGN.md §15. A stage that mutates header bytes directly
    (GRE encap/decap, flowcache replay) must call {!invalidate_hdr};
    the next access re-parses. All accessors bounds-check and raise
    [Invalid_argument] like {!get}. *)

val seed_hdr :
  t -> int -> flow:Flow.t -> key:Flow.Key.t -> ttl:int -> ip_len:int -> csum:int -> unit
(** Install the known header columns and flow memo for slot [i]
    without reading bytes — the NIC rx path knows every field it
    crafted. The caller vouches that [key = Flow.Key.of_flow flow];
    [csum] is the checksum word as stored in the header. *)

val invalidate_hdr : t -> int -> unit
(** Drop slot [i]'s plane and flow memo after a byte-level header
    mutation. *)

val flow : t -> int -> Flow.t
(** 5-tuple of packet [i], from the memo or derived from the tuple
    columns (loading the plane on a plane-less slot). Raises
    [Invalid_argument] on a slot whose protocol carries no ports, like
    {!col_src_port}. *)

val flow_key : t -> int -> Flow.Key.t
(** Packed key of packet [i]'s 5-tuple ([Flow.hash] of {!flow}); same
    memo as {!flow}. *)

val blit_slot : t -> int -> t -> int -> unit
(** [blit_slot src i dst j] copies slot [i]'s header state — plane,
    deferred writes and flow memo, valid or not — to [dst]'s slot [j],
    for deep-copying pipelines whose copies are byte-identical. *)

val col_ttl : t -> int -> int
val col_src_ip : t -> int -> int
val col_dst_ip : t -> int -> int
val col_src_port : t -> int -> int
val col_dst_port : t -> int -> int
val col_proto : t -> int -> int

val set_col_ttl : t -> int -> int -> unit
val set_col_dst_ip : t -> int -> int -> unit
(** Column writers for the two fields a stage rewrites (TTL decrement,
    Maglev's destination): record the new value and its dirty bit;
    wire bytes are untouched until {!materialize}. [set_col_ttl]
    validates its range like {!Packet.set_ttl}. *)

val materialize : t -> unit
(** Write every dirty column back to wire bytes — one pass, one
    RFC 1624 checksum fold per packet — and mark the plane clean.
    A no-op on clean slots; never charges the virtual clock (the
    column stages already charged the writes they deferred). *)

val sieve_kernel :
  t -> ('e -> t -> int -> Packet.t -> bool) -> 'e -> dropped:Packet.t array -> int
(** [sieve_kernel t keep env ~dropped] keeps the packets for which
    [keep env t i p] holds (preserving order), compacting the header
    plane and flow memo alongside them; [i] is the packet's
    pre-compaction index, so the predicate can read, write and
    invalidate slot [i]'s header state. Dropped packets are written into [dropped]
    (which must hold at least {!length} [t] entries) in encounter
    order; returns how many were dropped. The fused pipeline's filter
    passes run through this with one reusable scratch array. *)

val filteri_in_place : t -> (int -> Packet.t -> bool) -> Packet.t list
(** {!sieve_kernel} returning the dropped packets as a list, so the
    caller can release their buffers. *)

val clear : t -> unit
(** Empty the batch without returning the packets (the caller already
    released or transferred the buffers). *)

val packets : t -> Packet.t list
(** Non-destructive snapshot, oldest first. *)

(** {1 For tests}

    oracle, hook: hooks of the column oracle tests ([test/test_packet_fast.ml],
    [test/test_soa.ml], [test/test_flowcache.ml]): the plane's state
    bits, the consistency audit and the fault it must catch, one slot's
    writeback, and the batch's packets read back. *)

val fold : ('a -> Packet.t -> 'a) -> 'a -> t -> 'a

val hdr_valid : t -> int -> bool

val materialize_slot : t -> int -> unit

val hdr_consistent : t -> int -> bool
(** Audit hook: a slot whose plane claims to be clean must agree with
    a fresh parse of its wire bytes, and a set flow memo must equal
    {!Packet.flow_of} of those bytes and its hash. Dirty or plane-less
    slots pass vacuously. *)

val poke_col_for_test :
  t ->
  int ->
  [ `Ttl of int | `Src_ip of int | `Dst_ip of int | `Src_port of int | `Dst_port of int ] ->
  unit
(** Write a column {e without} its dirty bit — the forgetful-rewriter
    fault the {!hdr_consistent} audit must catch. *)

val take_all : t -> Packet.t list
(** Empty the batch, returning its packets. Materializes any deferred
    column writes first — the bytes handed out are canonical. *)
