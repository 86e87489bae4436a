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
val of_list : Packet.t list -> t

val length : t -> int
val capacity : t -> int
val is_empty : t -> bool

val push : t -> Packet.t -> unit
(** Raises [Invalid_argument] when full. The new slot's flow cache
    starts invalid. *)

val push_flow : t -> Packet.t -> Flow.t -> unit
(** [push] plus seeding the flow-key sidecar: the NIC rx path knows the
    5-tuple it crafted, so downstream stages never re-parse headers. *)

val get : t -> int -> Packet.t
val iter : (Packet.t -> unit) -> t -> unit
val iteri : (int -> Packet.t -> unit) -> t -> unit
val fold : ('a -> Packet.t -> 'a) -> 'a -> t -> 'a

(** {2 Flow-key sidecar}

    Slot [i] caches the parse of packet [i]'s 5-tuple — the packed
    immediate {!Flow.Key.t} and the materialised {!Flow.t} — seeded at
    NIC rx and reused by every stage (Maglev, RSS, NAT, heavy hitters,
    firewalls). A stage that mutates any 5-tuple header field must call
    {!invalidate_flow}; the next {!flow}/{!flow_key} then re-parses
    lazily. All sidecar accessors bounds-check and raise
    [Invalid_argument] like {!get}. *)

val flow : t -> int -> Flow.t
(** Cached 5-tuple of packet [i]; parses (and caches) on a cold or
    invalidated slot. *)

val flow_key : t -> int -> Flow.Key.t
(** Packed key of packet [i]'s 5-tuple; same caching as {!flow}. *)

val seed_flow : t -> int -> Flow.t -> unit
(** Install a known 5-tuple for slot [i] (NIC rx, packet rewriters that
    know the post-rewrite tuple). *)

val seed_flow_keyed : t -> int -> Flow.t -> Flow.Key.t -> unit
(** {!seed_flow} with the packed key already computed — the caller
    vouches that [key = Flow.Key.of_flow flow]. *)

val invalidate_flow : t -> int -> unit
(** Mark slot [i]'s cache stale after a header mutation. *)

val flow_cached : t -> int -> bool

val blit_flow : t -> int -> t -> int -> unit
(** [blit_flow src i dst j] copies slot [i]'s sidecar state — flow
    cache and header plane, valid or not — to [dst]'s slot [j], for
    deep-copying pipelines whose copies are byte-identical. *)

(** {2 Header plane (SoA columns)}

    Structure-of-arrays view of each packet's L3/L4 header: parsed
    once (seeded by the NIC at rx via {!seed_hdr}, or lazily from wire
    bytes on first column access), mutated through the [set_col_*]
    writers which record a per-column dirty bit, and written back to
    wire bytes by a single {!materialize} pass with one accumulated
    RFC 1624 checksum fold per packet ({!Packet.apply_hdr}).

    Contract for column ([Stage.Cols]) stages: read and write header
    fields only through these columns (and the flow sidecar); never
    touch wire bytes. The pipeline materializes the batch before any
    byte-reading stage, flowcache guard compare or exit — see
    DESIGN.md §15. A stage that mutates header bytes directly
    (GRE encap/decap, flowcache replay) must call {!invalidate_hdr};
    the next column access re-parses. *)

val seed_hdr : t -> int -> flow:Flow.t -> ttl:int -> ip_len:int -> csum:int -> unit
(** Install the known header columns for slot [i] without reading
    bytes — the NIC rx path knows every field it crafted. [csum] is
    the checksum word as stored in the header. *)

val invalidate_hdr : t -> int -> unit
(** Drop slot [i]'s plane after a byte-level header mutation. *)

val hdr_valid : t -> int -> bool
val hdr_dirty : t -> int -> bool

val col_ttl : t -> int -> int
val col_src_ip : t -> int -> int
val col_dst_ip : t -> int -> int
val col_src_port : t -> int -> int
val col_dst_port : t -> int -> int
val col_proto : t -> int -> int
val col_ip_len : t -> int -> int
(** Column readers; lazily parse a plane-less slot. The port columns
    raise [Invalid_argument] for protocols that carry no ports, like
    {!Packet.src_port}. *)

val set_col_ttl : t -> int -> int -> unit
val set_col_src_ip : t -> int -> int -> unit
val set_col_dst_ip : t -> int -> int -> unit
val set_col_src_port : t -> int -> int -> unit
val set_col_dst_port : t -> int -> int -> unit
(** Column writers: record the new value and its dirty bit; wire bytes
    are untouched until {!materialize}. Setters validate ranges like
    the corresponding {!Packet} setters. *)

val materialize_slot : t -> int -> unit
val materialize : t -> unit
(** Write every dirty column back to wire bytes — one pass, one
    RFC 1624 checksum fold per packet — and mark the plane clean.
    A no-op on clean slots; never charges the virtual clock (the
    column stages already charged the writes they deferred). *)

val hdr_consistent : t -> int -> bool
(** Audit hook: a slot whose plane claims to be clean must agree with
    a fresh parse of its wire bytes. Dirty or plane-less slots pass
    vacuously. *)

(**/**)

val poke_col_for_test :
  t ->
  int ->
  [ `Ttl of int | `Src_ip of int | `Dst_ip of int | `Src_port of int | `Dst_port of int ] ->
  unit
(** Write a column {e without} its dirty bit — the forgetful-rewriter
    fault the {!hdr_consistent} audit must catch. Tests only. *)

(**/**)

val sieve_kernel :
  t -> ('e -> t -> int -> Packet.t -> bool) -> 'e -> dropped:Packet.t array -> int
(** [sieve_kernel t keep env ~dropped] keeps the packets for which
    [keep env t i p] holds (preserving order), compacting the sidecar
    and header plane alongside them; [i] is the packet's
    pre-compaction index, so the predicate can consult and invalidate
    the flow sidecar. Dropped packets are written into [dropped]
    (which must hold at least {!length} [t] entries) in encounter
    order; returns how many were dropped. The fused pipeline's filter
    passes run through this with one reusable scratch array. *)

val filteri_in_place : t -> (int -> Packet.t -> bool) -> Packet.t list
(** {!sieve_kernel} returning the dropped packets as a list, so the
    caller can release their buffers. *)

val clear : t -> unit
(** Empty the batch without returning the packets (the caller already
    released or transferred the buffers). *)

val take_all : t -> Packet.t list
(** Empty the batch, returning its packets. Materializes any deferred
    column writes first — the bytes handed out are canonical. *)

val packets : t -> Packet.t list
(** Non-destructive snapshot, oldest first. *)
