(** Packets: real byte buffers with Ethernet/IPv4/UDP/TCP headers.

    A packet is a view over an mbuf-style buffer obtained from a
    {!Mempool}; it carries the buffer's synthetic address so that
    header accesses can be charged to the experiment's cache model (via
    {!Engine.touch_packet} — the byte operations here are pure).

    Layout crafted/parsed: Ethernet II (14 B) · IPv4 without options
    (20 B) · UDP (8 B) or TCP (20 B) · payload. IPv4 header checksums
    are real (RFC 1071) and verified by tests. *)

type t = {
  buf : Slab.buf;
  mutable len : int;
  addr : int;         (** Synthetic base address of the buffer. *)
  slot : int;         (** Index of the buffer in its pool. *)
}

val null : t
(** The zero-length, pool-less placeholder for unused packet-array
    slots (batches, pipeline scratch). Never dereferenced. *)

val to_string : t -> string
(** The packet's live bytes, [0 .. len), as a fresh string. *)

(** {2 Sizes and offsets} *)

val eth_header_bytes : int
val ipv4_header_bytes : int
val tcp_header_bytes : int

(** {2 Crafting} *)

val frame_bytes : Flow.protocol -> payload_bytes:int -> int
(** Ethernet + IPv4 + the protocol's L4 header + [payload_bytes]. *)

val craft : t -> flow:Flow.t -> payload_bytes:int -> ttl:int -> unit
(** Write Ethernet+IPv4 headers, the UDP or TCP header the flow's
    protocol names, and a deterministic payload into the packet for
    [flow], set [len], and install a correct IPv4 checksum. Raises
    [Invalid_argument] if the buffer is too small. *)

(** {2 Parsing and field access}

    All accessors raise [Invalid_argument] on truncated/garbage
    packets — which inside a protection domain is a {e panic}, i.e. a
    bounds-check fault the SFI layer must contain (tested). *)

val flow_of : t -> Flow.t
(** Extract the connection 5-tuple. *)

val ttl : t -> int

(** {3 Unboxed address accessors}

    IPv4 addresses travel as raw unsigned 32-bit values in immediate
    [int]s — Maglev steering and checksum installs never box an
    [Int32]. (The historical [int32] wrappers are gone; see the
    README migration notes.) Setters fix the checksum incrementally. *)

val dst_ip_int : t -> int
val src_ip_int : t -> int

val dst_port : t -> int

val src_port : t -> int

val ipv4_checksum_ok : t -> bool

val payload_offset : t -> int
val payload_length : t -> int

val read_payload_byte : t -> int -> int
(** [read_payload_byte p i] is the [i]-th payload byte; bounds-checked. *)

val ip_total_length : t -> int

val protocol_number : t -> int
(** The raw IPv4 protocol byte (6, 17, 47, ...); raises only on
    non-IPv4/truncated packets. *)

val stored_checksum : t -> int
(** The checksum word as currently stored in the header (no
    verification) — what the {!Batch} header plane snapshots at seed
    time. *)

(** {2 Deferred header writeback (SoA column plane)}

    The {!Batch} header plane defers column writes and materializes
    them through {!apply_hdr}: every dirty IPv4 header word is written
    once and the checksum updated with a single accumulated RFC 1624
    fold — bit-identical to the chain of incremental updates the
    per-stage setters would have performed, in any order. The [dirty_*]
    bits select which of the field arguments are live. *)

val dirty_ttl : int
val dirty_dst_ip : int

val apply_hdr : t -> dirty:int -> ttl:int -> dst_ip:int -> int
(** Returns the checksum word now stored in the header (refolded over
    the dirty words, unchanged when none is dirty), so the caller can
    refresh a cached copy without re-reading the bytes. *)

(** {2 GRE encapsulation}

    Maglev forwards packets to backends inside GRE tunnels (NSDI'16
    §3.2); these implement IPv4-over-GRE-over-IPv4. *)

val gre_overhead_bytes : int
(** 24 — outer IPv4 header (20) + minimal GRE header (4). *)

val encap_gre : t -> outer_src:int -> outer_dst:int -> unit
(** Shift the inner IPv4 packet and prepend an outer IPv4+GRE header
    addressed to the backend. Raises [Invalid_argument] if the buffer
    cannot take the extra 24 bytes. The outer header checksum is
    valid; the inner packet is byte-identical. *)

val is_gre : t -> bool

(** {1 For tests}

    oracle: free-standing packets and the byte-level field access that
    are the bytes side of the header oracle ([test/hdr_oracle.ml]) —
    the stages write headers through {!Batch}'s columns and
    {!apply_hdr} — and the decapsulation that inverts {!encap_gre} in
    the GRE round-trip property. *)

val of_bytes : ?addr:int -> Bytes.t -> t
(** A free-standing packet with [len = 0] over a copy of the bytes
    ({!Slab.of_bytes}) — for tests and scratch buffers outside any
    pool. Fill the [Bytes.t] before wrapping it. *)

val ethertype : t -> int

val set_ttl : t -> int -> unit
(** Updates the checksum incrementally (RFC 1624). *)

val set_dst_ip_int : t -> int -> unit

val decap_gre : t -> unit
(** Strip the outer IPv4+GRE header, restoring the inner packet.
    Raises [Invalid_argument] if the packet is not GRE. *)
