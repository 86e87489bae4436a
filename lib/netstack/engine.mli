(** The packet-processing engine context.

    Bundles what every stage needs: the virtual clock, the buffer pool
    and the memory-access mode. The mode distinguishes the paper's SFI
    baselines:

    - [Untagged] — plain accesses; used by the direct pipeline and by
      the Rust-style linear SFI, whose whole point is that {e no}
      per-access validation is needed.
    - [Tagged] — the Mao et al. [27] shared-heap architecture: "tags
      every object on the heap with the ID of the domain that currently
      owns the object ... introduces a runtime overhead of over 100 %
      due to tag validation performed on each pointer dereference".
      Every packet access additionally hashes the address and touches
      the tag-metadata table, then branches on the result.

    Stages must route all packet-memory traffic, reads and writes
    alike, through {!touch_packet} so that mode accounting is
    uniform. *)

type mode = Untagged | Tagged

type t

val create :
  clock:Cycles.Clock.t ->
  pool:Mempool.t ->
  ?telemetry:Telemetry.Registry.t ->
  ?mode:mode ->
  unit ->
  t
(** [telemetry] turns on the [netstack.*] metrics: the NIC and every
    pipeline built on this engine pre-resolve their counters and
    histograms from it at construction time. *)

val clock : t -> Cycles.Clock.t
val pool : t -> Mempool.t
val telemetry : t -> Telemetry.Registry.t option

val with_mode : t -> mode -> t
(** A view of the same engine under a different access mode: clock,
    pool, telemetry, tag table and the tag-check counter are shared;
    only the mode differs. This is how a [Tagged] pipeline gets its
    per-dereference validation without mutating the engine other
    pipelines (or other shards) are using. *)

val touch_packet : t -> Packet.t -> off:int -> bytes:int -> unit
(** Charge an access (read or write, priced alike) to [bytes] bytes at
    offset [off] of the packet buffer; in [Tagged] mode also charge
    one ownership-tag check per 32-bit word. *)

(** {1 For tests}

    oracle: the access mode and tag-check count the tagged-heap tests read. *)

val mode : t -> mode
(** The access mode is fixed at {!create} time — engines are
    mode-immutable so sharded pipelines can never race on a mode
    flip. *)

val tag_checks : t -> int
(** Number of tag validations performed so far (Tagged mode only). *)
