(** Pre-resolved [chkpt.*] metric handles, shared by {!Replay} and
    the flow table ([Netstack.Flowtab]): snapshot/rollback counts, descriptor nodes traversed,
    Rc copies and dedup hits, an approximate copied-byte count
    (8 bytes per node), inputs replayed on recovery, and the
    incremental-engine split — [chkpt.dirty_nodes] / [chkpt.reused_nodes]
    counters plus a [chkpt.dirty_ratio_pct] gauge holding the last
    pass's dirty percentage. *)

type t

val v : Telemetry.Registry.t -> t
(** Resolve (or re-find) the handles in [reg]; all instances given the
    same registry aggregate into the same counters. *)

val record_snapshot : t -> Checkpointable.stats -> unit
val record_rollback : t -> Checkpointable.stats -> unit

val record_incr : t -> Checkpointable.stats -> unit
(** Dirty/reused counters {e plus} the [dirty_ratio_pct] gauge. The
    gauge is not additive, so only owners of a single registry should
    call this (sharded registries merge gauges by addition; the
    snapshot/rollback path therefore records only the counters). *)

val record_replayed : t -> int -> unit
