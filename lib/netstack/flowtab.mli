(** The stateful per-queue flow table as a reusable stage.

    E15's fault-storm pipeline carries a third, stateful stage: a
    power-of-two bucket array counting packets per RSS flow hash,
    wrapped in an incremental checkpoint store and snapshotted on a
    fixed batch cadence. This module extracts that stage so the storm
    (in-memory rollback only) and E19 (durable crash-restart recovery)
    share one implementation — the packet loop, virtual-cycle charges
    and snapshot cadence are identical, so extracting it leaves every
    storm counter byte-for-byte unchanged.

    With a [durable] store attached, each snapshot also persists: the
    first as a full {!Chkpt.Durable.save}, every later one as a
    {!Chkpt.Durable.save_delta} of exactly the chunks the in-memory
    dirty tracking found — the on-disk write amplification equals the
    in-memory one. Because the durable save rides the same cadence as
    the shadow sync, the shadow and the newest on-disk generation are
    always the same state — the same bytes, in fact: the shadow is the
    per-chunk wire payloads the sync encoded, and those are what the
    save writes ({!Chkpt.Incr.iarr_synced_chunks}), so nothing is
    encoded twice. {!rollback} therefore answers "what must recovery
    reproduce" without touching disk, and {!recover} adopts the
    payloads it has just verified as the recovered table's shadow. *)

type t

val create :
  ?buckets:int ->
  ?chunk:int ->
  ?snapshot_every:int ->
  ?durable:Chkpt.Durable.t ->
  ?tag:string ->
  Shard.queue_ctx ->
  t
(** Fresh table for one queue. [buckets] (default 256) must be a power
    of two; [chunk] (default 16) is the dirty-tracking granule;
    [snapshot_every] (default 8) the batch cadence. Takes the baseline
    snapshot immediately (and, with [durable], the baseline full save
    under [tag], default ["flowtab"]) so a restart in the first few
    batches still has something to restore. Counters land in the
    queue's registry exactly as the storm always minted them. *)

val recover :
  ?snapshot_every:int ->
  ?tag:string ->
  durable:Chkpt.Durable.t ->
  Shard.queue_ctx ->
  (t * Chkpt.Durable.recovered, string) result
(** Cold-start the table from the newest valid checkpoint in [durable]
    (geometry comes from the wire image, not from arguments). Rejects —
    deterministically, before any state escapes — a store with no valid
    checkpoint, a tag mismatch, or a structurally invalid wire image.
    The recovered table is immediately snapshotted in memory (its
    shadow is the verified payloads, so that snapshot encodes nothing),
    and later persists continue the store's generation lineage with
    deltas. *)

val stage : t -> Stage.t
(** The opaque pipeline stage (name ["flowtab"]). Build once per
    pipeline; per-packet it touches the headers, charges the ALU and
    bumps the hashed bucket, per-batch it advances the snapshot
    cadence. *)

val rollback : t -> unit
(** Restore the live table to the last snapshot — the supervised
    restart hook, O(dirty chunks). *)

val rollbacks : t -> int
val persists : t -> int
(** Durable saves taken (0 without a durable store). *)

val digest : t -> string
(** Deterministic hex digest of the live table's full wire image —
    the equality oracle between a recovered table and the state the
    crashed instance last persisted ({!rollback} first to rewind the
    crashed instance to that state). *)

(** {1 For tests}

    oracle: the table state [test/test_durable.ml] checks a recovered table
    against. *)

val generation : t -> int option
(** Newest durable generation written or recovered. *)

val get : t -> int -> int

val buckets : t -> int
