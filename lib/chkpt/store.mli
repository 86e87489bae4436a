(** Snapshot management over a mutable application store.

    Wraps a value with its descriptor and keeps a stack of snapshots:
    {!snapshot} checkpoints the current state; {!rollback} reinstates
    the most recent snapshot (installing a fresh copy, so the snapshot
    itself survives further mutation and repeated rollbacks); {!commit}
    discards it. This is the transaction/rollback-recovery usage the
    paper motivates checkpointing with (firewall state, middlebox
    rollback [37]). *)

type 'a t

val create :
  ?strategy:Checkpointable.strategy ->
  'a Checkpointable.t ->
  'a ->
  'a t

val create_incr : ?telemetry:Telemetry.Registry.t -> 'a Incr.tracker -> 'a t
(** A store backed by an incremental tracker ({!Trie.tracker},
    {!Incr.iarr_tracker}) instead of full-traversal copies: {!snapshot}
    syncs the shadow in O(dirty) and {!rollback} restores from it in
    O(dirty), keeping exactly one (continuously reusable) snapshot.
    {!commit} is unavailable ([Invalid_argument]) — the
    tracker owns its value and its single shadow. [telemetry] records
    every snapshot/rollback into the [chkpt.*] counters (see {!Tele}). *)

val get : 'a t -> 'a
(** The live value. Mutate it freely through its own interface. *)

val snapshot : 'a t -> Checkpointable.stats
(** Push a checkpoint of the live value. *)

val rollback : 'a t -> Checkpointable.stats
(** Replace the live value with a copy of the newest snapshot (which
    remains on the stack). Raises [Invalid_argument] with no
    snapshot. *)

val rollbacks : 'a t -> int

(** {1 For tests}

    The snapshot stack's discipline, pinned by [test/test_chkpt.ml] and
    [test/test_chkpt_incr.ml]. *)

val commit : 'a t -> unit
(** Drop the newest snapshot. Raises [Invalid_argument] if none. *)

val depth : 'a t -> int
(** Snapshots currently held. *)

val snapshots_taken : 'a t -> int
