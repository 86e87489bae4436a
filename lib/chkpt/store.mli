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

val get : 'a t -> 'a
(** The live value. Mutate it freely through its own interface. *)

val snapshot : 'a t -> Checkpointable.stats
(** Push a checkpoint of the live value. *)

val rollback : 'a t -> Checkpointable.stats
(** Replace the live value with a copy of the newest snapshot (which
    remains on the stack). Raises [Invalid_argument] with no
    snapshot. *)

(** {1 For tests}

    The snapshot stack's discipline, pinned by [test/test_chkpt.ml]. *)

val commit : 'a t -> unit
(** Drop the newest snapshot. Raises [Invalid_argument] if none. *)

val depth : 'a t -> int
(** Snapshots currently held. *)
