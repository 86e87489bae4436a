(** Snapshot management over a mutable application store.

    Wraps a value with its descriptor and holds one snapshot:
    {!snapshot} checkpoints the current state, replacing the previous
    snapshot; {!rollback} reinstates it (installing a fresh copy, so
    the snapshot itself survives further mutation and repeated
    rollbacks). This is the transaction/rollback-recovery usage the
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
(** Checkpoint the live value, replacing the held snapshot. *)

val rollback : 'a t -> Checkpointable.stats
(** Replace the live value with a copy of the snapshot (which stays
    held). Raises [Invalid_argument] with no snapshot. *)
