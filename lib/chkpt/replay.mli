(** Checkpoint + input-log rollback recovery — the middlebox
    rollback-recovery usage the paper motivates checkpointing with
    (its citation [37], Sherry et al., FTMB).

    A stateful component whose state evolves {e deterministically}
    under [apply] is protected by taking a checkpoint every [interval]
    inputs and logging the inputs since the last checkpoint. After a
    crash (state lost), {!crash_and_recover} reinstates the last
    snapshot and replays the logged inputs, reconstructing the state
    {e exactly} — not just approximately — which the tests verify.

    The classic dial this exposes: a short interval pays frequent
    checkpoint traversals but replays little on failure; a long one is
    cheap in steady state but slow to recover. Experiment E13 sweeps
    it. *)

type ('state, 'input) t

val create :
  desc:'state Checkpointable.t ->
  apply:('state -> 'input -> unit) ->
  interval:int ->
  ?telemetry:Telemetry.Registry.t ->
  'state ->
  ('state, 'input) t
(** [interval] must be positive. A checkpoint of the initial state is
    taken immediately (recovery is always possible). [telemetry]
    records checkpoints as [chkpt.snapshots], recoveries as
    [chkpt.rollbacks], and replayed inputs as [chkpt.replayed]. *)

val state : ('state, _) t -> 'state
(** The live state. Mutate it only through {!feed}. *)

val feed : ('state, 'input) t -> 'input -> Checkpointable.stats option
(** Apply one input: logs it, applies it, and — every [interval]
    inputs — takes a fresh checkpoint and truncates the log. Returns
    the checkpoint stats when one was taken. *)

type recovery = {
  replayed : int;           (** Inputs re-applied from the log. *)
  checkpoint_age : int;     (** Inputs since the snapshot was taken. *)
}

val crash_and_recover : ('state, 'input) t -> recovery
(** Simulate losing the live state: reinstate a copy of the last
    checkpoint and replay the log. Afterwards {!state} is exactly what
    it was before the crash (determinism of [apply] assumed). *)

val checkpoints_taken : (_, _) t -> int

(** {1 For tests}

    oracle: the log bound that [test/test_chkpt.ml] checks truncation by. *)

val log_length : (_, _) t -> int
