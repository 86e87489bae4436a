(** E15 (extension): the deterministic fault storm.

    Runs the sharded isolated engine under a seeded {!Faultinj.Plan}
    (stage panics, panicking recovery functions, mid-batch rref
    revocations, control-channel overflows, mempool pressure), once per
    restart policy, and reports the packet-conservation ledger
    [crafted = served + degraded + dropped] together with restart,
    checkpoint-restore and recovery-latency figures. Every number is a
    pure function of the seeds — the storm is a determinism claim, not
    a stress test — and shard-count invariant. *)

type row = {
  policy : Faultinj.Restart.policy;
  crafted : int;
  served : int;       (** Transmitted by a fully healthy pipeline. *)
  degraded : int;     (** Transmitted while routing around a dead stage. *)
  dropped : int;
  injected : int;     (** Faults the plan scheduled. *)
  restarts : int;     (** Successful supervisor restarts. *)
  restores : int;     (** Checkpoint rollbacks performed on restart. *)
  p99_recovery : int; (** p99 of [sfi.recovery_cycles], virtual cycles. *)
  availability : float;  (** (served + degraded) / crafted. *)
  digest : string;    (** md5 of the rendered merged telemetry. *)
}

val default_policies : Faultinj.Restart.policy list
(** Immediate; Backoff 300..4800 cycles; Breaker (3 failures / 20k
    window / 6k cooldown); Degrade. Backoff waits are sized against
    the rejecting regime (a dropped round advances the clock by the
    receive path only, ~300 cycles); the breaker window is sized
    against restart churn (each failed restart attempt charges ~4.2k
    cycles of recovery work, so three strikes span ~8.5k cycles). *)

val default_queues : int
val default_rounds : int

val run_one :
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?rate:float ->
  ?fault_seed:int64 ->
  ?shards:int ->
  policy:Faultinj.Restart.policy ->
  unit ->
  Netstack.Shard.result * int
(** One storm under one policy; also returns the total checkpoint
    restores. For tests: [?batch_size], [?rate] and [?fault_seed], which
    the conservation property draws and the restore test shrinks. *)

val run :
  ?queues:int ->
  ?rounds:int ->
  ?shards:int ->
  unit ->
  row list

val print : row list -> unit
