(** E15 (extension): the deterministic fault storm.

    Runs the sharded isolated engine under a seeded {!Faultinj.Plan}
    (stage panics, panicking recovery functions, mid-batch rref
    revocations, control-channel overflows, mempool pressure), once per
    restart policy, and reports the packet-conservation ledger
    [crafted = served + degraded + dropped] together with restart,
    checkpoint-restore and recovery-latency figures. Every number is a
    pure function of the seeds — the storm is a determinism claim, not
    a stress test — and shard-count invariant. *)

val default_queues : int

val print : shards:int -> unit
(** Runs the storm once per policy over [shards] domains and prints
    the policy table (conservation ledger, restarts, restores, p99
    recovery cycles, availability, telemetry md5), then each policy's
    merged telemetry. The same bytes for every shard count; at one
    shard they are [test/golden/storm_stats.txt]. *)

(** {1 For tests}

    model: the policies and the single-storm run that [test/test_faultinj.ml]
    and [test/test_chkpt_incr.ml] drive at reduced sizes. *)

val default_policies : Faultinj.Restart.policy list
(** Immediate; Backoff 300..4800 cycles; Breaker (3 failures / 20k
    window / 6k cooldown); Degrade. Backoff waits are sized against
    the rejecting regime (a dropped round advances the clock by the
    receive path only, ~300 cycles); the breaker window is sized
    against restart churn (each failed restart attempt charges ~4.2k
    cycles of recovery work, so three strikes span ~8.5k cycles). *)

val run_one :
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?rate:float ->
  ?fault_seed:int64 ->
  shards:int ->
  policy:Faultinj.Restart.policy ->
  unit ->
  Netstack.Shard.result * int
(** One storm under one policy; also returns the total checkpoint
    restores. The conservation property draws [?rate] and
    [?fault_seed]; the tests shrink the rest. *)
