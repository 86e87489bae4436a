(** The sharded multicore packet engine.

    NetBricks pins one run-to-completion pipeline per core and lets the
    NIC's RSS hash spread flows across cores; nothing is shared between
    cores on the fast path, so scaling is linear until memory bandwidth
    runs out. This module reproduces that architecture on OCaml 5
    domains: [shards] domains each own a disjoint set of RSS receive
    queues, and every queue is a complete shared-nothing replica of the
    single-core engine — its own virtual-cycle clock, mempool, cache
    simulator, NIC and pipeline (plus its own SFI manager in
    [Isolated] mode).

    {2 Determinism}

    The replication unit for virtual state is the {e queue}, not the
    shard. Each queue replays the same seeded arrival stream and keeps
    only the flows RSS steers to it ({!Nic.rx_batch_filtered}), so a
    queue's entire virtual trajectory — batches, cycles, cache misses,
    telemetry — depends only on the queue count, never on how queues
    are distributed over domains. Per-shard telemetry registries are
    then merged by the associative, name-sorted
    {!Telemetry.Registry.merge}; the aggregate tables a run renders are
    therefore byte-identical for any shard count. Wall-clock time is
    the only thing sharding changes — which is exactly the linear-
    scaling claim under test. *)

type mode = Direct | Isolated | Copying | Tagged
(** Like {!Pipeline.mode}, but constructor-only: each queue builds its
    own {!Sfi.Manager.t} for [Isolated], so the manager cannot be
    supplied from outside. *)

val mode_name : mode -> string

type queue_ctx = {
  qc_queue : int;                      (** The queue's id. *)
  qc_clock : Cycles.Clock.t;           (** The queue's virtual clock. *)
  qc_registry : Telemetry.Registry.t;  (** The owning shard's registry. *)
  qc_flowcache : Flowcache.t option;
      (** The queue's megaflow cache when the spec enables one — stage
          constructors register {!Flowcache.invalidate} on their
          state's mutation hooks here. *)
}
(** What a stage constructor sees of the queue it is being built for —
    enough to key per-queue state (checkpoint stores, flow tables) and
    to record telemetry, without reaching into the engine. *)

type fault_spec = {
  f_rate : float;       (** Poisson fault rate per queue round, in [0, 1]. *)
  f_seed : int64;       (** Plan seed — independent of the traffic seed. *)
  f_policy : Faultinj.Restart.policy;  (** Same policy for every stage. *)
  f_chan_capacity : int;
      (** Capacity of the per-queue control channel [Channel_full]
          faults overflow. *)
  f_on_restart : (queue:int -> stage:int -> unit) option;
      (** Runs just before a restarted stage's domain is recovered —
          the checkpoint-restore hook ({!Flowtab.rollback}). *)
}

val default_faults :
  ?rate:float ->
  ?seed:int64 ->
  ?on_restart:(queue:int -> stage:int -> unit) ->
  policy:Faultinj.Restart.policy ->
  unit ->
  fault_spec
(** Defaults: rate 0.05, seed 4242; the control channel
    holds 4 messages. *)

type cache_spec = {
  c_capacity : int;        (** Megaflow entries per queue. *)
  c_ttl_cycles : int64;    (** Hard entry TTL in virtual cycles. *)
}

type spec = {
  shards : int;        (** Domains to run; 1 = single-core baseline. *)
  queues : int;        (** RSS receive queues (fixed as shards vary!). *)
  rounds : int;        (** Scheduling rounds. *)
  batch_size : int;    (** Global arrivals per round. *)
  seed : int64;        (** Traffic seed, shared by every queue replica. *)
  flows : int;         (** Uniform flow population. *)
  payload_bytes : int;
  pool_capacity : int; (** Buffers in each queue's mempool. *)
  mode : mode;
  stages : queue_ctx -> Stage.t list;
      (** Stage constructor, called once per queue with that queue's
          context. Must build fresh stage state each call — stages are
          never shared across queues (or domains). *)
  faults : fault_spec option;
      (** When set ([Isolated] mode only), every queue runs a seeded
          fault storm supervised by a {!Faultinj.Supervisor}: the
          plan arms stage panics, injected recovery-fn panics, rref
          revocations, control-channel overflows and mempool pressure,
          and the policy decides how service resumes. Each queue's
          schedule derives from [(f_seed, queue)] alone, so storms are
          shard-count invariant like everything else here. *)
  traffic : Traffic.plan option;
      (** Overrides the default [Uniform { flows }] workload. The plan
          is immutable and shared by every queue replica — a
          million-flow Zipf CDF is built once, not per queue — while
          each queue draws from it with its own copy of the seeded
          RNG, preserving stream alignment across queues. *)
  cache : cache_spec option;
      (** When set, every queue gets its own {!Flowcache} (exposed to
          stage constructors as [qc_flowcache]) armed on its pipeline.
          Cache counters land under [netstack.flowcache.*] in the
          queue's shard registry and merge deterministically like
          every other metric. Incompatible with [Copying] mode. *)
}

val default_spec :
  ?shards:int ->
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?seed:int64 ->
  ?flows:int ->
  ?pool_capacity:int ->
  ?faults:fault_spec ->
  ?traffic:Traffic.plan ->
  ?cache:cache_spec ->
  mode:mode ->
  stages:(queue_ctx -> Stage.t list) ->
  unit ->
  spec
(** Defaults: 1 shard, 8 queues, 300 rounds, batch 32, seed 2017,
    1024 flows, 18-byte payloads, 512-buffer pools, no faults, uniform
    traffic, no flow cache. *)

type t

val create : spec -> t
(** Builds every queue replica (ascending queue id). Raises
    [Invalid_argument] if [shards] ≤ 0, [queues] < [shards], [rounds]
    or [batch_size] ≤ 0, the pool holds fewer than two batches, or
    [faults] is set in a mode other than [Isolated].
    Queue [q] belongs to shard [q mod shards]. *)

type queue_stats = {
  qs_queue : int;
  qs_batches : int;
  qs_packets_out : int;
  qs_failed : int;
  qs_crafted : int;   (** Packets crafted for this queue. *)
  qs_served : int;    (** Transmitted by a fully healthy pipeline. *)
  qs_degraded : int;  (** Transmitted while routing around a dead stage. *)
  qs_dropped : int;   (** Stage drops + panic reclaims + rejected batches. *)
  qs_cycles : int64;  (** The queue's final virtual-cycle count. *)
}

type result = {
  r_shards : int;
  r_queues : int;
  r_batches : int;      (** Non-empty batches crafted, all queues. *)
  r_packets_out : int;
  r_failed : int;       (** Batches lost to contained stage panics. *)
  r_crafted : int;      (** Always [r_served + r_degraded + r_dropped]. *)
  r_served : int;
  r_degraded : int;
  r_dropped : int;
  r_injected : int;     (** Faults the plans scheduled within [rounds]. *)
  r_restarts : int;     (** Successful supervisor restarts. *)
  r_queue_stats : queue_stats list;  (** Ascending queue id. *)
  r_telemetry : Telemetry.Registry.t;
      (** The deterministic reduction of all shards' registries. *)
}

val run : t -> result
(** Run the engine to completion: shard 0 on the calling domain, the
    rest on freshly spawned domains, each shard iterating its queues in
    ascending id order for [rounds] rounds. Contained stage panics
    ([Isolated] mode) are recovered in place and counted in
    [r_failed]/[qs_failed]. After the domains join, every queue pool is
    checked for buffer leaks ({!Mempool.assert_no_leaks} — a failure
    here is a bug in the panic reclaim path) and the per-shard
    registries are merged. Single-shot: a second call raises
    [Invalid_argument]. *)
