(* Pre-resolved [chkpt.*] handles shared by Replay and Flowtab. Each
   descriptor node is a boxed word in the copy, so 8 bytes/node is the
   natural first-order size estimate for a snapshot. *)

let bytes_per_node = 8

type t = {
  tl_snapshots : Telemetry.Counter.t;
  tl_rollbacks : Telemetry.Counter.t;
  tl_nodes : Telemetry.Counter.t;
  tl_rc_copies : Telemetry.Counter.t;
  tl_dedup_hits : Telemetry.Counter.t;
  tl_approx_bytes : Telemetry.Counter.t;
  tl_replayed : Telemetry.Counter.t;
  tl_dirty_nodes : Telemetry.Counter.t;
  tl_reused_nodes : Telemetry.Counter.t;
  tl_dirty_ratio : Telemetry.Gauge.t;
}

let v reg =
  let scope = Telemetry.Scope.v reg "chkpt" in
  {
    tl_snapshots = Telemetry.Scope.counter scope "snapshots";
    tl_rollbacks = Telemetry.Scope.counter scope "rollbacks";
    tl_nodes = Telemetry.Scope.counter scope "nodes";
    tl_rc_copies = Telemetry.Scope.counter scope "rc_copies";
    tl_dedup_hits = Telemetry.Scope.counter scope "dedup_hits";
    tl_approx_bytes = Telemetry.Scope.counter scope "approx_bytes";
    tl_replayed = Telemetry.Scope.counter scope "replayed";
    tl_dirty_nodes = Telemetry.Scope.counter scope "dirty_nodes";
    tl_reused_nodes = Telemetry.Scope.counter scope "reused_nodes";
    tl_dirty_ratio = Telemetry.Scope.gauge scope "dirty_ratio_pct";
  }

let record_copy t (stats : Checkpointable.stats) =
  Telemetry.Counter.add t.tl_nodes stats.Checkpointable.nodes;
  Telemetry.Counter.add t.tl_rc_copies stats.Checkpointable.rc_copies;
  Telemetry.Counter.add t.tl_dedup_hits stats.Checkpointable.rc_dedup_hits;
  Telemetry.Counter.add t.tl_approx_bytes (stats.Checkpointable.nodes * bytes_per_node)

(* Incremental accounting. A full traversal reports dirty = nodes,
   reused = 0, so one pair of counters covers both engines. Counters
   are additive, which keeps sharded-registry merges (storm) invariant
   under the queue->shard assignment. *)
let record_split t (stats : Checkpointable.stats) =
  Telemetry.Counter.add t.tl_dirty_nodes stats.Checkpointable.dirty_nodes;
  Telemetry.Counter.add t.tl_reused_nodes stats.Checkpointable.reused_nodes

(* The ratio gauge is NOT additive (per-shard registries merge by
   addition), so it is only set through this explicit call, by owners
   of a single registry (the ckpt-incr experiment, unit tests) — never
   from the Store snapshot/rollback path. *)
let record_incr t stats =
  record_split t stats;
  let total =
    stats.Checkpointable.dirty_nodes + stats.Checkpointable.reused_nodes
  in
  if total > 0 then
    Telemetry.Gauge.set t.tl_dirty_ratio
      (100 * stats.Checkpointable.dirty_nodes / total)

let record_snapshot t stats =
  Telemetry.Counter.incr t.tl_snapshots;
  record_copy t stats;
  record_split t stats

let record_rollback t stats =
  Telemetry.Counter.incr t.tl_rollbacks;
  record_copy t stats;
  record_split t stats

let record_replayed t n = Telemetry.Counter.add t.tl_replayed n
