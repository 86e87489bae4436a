(** E14 (extension) — wall-clock scaling of the sharded engine.

    E12 measures independent replicas doing {e more} total work as
    cores are added; this experiment holds the workload fixed — the
    same RSS queues, the same global arrival stream — and varies only
    how many OCaml domains the queues are spread over
    ({!Netstack.Shard}). Two claims are under test:

    - wall-clock time falls as shards are added (NetBricks'
      shared-nothing linear scaling), and
    - nothing else changes: the merged telemetry registry is
      byte-identical for every shard count (the [telemetry md5] and
      [determ] columns), because every queue's virtual trajectory
      depends only on its RSS share of the traffic.

    Like E12 this is wall-clock based; absolute seconds are
    host-dependent, the ratios and the digests are the claims. *)

type row = {
  mode : Netstack.Shard.mode;
  shards : int;
  wall_s : float;
  batches : int;       (** Must not vary with [shards]. *)
  packets_out : int;   (** Must not vary with [shards]. *)
  failed : int;
  speedup : float;     (** 1-shard wall time ÷ this wall time. *)
  digest : string;     (** MD5 prefix of the rendered merged telemetry. *)
  deterministic : bool;  (** [digest] equals the 1-shard digest. *)
}

val default_stages : Netstack.Shard.queue_ctx -> Netstack.Stage.t list
(** Checksum-verify + TTL-decrement, fresh per queue. *)

val default_queues : int
val default_rounds : int
val default_modes : Netstack.Shard.mode list

val default_shards_list : unit -> int list
(** 1, 2, 4, 8 capped at [Domain.recommended_domain_count]. *)

val run_one :
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?seed:int64 ->
  mode:Netstack.Shard.mode ->
  shards:int ->
  unit ->
  float * Netstack.Shard.result
(** One timed engine run; returns (wall seconds, result). Defaults:
    8 queues, 1500 rounds of 32 arrivals, seed 2017. *)

val run :
  ?shards_list:int list ->
  ?modes:Netstack.Shard.mode list ->
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?seed:int64 ->
  unit ->
  row list
(** Full sweep: each mode (default all four) at each shard count
    (default 1,2,4,8 capped at [Domain.recommended_domain_count]). *)

val print : row list -> unit
