(** E14 (extension) — wall-clock scaling of the sharded engine.

    The workload is fixed — the same RSS queues, the same global
    arrival stream — and only the number of OCaml domains the queues
    are spread over varies ({!Netstack.Shard}). Two claims are under
    test:

    - wall-clock time falls as shards are added (NetBricks'
      shared-nothing linear scaling), and
    - nothing else changes: the merged telemetry registry is
      byte-identical for every shard count (the [telemetry md5] and
      [determ] columns), because every queue's virtual trajectory
      depends only on its RSS share of the traffic.

    Absolute seconds are host-dependent; the ratios and the digests
    are the claims. *)

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

val default_queues : int

val print_stats : shards:int -> unit
(** The deterministic section: the merged telemetry of one Direct and
    one Isolated run over [shards] domains (8 queues, 1500 rounds of 32
    arrivals, seed 2017). The same bytes for every shard count. *)

val run : unit -> row list
(** The wall-clock sweep: each of the four modes at each shard count
    (1, 2, 4, 8 capped at [Domain.recommended_domain_count]). *)

val print : row list -> unit
