(** E20: the structure-of-arrays header plane ablation.

    The batch carries a parse-once column plane for each packet's
    L3/L4 header ({!Netstack.Batch}): the NIC seeds it at rx, column
    stages rewrite unboxed ints under per-column dirty bits, and the
    wire bytes are rewritten once — at tx or at the first byte-reading
    barrier — with a single accumulated RFC 1624 checksum fold per
    packet ({!Netstack.Packet.apply_hdr}).

    - a deterministic section running the plain Maglev NF in
      {bytes, soa} x {unfused, fused} arms: all four must be
      cycle-identical, output-identical and telemetry-identical, and a
      same-stream frames audit checks deferred writeback produces
      byte-for-byte the frames the write-through byte twins produce.
    - a sharded block whose ledger diffs clean across 1/2/4 shards.
    - a wall-clock section racing the 2x2 matrix host-side; the
      (direct, fused, soa) arm carries the >= 1.2 Mpps gate. *)

val default_rounds : int
val default_batch_size : int
val wall_batch_size : int

(** {2 Deterministic section} *)

type det_run = {
  dr_crafted : int;
  dr_tx : int;
  dr_cycles : int64;
  dr_telemetry : string;  (** Rendered registry, for equality checks. *)
}

val run_det :
  ?rounds:int -> ?batch_size:int -> soa:bool -> fuse:bool -> unit -> det_run
(** One fresh environment (private telemetry registry) serving the
    plain Maglev NF for [rounds] batches, Direct mode. *)

val run_frames_audit : ?rounds:int -> ?batch_size:int -> unit -> int * bool
(** Replay the same arrival stream through the bytes and soa pipelines
    and byte-compare the materialized output frames; returns (packets
    compared, all identical). *)

type det_result = {
  d_rounds : int;
  d_batch_size : int;
  d_arms : (string * det_run) list;  (** bytes/unfused first: the baseline. *)
  d_audit_packets : int;
  d_audit_identical : bool;
}

val run_stats : ?rounds:int -> ?batch_size:int -> unit -> det_result
val print_stats : det_result -> unit

(** {2 Sharded determinism block} *)

val shard_stages : Netstack.Shard.queue_ctx -> Netstack.Stage.t list

val run_shard_stats :
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?flows:int ->
  ?seed:int64 ->
  shards:int ->
  unit ->
  Netstack.Shard.result

val print_shard_stats : Netstack.Shard.result -> unit
(** Ledger + merged telemetry only — no shard count, no wall clock —
    so runs with different shard counts diff byte-for-byte. *)

(** {2 Wall-clock section} *)

type wall_row = {
  wr_label : string;
  wr_packets : int;
  wr_wall_s : float;
  wr_mpps : float;
}

type wall_result = {
  w_batch_size : int;
  w_batches : int;
  w_rows : wall_row list;  (** bytes/soa x unfused/fused, baseline first. *)
  w_soa_mpps : float;      (** The (direct, fused, soa) headline. *)
}

val soa_target_mpps : float

val run_wall :
  ?batch_size:int -> ?warmup:int -> ?batches:int -> ?reps:int -> unit -> wall_result
(** Best-of-[reps] timed windows per cell, one recycled batch per cell ({!Netstack.Nic.rx_batch_into}). The reps of all
    four cells are interleaved round-robin so time-correlated host
    noise cannot favour whichever cell ran during a quiet spell. *)

val print_wall : wall_result -> unit

(** {2 Combined entry point} *)

type result = {
  stats : det_result;
  wall : wall_result;
}

val run : quick:bool -> unit -> result
val print : result -> unit
