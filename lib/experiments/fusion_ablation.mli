(** E18: the kernel-fusion ablation, over the off-heap slab pool.

    The pipeline compiles adjacent {!Netstack.Stage.Rewrite} /
    {!Netstack.Stage.Filter} kernels into fused groups. This
    experiment isolates what fusion buys — and what it must {e not}
    change:

    - a deterministic section pinning the equivalence contract: in the
      calls modes (Direct/Tagged) a fused pipeline is cycle-identical,
      output-identical and telemetry-identical to the unfused chain;
      under Isolated mode a fused group costs one protection-domain
      crossing where the unfused chain paid one per stage (same
      outputs).
    - a wall-clock section racing unfused against fused on the
      Direct-mode Maglev NF, plus the Tagged fused arm for the
      isolation-tax ratio. *)

val default_rounds : int
val default_batch_size : int

(** {2 Deterministic section} *)

type det_run = {
  dr_crafted : int;
  dr_tx : int;
  dr_cycles : int64;
  dr_groups : string list list;  (** The compiled fusion plan. *)
  dr_telemetry : string;         (** Rendered registry, for equality checks. *)
  dr_reports : Netstack.Pipeline.stage_report list;
      (** Per-domain accounting; [[]] outside Isolated mode. *)
}

type det_mode = Direct | Isolated | Tagged

val run_det :
  ?rounds:int ->
  ?batch_size:int ->
  mode:det_mode ->
  fuse:bool ->
  unit ->
  det_run
(** One fresh environment (private telemetry registry) serving the
    Figure-2 Maglev NF for [rounds] batches. Defaults: 200 rounds of
    32. *)

type det_result = {
  d_rounds : int;
  d_batch_size : int;
  d_calls : (det_mode * det_run * det_run) list;  (** mode, unfused, fused. *)
  d_iso_unfused : det_run;
  d_iso_fused : det_run;
}

val run_stats : ?rounds:int -> ?batch_size:int -> unit -> det_result

val crossings : det_run -> int
(** Total protection-domain entries across the run (Isolated only). *)

val same_outputs : det_run -> det_run -> bool

val print_stats : det_result -> unit
(** Virtual counters only — byte-identical across runs and hosts; the
    golden [test/golden/fusion_stats.txt] pins it. *)

(** {2 Sharded determinism block} *)

val shard_stages : Netstack.Shard.queue_ctx -> Netstack.Stage.t list
(** The Maglev NF adapted to the sharded engine's stage constructor
    (fresh per-queue Maglev state; pipelines fuse by default). *)

val run_shard_stats :
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?flows:int ->
  ?seed:int64 ->
  shards:int ->
  unit ->
  Netstack.Shard.result
(** One sharded run of the fused NF. The printed block
    ({!print_shard_stats}) is byte-identical for any [shards] — what
    the fusion-determinism CI job diffs across 1/2/4 shards. *)

val print_shard_stats : Netstack.Shard.result -> unit

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
  w_rows : wall_row list;  (** Direct unfused (the baseline), then direct fused. *)
  w_tagged : wall_row;     (** Tagged, fused. *)
  w_direct_mpps : float;   (** Direct, fused — the headline. *)
  w_tagged_ratio : float;  (** Tagged slowdown vs that headline. *)
}

val run_wall :
  ?batch_size:int -> ?warmup:int -> ?batches:int -> ?reps:int -> unit -> wall_result
(** Each cell is timed [reps] times (default 6) and the fastest window
    is reported — a single window on a shared host folds scheduler
    preemptions into the rate. *)

val print_wall : wall_result -> unit

(** {2 Combined entry point} *)

type result = {
  stats : det_result;
  wall : wall_result;
}

val run : quick:bool -> unit -> result
val print : result -> unit
