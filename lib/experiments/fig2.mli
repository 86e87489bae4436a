(** E1 / Figure 2 — "Overhead of remote invocation for different batch
    sizes plotted against the cost of processing by Maglev", plus the
    E10 quoted numbers derived from it (90 cycles at batch 1, ~122 at
    256, "2–3 L3 cache accesses", <1 % of Maglev beyond batch 32).

    Method (the paper's): a pipeline of 5 null-filters processes
    batches; the run is repeated with and without protection domains;
    (isolated − direct) / 5 is the per-remote-invocation overhead.
    Separately, the Maglev NF's per-batch processing cost is measured
    at the same batch sizes. *)

type row = {
  batch : int;
  direct_cycles : float;       (** Mean cycles/batch, plain calls. *)
  isolated_cycles : float;     (** Mean cycles/batch, one PD per stage. *)
  overhead_per_call : float;   (** (isolated − direct) / pipeline length. *)
  maglev_cycles : float;       (** Mean cycles/batch of the Maglev NF. *)
  overhead_vs_maglev : float;  (** overhead_per_call / maglev_cycles. *)
  l3_equivalents : float;      (** overhead_per_call / L3 latency. *)
}

val pipeline_length : int
(** 5, as in the paper. *)

val run : telemetry:Telemetry.Registry.t -> row list
(** Batches 1, 2, 4, ..., 256; per mode and batch, 20 warm-up and 100
    measured batches. [telemetry] receives the [sfi.*] / [netstack.*]
    metrics of every mode's run (via {!Env.make}). *)

val print : row list -> unit
