(** Streaming statistics accumulators.

    Used by the experiments to summarise per-trial cycle counts (mean
    and percentiles) the way the paper reports "average number of
    cycles to process a batch". *)

type t
(** A mutable accumulator. Retains all samples so exact percentiles can
    be computed; experiments in this repository record at most a few
    hundred thousand samples. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. *)

val mean : t -> float
(** [0.] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]], by nearest-rank on the
    sorted samples. Raises [Invalid_argument] when empty. *)
