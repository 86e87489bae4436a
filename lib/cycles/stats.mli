(** Streaming statistics accumulators.

    Used by the benchmark harness to summarise per-trial cycle counts
    (mean, standard deviation, percentiles) the way the paper reports
    "average number of cycles to process a batch". *)

type t
(** A mutable accumulator. Retains all samples so exact percentiles can
    be computed; experiments in this repository record at most a few
    hundred thousand samples. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. *)

val mean : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]], by nearest-rank on the
    sorted samples. Raises [Invalid_argument] when empty. *)

(** {1 For tests}

    The accessors [test/test_cycles.ml] checks the accumulator with. *)

val count : t -> int

val stddev : t -> float
(** Sample standard deviation (Bessel-corrected); [0.] for < 2 samples. *)

val min : t -> float

val max : t -> float

val median : t -> float

val summary : t -> string
(** One-line human-readable rendering: mean ± stddev [min, p50, p99, max]. *)
