(** Log-bucketed latency/size histogram.

    Buckets are exact for values below 8; above that each power-of-two
    octave is split into 8 linear sub-buckets, bounding the relative
    error of any quantile estimate by ~12.5 % (always >= the exact
    rank statistic, never below). {!observe} is O(1): one bucket
    fetch-and-add plus min/max CAS — safe and loss-free across OCaml
    domains. *)

type t

val make : charge:(unit -> unit) -> unit -> t
(** Used by {!Registry}. *)

val observe : t -> int -> unit
(** Record one sample (negative values clamp to 0). *)

val count : t -> int
val sum : t -> int
val min : t -> int
val max : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** [percentile t p] with rank ceil(p/100*n) — the {!Cycles.Stats}
    convention. 0 on an empty histogram; raises on p outside
    [0, 100]. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds [src]'s raw state (buckets, count, sum,
    min, max) into [into], leaving [src] untouched. The merge is exact
    — equivalent to [into] having observed [src]'s samples directly —
    so it is associative and commutative, and quantiles of a merged
    histogram are independent of how samples were partitioned across
    histograms (the per-shard telemetry reduction relies on this).
    Charges nothing. *)

(** {1 For tests}

    oracle: bucket layout and counts, which the histogram tests check the
    log-linear indexing by. *)

val bucket_counts : t -> int array
(** Snapshot of raw bucket occupancy (for tests: the bucket total must
    equal {!count} — a torn bucket would break that invariant). *)

val index : int -> int
(** Bucket index of a value (exposed for tests). *)

val bounds : int -> int * int
(** Inclusive value range covered by a bucket index. *)
