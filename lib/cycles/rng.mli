(** Deterministic pseudo-random number generation.

    All experiments in this repository must be reproducible bit-for-bit,
    so every stochastic component (traffic generators, fault injection,
    Maglev permutation seeds, ...) draws from an explicitly seeded
    generator rather than from the global [Random] state.

    The implementation is SplitMix64 (Steele et al., OOPSLA'14): tiny,
    fast, and statistically solid for simulation purposes. It runs on
    native [int64] arithmetic over an unboxed 8-byte state, so
    {!int} and {!float} allocate nothing per draw. *)

type t
(** A mutable generator. Generators are cheap; create one per
    independent stream so that adding draws to one component does not
    perturb another. *)

val create : int64 -> t
(** [create seed] returns a fresh generator for [seed]. Equal seeds
    yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

(** {1 For tests}

    oracle: the raw stream, which [test/test_cycles.ml] diffs against a
    reference SplitMix64. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)
