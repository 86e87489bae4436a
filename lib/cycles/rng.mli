(** Deterministic pseudo-random number generation.

    All experiments in this repository must be reproducible bit-for-bit,
    so every stochastic component (traffic generators, fault injection,
    Maglev permutation seeds, ...) draws from an explicitly seeded
    generator rather than from the global [Random] state.

    The implementation is SplitMix64 (Steele et al., OOPSLA'14): tiny,
    fast, and statistically solid for simulation purposes. It runs on
    native [int64] arithmetic over an unboxed 8-byte state, so
    {!int}, {!float} and {!bool} allocate nothing per draw. *)

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

    The raw stream, a derived generator and a coin, each diffed by
    [test/test_cycles.ml] against a reference SplitMix64. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]
    by one draw. Use to give sub-components their own streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bool : t -> bool
(** Fair coin. *)
