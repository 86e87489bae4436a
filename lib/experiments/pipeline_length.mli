(** E2 — §3 text: "We found this overhead to be independent of the
    pipeline length, and hence Figure 2 shows the results for the
    length of 5."

    Repeats the Figure-2 measurement at a fixed batch size for pipeline
    lengths 1..16 and reports the per-invocation overhead of each. *)

type row = {
  length : int;
  direct_cycles : float;
  isolated_cycles : float;
  overhead_per_call : float;
}

val run : telemetry:Telemetry.Registry.t -> row list
(** Lengths 1, 2, 4, 8, 16; batch 32. Every run records into
    [telemetry]. *)

val print : row list -> unit

(** {1 For tests}

    model: the figure [test/test_experiments.ml] bounds. *)

val max_deviation : row list -> float
(** Largest relative deviation of any row's overhead from the mean —
    the "independence" claim quantified. *)
