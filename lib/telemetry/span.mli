(** Lightweight spans charged in virtual cycles.

    A span brackets a region of work: it reads {!Cycles.Clock.now} on
    entry and records the elapsed virtual cycles into its histogram on
    exit — including exits by exception (a panicking protection domain
    still closes its recovery span), and so all durations are
    deterministic and test-assertable. Spans nest naturally: the inner
    span's duration is a sub-interval of the outer's on the same
    monotone clock. *)

type t

val create : clock:Cycles.Clock.t -> Histogram.t -> t

val with_ : t -> (unit -> 'a) -> 'a
(** Run the thunk inside the span; the elapsed virtual cycles are
    observed even if the thunk raises. *)
