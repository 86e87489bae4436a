(** E13 (extension) — rollback-recovery for a stateful middlebox, the
    checkpointing use case the paper motivates §5 with (its citation
    [37]: "Rollback-recovery for middleboxes").

    A Space-Saving flow sketch (a deterministic stateful NF) is fed a
    Zipf flow stream under {!Chkpt.Replay} protection. Sweeping the
    checkpoint interval exposes the classic dial: steady-state
    checkpoint work per input falls as the interval grows, while the
    replay needed after a crash grows. In every configuration the
    recovered state is {e bit-for-bit} the pre-crash state — the
    correctness property the Rc-flag checkpointer (sharing-preserving,
    no duplicates) makes possible for pointer-linked state. *)

type row = {
  interval : int;                (** Inputs between checkpoints. *)
  inputs : int;
  checkpoints : int;
  ckpt_nodes_per_input : float;  (** Steady-state protection cost. *)
  replayed_on_crash : int;
  recovered_exact : bool;
}

val run : telemetry:Telemetry.Registry.t -> row list
(** Intervals 1, 8, 64, 256; 2021 inputs (deliberately not a multiple
    of the intervals, so the crash lands mid-interval and the log is
    non-trivial). [telemetry] accumulates the [chkpt.*] counters
    across all intervals. *)

val print : row list -> unit
