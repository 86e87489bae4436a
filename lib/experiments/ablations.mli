(** Ablations over the design choices DESIGN.md §5 calls out.

    - {b A1 — what the proxy costs buy}: per-call cycles of a full
      rref invocation (TLS + availability + policy + weak upgrade +
      indirect dispatch) vs a {e pinned} invocation that caches the
      strong reference — i.e. the price of keeping revocation and
      transparent recovery on the fast path.
    - {b A2 — cost-model attribution}: the Figure-2 overhead broken
      down by zeroing one micro-cost at a time (TLS lookup, atomic
      upgrade, indirect call), showing where the ~90 cycles live.
    - {b A3 — unwind-cost sensitivity}: recovery cost (E3) as a
      function of the modelled stack-unwind cost, substantiating that
      unwinding dominates the paper's 4389 cycles.
    - {b A4 — telemetry per-event cost}: virtual cycles charged per
      counter increment / histogram observation / span, on a charged
      registry vs the free default one — the observability tax the
      other experiments do {e not} pay. *)

type pin_row = { variant : string; cycles_per_call : float; revocable : bool }

type attribution_row = {
  zeroed : string;             (** Which micro-cost was set to 0. *)
  overhead_per_call : float;
  delta_vs_full : float;       (** full − this: that cost's share. *)
}

type unwind_row = { unwind_cost : int; recovery_total : float }

type tele_row = {
  tele_op : string;
  events : int;
  cycles_per_event : float;
}

type result = {
  pin : pin_row list;
  attribution : attribution_row list;
  unwind : unwind_row list;
  telemetry : tele_row list;
}

val run : telemetry:Telemetry.Registry.t -> result
(** A2's and A3's environments record into [telemetry]; A1's manager
    and A4's registries are their own. *)

val print : result -> unit
