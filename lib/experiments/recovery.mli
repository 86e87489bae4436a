(** E3 — §3 text: "we measure the cost of recovery by simulating a
    panic in the null-filter and measuring the time it takes to catch
    it, clean up the old domain, and create a new one. The recovery
    took 4389 cycles on average."

    Each trial pushes a batch into an isolated pipeline whose filter
    panics, measures the catch cost (unwinding to the boundary +
    returning the error), then measures {!Netstack.Pipeline.recover_stage}
    (clear reference table, release heap, re-initialise, re-publish the
    proxy). *)

type result = {
  trials : int;
  catch_cycles : Cycles.Stats.t;     (** Panic -> error at the caller. *)
  recover_cycles : Cycles.Stats.t;   (** Table clear + heap release + re-init. *)
  total_mean : float;                (** Mean of (catch + recover). *)
}

val run : telemetry:Telemetry.Registry.t -> result
(** 1000 trials of a 32-packet batch. [telemetry] receives one
    [sfi.recovery_cycles] histogram entry and one
    [sfi.fault-injector.{panics,recoveries}] tick per trial. *)

val crash_loop : Env.t -> trials:int -> (int64 -> int64 -> unit) -> unit
(** The measurement behind {!run}: [trials] rounds, each pushing a
    32-packet batch into an isolated pipeline of one null filter that
    panics on every batch, then recovering the filter; [record catch
    recover] receives each round's two cycle counts. Raises [Failure]
    if a batch does not panic or a recovery fails. A3
    ({!Ablations}) reruns it under other unwind costs. *)

val print : result -> unit
