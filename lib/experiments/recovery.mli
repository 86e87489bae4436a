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

val run : ?trials:int -> ?batch:int -> ?telemetry:Telemetry.Registry.t -> unit -> result
(** Default: 1000 trials, batch 32. [telemetry] (default global)
    receives one [sfi.recovery_cycles] histogram entry and one
    [sfi.fault-injector.{panics,recoveries}] tick per trial. For tests:
    [?batch] and [?telemetry], which the cross-check tests set. *)

val print : result -> unit
