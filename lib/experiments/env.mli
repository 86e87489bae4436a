(** Shared experiment environment construction and measurement loops.

    Every environment owns {e one} virtual clock shared by the packet
    engine, the NIC, the SFI manager and any Maglev instance, so all
    costs land in the same simulated cache hierarchy — the property
    Figure 2 depends on. Environments are deterministic: same seed,
    same numbers. *)

type t = {
  clock : Cycles.Clock.t;
  pool : Netstack.Mempool.t;
  engine : Netstack.Engine.t;
  nic : Netstack.Nic.t;
  manager : Sfi.Manager.t;
  telemetry : Telemetry.Registry.t;
}

val make :
  ?flows:int ->
  ?model:Cycles.Cost_model.t ->
  telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** Seed 2017; default 1024 uniform flows. The pool always holds
    4096 buffers and every payload is 18 bytes (64-byte frames — the
    Figure-2 workload).
    [telemetry] is handed to the engine and the SFI manager, so every
    environment records the [netstack.*] / [sfi.*] metrics there. *)

val mean_batch_cycles :
  t -> Netstack.Pipeline.mode -> Netstack.Stage.t list -> batch:int -> float
(** Build a pipeline of [stages] in [mode] on [t]'s engine, run 20
    warm-up batches of [batch] packets, then return the mean cycles of
    100 [Pipeline.run] calls (rx/tx excluded from the measurement but
    executed, so their cache side effects are felt — as on real
    hardware). Raises [Failure] if any batch errors. *)

val maglev_backends : string array
(** The 8 synthetic backends every Maglev experiment uses. *)

val maglev_nf : t -> Netstack.Maglev.t * Netstack.Stage.t list
(** "The NetBricks implementation of the Maglev load balancer": header
    checksum verification, TTL decrement, then Maglev steering with
    GRE encapsulation to the chosen backend (the NSDI'16 data path). *)
