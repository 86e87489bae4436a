(** E12 (extension) — multi-core scaling of the isolated pipeline.

    The paper's testbed is an 8-core Xeon; NetBricks scales by running
    one run-to-completion pipeline per core with RSS spreading flows
    across them (shared-nothing). We reproduce that deployment shape
    on OCaml 5 domains: [cores] independent replicas — each with its
    own NIC, buffer pool, SFI manager and (per-core) simulated cache —
    process batches concurrently, and we measure {e wall-clock}
    throughput with isolation off and on.

    Expected shape: near-linear scaling (the replicas share nothing)
    and a per-core isolation cost that does not grow with core count —
    SFI's costs are all core-local (no shared tag tables or lock-based
    validation, unlike the conventional architectures).

    Unlike every other experiment this one is wall-clock based, so
    absolute numbers vary with the host; the claims are the ratios.
    Each replica also runs on its own virtual clock, so the rows carry
    the isolation cost in virtual cycles per batch as well: the
    deterministic form of the same claim. *)

type row = {
  cores : int;
  direct_batches_per_s : float;
  isolated_batches_per_s : float;
  isolation_cost : float;      (** 1 − isolated/direct. *)
  scaling : float;             (** isolated throughput ÷ 1-core isolated. *)
  direct_cycles_per_batch : float;
      (** Virtual cycles per batch (rx, pipeline, tx), averaged over the
          replicas: deterministic, unlike the wall columns. *)
  isolated_cycles_per_batch : float;
}

val run : ?cores_list:int list -> ?batches_per_core:int -> ?batch_size:int -> unit -> row list
(** Defaults: cores 1,2,4,8 {e capped at the host's}
    [Domain.recommended_domain_count] (oversubscribed replicas would
    measure the scheduler, not the architecture); 3000 batches of 32
    per core. *)

val print : row list -> unit
