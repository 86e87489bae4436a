(** The Maglev consistent-hashing load balancer (Eisenbud et al.,
    NSDI'16) — the "realistic, but light-weight, network function"
    Figure 2 compares the isolation overhead against.

    Implements the real algorithm: per-backend (offset, skip)
    permutations over a prime-sized lookup table, populated round-robin
    so that backends own near-equal shares and most entries survive
    backend churn; plus a flow-affinity connection table consulted
    before the hash lookup, as in the paper's design.

    Every per-packet step charges the virtual clock: 5-tuple hashing,
    a connection-table probe, and on a miss a lookup-table access plus
    connection-table insert. The lookup table (65537 × 4 B ≈ 256 KiB)
    deliberately exceeds L2, so steering cost is dominated by L3
    traffic — which is what makes Maglev "light-weight but realistic". *)

type t

val create :
  clock:Cycles.Clock.t -> backends:string array -> ?table_size:int -> unit -> t
(** [table_size] defaults to 65537 (prime, as the Maglev paper
    requires). Raises [Invalid_argument] on an empty backend list, a
    non-positive table size, or more backends than table entries.
    For tests: [?table_size], which small-table tests shrink. *)

val backend_count : t -> int

val lookup_keyed : t -> Flow.t -> key:Flow.Key.t -> int
(** Steer a flow: connection table first, then the consistent-hash
    table (recording the decision for flow affinity). Returns the
    backend index. The caller supplies the flow's packed key (the
    batch's flow memo is seeded with it at NIC rx), so the steady-state
    data path re-hashes nothing; the cost model still prices the hash
    the hardware performs. [key] must equal [Flow.Key.of_flow flow]. *)

val connection_count : t -> int

val on_change : t -> (unit -> unit) -> unit
(** Subscribe to steering-state changes ({!set_backends},
    {!flush_connections}); subscribers run in registration order. A
    verdict cache ({!Flowcache}) registers its invalidation here. *)

(** {1 For tests}

    model, hook: table inspection and the keyless lookup behind the
    tests of Maglev's balance, disruption and affinity claims, and the
    backend-set edits that are the only code firing {!on_change}, the
    hook the flowcache invalidation model depends on. *)

val lookup : t -> Flow.t -> int
(** {!lookup_keyed} with the key computed here. *)

val table_size : t -> int

val lookup_no_track : t -> Flow.t -> int
(** Pure consistent-hash decision, no connection-table involvement. *)

val table_entry : t -> int -> int
(** Direct table inspection (tests). *)

val set_backends : t -> string array -> int
(** Rebuild the table for a new backend set, {e preserving} existing
    connection affinities. Returns the number of lookup-table entries
    that changed — Maglev's "minimal disruption" metric. Fires
    {!on_change}. *)

val flush_connections : t -> int
(** Drop every recorded flow affinity (so subsequent lookups re-steer
    through the current table) and return how many were dropped. Fires
    {!on_change} — unlike {!set_backends} alone, this {e does} change
    the verdict of already-steered flows, so cached fast paths must be
    invalidated. *)

val imbalance : t -> float
(** (max - min) / mean of per-backend table shares; the Maglev paper's
    load-balance quality measure. *)
