(** The megaflow fast path: a per-queue exact-match flow cache.

    First packet of a flow walks the full stage chain (the {e slow
    path}); the composed outcome — serve with a fused header rewrite,
    or drop — is memoised here keyed on the packed {!Flow.Key}.
    Subsequent packets replay the fused verdict without invoking a
    single stage: the OVS/DOCA megaflow model, with the degenerate
    exact-match mask.

    {2 Soundness}

    An entry is not trusted on key match alone. It stores a {e guard}:
    the first [min guard_bytes len] input bytes of the packet that took
    the slow path. A lookup only hits when the incoming packet's prefix
    is byte-identical to the guard — so 62-bit key collisions, TTL
    variation, or any header difference the key doesn't see degrade to
    a miss, never to a wrong verdict. Replay then applies a {e prefix
    patch}: the payload tail is shifted by the memoised length delta
    and the memoised output prefix is blitted over the front. For a
    stage chain that is a deterministic function of the input bytes and
    of per-flow-stable state (Maglev affinity), the replayed packet is
    byte-identical to what the chain would have produced.

    Chain-state mutations that break per-flow stability (rule-DB
    edits, backend churn, stage
    revocation/restart/degradation) must call {!invalidate}: a single
    O(1) epoch bump that lazily retires every entry. {!Pipeline}
    fires it on its own lifecycle events; owners of stage state
    register it through their mutation hooks ([Ruledb.on_mutate],
    [Maglev.on_change]).

    Lifecycle is capacity-bounded LRU with a hard virtual-cycle TTL;
    every transition is counted both in plain {!stats} and, when a
    registry is supplied, under [netstack.flowcache.*]. The conservation
    law [lookups = hits + misses] is maintained by construction. *)

type t

val create :
  clock:Cycles.Clock.t ->
  ?telemetry:Telemetry.Registry.t ->
  ?guard_bytes:int ->
  capacity:int ->
  ttl_cycles:int64 ->
  unit ->
  t
(** Raises [Invalid_argument] if [capacity <= 0], [ttl_cycles <= 0] or
    [guard_bytes <= 0]. [telemetry] mirrors every counter under
    [netstack.flowcache.*] so sharded runs merge them like any other
    netstack metric. For tests:
    [?guard_bytes]. *)

type outcome =
  | Hit_serve  (** Replay already applied; the packet is ready to tx. *)
  | Hit_drop   (** Memoised drop; the caller owns the buffer release. *)
  | Miss
      (** No entry, stale epoch, expired TTL, or guard mismatch — the
          packet must take the slow path (and the caller should
          {!install_serve}/{!install_drop} the outcome). *)

val access : t -> engine:Engine.t -> key:Flow.Key.t -> Packet.t -> outcome
(** One fast-path lookup: probe, epoch/TTL check, guard compare, and on
    a serve hit the in-place prefix-patch replay. Memory traffic is
    charged through [engine] ({!Engine.touch_packet}), so a Tagged pipeline's replay pays
    its per-dereference tag validation exactly like a stage would. *)

val guard_of : t -> Packet.t -> string
(** The guard the caller must capture {e before} running the slow
    path: the packet's first [min guard_bytes len] bytes. *)

val install_serve :
  t -> key:Flow.Key.t -> guard:string -> out_prefix:string -> delta:int -> unit
(** Memoise a serve verdict: [guard] is {!guard_of} the input packet,
    [delta] the length change the chain applied, [out_prefix] the first
    [String.length guard + delta] bytes of the output packet. Raises
    [Invalid_argument] if the lengths disagree. Re-installing an
    existing key updates the entry in place (fresh TTL and epoch). At
    capacity the least-recently-used entry is evicted first. *)

val install_drop : t -> key:Flow.Key.t -> guard:string -> unit

val invalidate : t -> unit
(** O(1) staleness barrier: bump the epoch; every existing entry
    misses from now on and is reclaimed lazily (counted as a stale
    eviction) when next probed or when LRU pressure reaches it. *)

type stats = {
  lookups : int;
  hits : int;
  misses : int;        (** Always [lookups - hits]. *)
  installs : int;
  evictions_lru : int;
  evictions_ttl : int;
  evictions_stale : int;
  invalidations : int;
  served_fast : int;   (** Serve-hit replays ([hits = served_fast + dropped_fast]). *)
  dropped_fast : int;
}

val stats : t -> stats

(** {1 For tests}

    oracle: the cache state the model-based tests check against their
    reference model. *)

val epoch : t -> int

val length : t -> int
(** Entries resident, including not-yet-reclaimed stale ones; never
    exceeds {!capacity}. *)

val capacity : t -> int

val lru_keys : t -> Flow.Key.t list
(** Resident keys, most-recently-used first (tests: eviction-order
    oracle against a reference model). *)
