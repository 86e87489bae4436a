(** E17: the megaflow flow-cache fast path — hit rate vs sustained
    Mpps, cached vs uncached, over a heavy-tailed Zipf flow mix.

    The NF under test is deliberately slow-path-heavy: a linear-scan
    5-tuple rule DB (~128 rules, every accepted packet walks the whole
    table) in front of the Figure-2 Maglev/GRE chain. The per-queue
    {!Netstack.Flowcache} memoises the fused verdict of that whole
    chain, so the experiment measures exactly what OVS megaflows buy:
    first packet pays the full classification, the rest of the flow
    replays the memoised rewrite.

    Two sections: a deterministic one (virtual counters only —
    byte-identical for any shard count, and the cached/uncached
    serve/drop ledgers must agree exactly) and a wall-clock one
    (sustained Mpps with the traffic-generator cost backed out). *)

(** {2 Deterministic section} *)

val default_stats_queues : int

type stats_pair = {
  sp_cached : Netstack.Shard.result;
  sp_uncached : Netstack.Shard.result;
}

val run_stats_pair : shards:int -> stats_pair

val print_stats_pair : stats_pair -> unit

(** {2 Wall-clock section} *)

type wall_variant = {
  wv_packets : int;       (** Packets received during the timed window. *)
  wv_packets_out : int;   (** Packets transmitted (rest were dropped). *)
  wv_wall_s : float;
  wv_mpps : float;        (** End-to-end: rx craft + pipeline + tx. *)
  wv_pipe_mpps : float;   (** Generator cost subtracted. *)
  wv_hit_rate : float;    (** hits / lookups; 0 for the uncached run. *)
}

type wall_result = {
  w_flows : int;
  w_exponent : float;
  w_capacity : int;
  w_batch_size : int;
  w_rules : int;
  w_gen_mpps : float;     (** The rx-only loop alone. *)
  w_uncached : wall_variant;
  w_cached : wall_variant;
  w_speedup : float;      (** End-to-end Mpps ratio. *)
  w_pipe_speedup : float; (** Pipeline-only Mpps ratio — the headline. *)
}

val run_wall : unit -> wall_result
(** A single queue over a million-flow Zipf mix (s = 1.2), 131 072
    cache entries, batch 64, 768 rules: 1000 warm-up batches, then
    12 000 timed batches per variant. *)

val print_wall : wall_result -> unit

(** {1 For tests}

    model: a reduced deterministic run (the shard-invariance test in
    [test/test_flowcache.ml]), the per-queue chain whose allocation
    [test/test_fusion.ml] bounds, and the rule table
    [test/test_ruledb.ml] checks {!Netstack.Ruledb.classify} against
    its oracle on. *)

val wall_rule_pad : int
(** 760: the wall-clock section's pad, for a 768-rule table. *)

val rule_db : clock:Cycles.Clock.t -> ?rule_pad:int -> unit -> Netstack.Ruledb.t
(** The E17 rule table: [rule_pad] (default 120) accept rules that no
    client of 10.0.0.0/16 matches, so every packet scans past them,
    then 8 rules dropping source-port slices of 1024 ports from 2000
    every 6000. *)

val run_stats :
  ?queues:int ->
  ?rounds:int ->
  ?batch_size:int ->
  ?flows:int ->
  ?capacity:int ->
  ?ttl_cycles:int64 ->
  ?seed:int64 ->
  cached:bool ->
  shards:int ->
  unit ->
  Netstack.Shard.result
(** One sharded run over the Zipf plan, with or without per-queue
    flow caches. Defaults: 4 queues, 400 rounds, batch 32, 20k flows,
    s = 1.2, 256-entry caches, 150k-cycle TTL (both small enough that
    LRU and TTL evictions actually occur in the golden), seed 2017. *)

val make_stages :
  clock:Cycles.Clock.t -> ?rule_pad:int -> unit -> Netstack.Stage.t list
(** Fresh per-queue stage state ({!rule_db} + Maglev table). The stage
    descriptors declare both state owners' mutation hooks, so a
    {!Netstack.Pipeline} built with a flowcache wires the cache's
    invalidation automatically. [rule_pad] sizes the never-matching
    prefix of the rule table (default 120; the wall-clock section
    uses 760). *)
