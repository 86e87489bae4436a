(** Source NAT — the second realistic network function (alongside
    {!Maglev}).

    Outbound packets have their (source IP, source port) rewritten to
    (external IP, allocated port); the mapping is flow-stable, ports
    are recycled from a bounded range, and exhaustion drops the packet
    (the classic NAPT failure mode). An inverse table answers
    {!translate_back} for return traffic. *)

type t

(** {1 For tests}

    No experiment builds a NAT. It stays as a test fixture: the only
    stage that rewrites source columns in the column oracle
    ([test/test_soa.ml], [test/hdr_oracle.ml]), and the third owner of
    the flowcache invalidation hooks ([test/test_flowcache.ml]). *)

val create :
  clock:Cycles.Clock.t -> external_ip:int -> ?first_port:int -> ?last_port:int -> unit -> t
(** Port range defaults to \[10000, 60000\]. Raises [Invalid_argument]
    on an empty or out-of-range port range. *)

val stage : t -> Stage.t
(** The pipeline stage: a filter kernel rewriting every packet's
    source (IP, port), dropping packets when the port pool is
    exhausted. Declares {!on_mutate} as its invalidation hook. A
    column ([Stage.Cols]) stage: rewrites land in the batch's header
    plane and reach wire bytes at the next {!Batch.materialize}. *)

val translate : t -> Flow.t -> (int * int) option
(** The external (ip, port) an internal flow is (or would newly be)
    mapped to; [None] when the pool is exhausted. *)

val translate_back : t -> port:int -> Flow.t option
(** The internal flow behind an external port (return-path lookup). *)

val remove : t -> Flow.t -> bool
(** Expire one mapping (both directions), freeing its port; [false] if
    the flow had none. Fires {!on_mutate}. *)

val flush : t -> int
(** Expire every mapping and rewind the allocator to the start of the
    port range; returns how many mappings were dropped. Fires
    {!on_mutate}. *)

val on_mutate : t -> (unit -> unit) -> unit
(** Subscribe to table mutations that can change an existing flow's
    translation — {!remove} and {!flush}. Fresh allocations inside
    {!translate} do {e not} fire: a new mapping is flow-stable from its
    first packet, so memoised verdicts for other flows stay valid.
    Subscribers run in registration order; a verdict cache
    ({!Flowcache}) registers its invalidation here. *)

val active_mappings : t -> int
val ports_available : t -> int
val drops : t -> int
