(** A priority rule database: the classic linear-scan 5-tuple firewall.

    Rules match optional source/destination IPv4 prefixes, port ranges
    and a protocol; the first matching rule (lowest index) decides, the
    default action applies otherwise. The scan is {e modelled} as
    O(rules) per packet with per-rule virtual-cycle charges — this is
    the stage whose cost the megaflow fast path ({!Flowcache})
    amortises to one cached lookup. It is {e implemented} as a
    first-match search over the table compiled to packed int columns,
    followed by one batched charge of the rules the modelled scan
    examined: the same cycles, and the same cache lines touched in the
    same order (DESIGN.md §10).

    Every structural edit ({!add}, {!remove}, {!set_default}) fires the
    {!on_mutate} subscribers. A pipeline that caches verdicts registers
    its cache's {!Flowcache.invalidate} there; forgetting to would let
    the cache serve verdicts from the pre-edit ruleset (the failure
    mode the equivalence suite's broken-hook property demonstrates). *)

type action = Accept | Drop

type rule = {
  r_src : (int32 * int) option;  (** (prefix, bits); [bits] in \[0,32\]. *)
  r_dst : (int32 * int) option;
  r_src_port : (int * int) option;  (** Inclusive range. *)
  r_dst_port : (int * int) option;
  r_proto : Flow.protocol option;
  r_action : action;
}

val rule :
  ?src:int32 * int ->
  ?dst:int32 * int ->
  ?src_port:int * int ->
  ?dst_port:int * int ->
  ?proto:Flow.protocol ->
  action ->
  rule
(** Omitted fields are wildcards; [rule Drop] matches everything.
    For tests: [?dst], [?dst_port] and [?proto], which the E17 table
    never sets and the oracle tests draw. *)

type t

val create : clock:Cycles.Clock.t -> ?default:action -> unit -> t
(** [default] is [Accept] (drop-list semantics). For tests:
    [?default]. *)

val add : t -> rule -> unit
(** Append at the lowest priority (end of scan order). Raises
    [Invalid_argument] on malformed prefixes or port ranges. Fires
    {!on_mutate}. *)

val remove : t -> int -> unit
(** Remove the rule at [index] (scan order). Raises
    [Invalid_argument] out of range. Fires {!on_mutate}. *)

val rule_count : t -> int

val stage : t -> Stage.t
(** Pipeline stage ["ruledb"]: classifies each packet from the batch's
    tuple columns and frees the ones the database drops. *)

(** {1 For tests}

    oracle: one flow's verdict, which [test/test_ruledb.ml] diffs against the
    per-rule scan of [test/ruledb_oracle.ml], and the default verdict,
    which the oracle tests edit and read back. *)

val classify : t -> Flow.t -> action
(** First match, charging the clock per rule examined plus the
    rule-table memory traffic, exactly as {!stage} does per packet.
    Allocates nothing. *)

val set_default : t -> action -> unit
(** Fires {!on_mutate}. *)

val default_action : t -> action
