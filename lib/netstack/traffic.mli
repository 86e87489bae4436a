(** Synthetic traffic generation.

    The paper's testbed feeds NetBricks from DPDK with line-rate
    traffic; we have no NIC, so workloads are synthesised
    deterministically. Three flow patterns cover the experiments:
    a single flow (pure hot-cache microbenchmarks), uniform random
    flows (Figure 2's null-filter pipelines) and a Zipf mix (realistic
    load-balancer traffic with elephant flows, used in the Maglev and
    checkpointing experiments). *)

type pattern =
  | Single_flow of Flow.t
  | Uniform of { flows : int }
      (** Each packet picks one of [flows] synthetic flows uniformly. *)
  | Zipf of { flows : int; exponent : float }
      (** Flow popularity follows a Zipf law with the given exponent. *)

type plan
(** The immutable half of a generator: pattern parameters plus the
    Zipf CDF. Million-flow Zipf populations cost O(flows) float work to
    set up; queue replicas {!of_plan} one shared plan so a sharded
    engine builds the CDF once (the read-only array is safe across
    domains), and each queue's drawing stream stays a function of its
    own RNG alone. *)

type t

val plan : ?payload_bytes:int -> ?protocol:Flow.protocol -> pattern -> plan
(** [payload_bytes] defaults to 18, which yields 64-byte minimum-size
    Ethernet frames (14 eth + 20 ip + 8 udp + 18 + 4 FCS equivalent);
    [protocol] defaults to [Udp]. Raises [Invalid_argument] on a
    non-positive flow count or Zipf exponent. For tests:
    [?protocol], which the TCP column tests set. *)

val of_plan : rng:Cycles.Rng.t -> plan -> t

val create : rng:Cycles.Rng.t -> ?payload_bytes:int -> pattern -> t
(** [create ~rng ?payload_bytes pattern] is
    [of_plan ~rng (plan ?payload_bytes pattern)]. *)

val next_flow : t -> Flow.t
(** Draw the flow of the next packet. *)

val payload_bytes : t -> int

val flow_of_index : t -> int -> Flow.t
(** The [i]-th synthetic flow of the pattern's population (for tests
    and for pre-populating connection tables). *)

val population : t -> int
(** Number of distinct flows the pattern can produce. *)

(** {1 For tests}

    oracle: the plan's flow of a draw index and its Zipf weights, which the
    flowcache distribution tests check draws against. *)

val plan_flow_of_index : plan -> int -> Flow.t

val expected_share : plan -> int -> float
(** The probability the generator assigns to flow [i] — uniform
    [1/flows], the exact Zipf mass [i{^ -s}/H], or 1 for a single
    flow. Shares sum to 1; the statistical tail tests compare empirical
    frequencies against this. *)
