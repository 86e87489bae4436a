(** The metric registry: hierarchical dotted names
    ([sfi.null.invocations], [netstack.stage.maglev.drops]) resolved
    {e once} to handles; all recording afterwards is O(1) and
    lock-free. Registration (the cold path) is mutex-protected so
    concurrent domains can safely race to resolve the same name and
    obtain the same metric.

    A registry built with [~clock ~charge:true] charges the virtual
    clock a fixed, bounded cost per recorded event ([Atomic_rmw] for
    counters/gauges, [Alu 4 + Atomic_rmw] per histogram sample) — the
    ablation bench quantifies it. By default recording is free in
    virtual cycles: observing an experiment does not perturb it. *)

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type t

val create : ?clock:Cycles.Clock.t -> ?charge:bool -> unit -> t

val counter : t -> string -> Counter.t
(** Find-or-create. Raises [Invalid_argument] if the name is already
    registered as a different metric kind. *)

val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

val find : t -> string -> metric option

val metrics : t -> (string * metric) list
(** All registered metrics, sorted by name (the deterministic
    rendering order). *)

val merge : t list -> t
(** Fresh uncharged registry holding the merge of the list — the
    deterministic reduction step of the sharded engine. *)

(** {1 For tests}

    oracle: a sum over matching counters, the cross-check tests' reference. *)

val sum_matching : t -> prefix:string -> suffix:string -> int
(** Sum of every counter whose name matches [prefix*suffix] — e.g.
    [~prefix:"sfi." ~suffix:".invocations"] totals invocations across
    all domains. *)
