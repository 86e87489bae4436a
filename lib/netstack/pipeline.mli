(** The NetBricks-style run-to-completion pipeline, with selectable
    isolation architecture.

    A pipeline is an ordered list of {!Stage}s a batch flows through.
    The four modes are the paper's §3 comparison space:

    - [Direct] — plain function calls between stages, NetBricks'
      native mode (linear types guarantee exclusive batch access, but
      there is no fault containment).
    - [Isolated] — {e our} SFI: every stage lives in its own protection
      domain; the batch is handed across boundaries by ownership
      transfer through an rref invocation. Zero data movement, no
      per-access checks; the only cost is the ~90-cycle proxy call.
    - [Copying] — traditional private-heap SFI (XFI/NaCl-style): each
      boundary crossing deep-copies every packet into a buffer owned by
      the next domain.
    - [Tagged] — shared-heap SFI with per-dereference ownership-tag
      validation (Mao et al.): stages run against a [Tagged] {e view}
      of the engine ({!Engine.with_mode}), built once at pipeline
      creation — the shared engine's own mode is never mutated, so
      pipelines on different shards cannot race on it.

    A stage panic in [Isolated] mode is contained: the faulting
    domain is marked failed, the caller gets
    [Error (Domain_failed _)], the in-flight batch's buffers are
    reclaimed, and {!recover_stage} restores service. In the other
    modes a panic is fatal to the whole pipeline (which is precisely
    the paper's point) — it propagates as an exception.

    {2 Kernel fusion}

    Under [Isolated] mode the pipeline compiles maximal runs of
    adjacent fusible kernels ({!Stage.Rewrite}/{!Stage.Filter}) into
    fused groups; {!Stage.Opaque} stages are fusion barriers and form
    singleton groups. A fused group costs {e one} protection-domain
    crossing (one snapshot, one ownership transfer, one rref
    invocation) where one domain per stage would pay one per stage.
    Execution inside a group stays {e stage-major} (each member kernel
    traverses the whole batch before the next starts), so the stateful
    cache simulator observes the same line-touch order as a per-stage
    chain. The group's members share a fault domain:
    {!stage_domain}/{!revoke_stage}/{!recover_stage} on any member
    index resolve to the containing group's domain, and
    {!stage_reports} reports per domain (one entry per group). Per-stage
    skip flags ({!set_stage_skipped}) and per-stage telemetry are
    preserved member-by-member. A stage wrapped with {!Stage.barrier}
    keeps a domain, and a crossing, of its own.

    The calls modes ([Direct], [Tagged], [Copying]) do not fuse: every
    stage pays its own [Call] (and, in [Copying], its own deep copy),
    in one flat loop over the stages. *)

type mode =
  | Direct
  | Isolated of Sfi.Manager.t
  | Copying
  | Tagged

type t

val create :
  engine:Engine.t -> mode:mode -> ?flowcache:Flowcache.t -> Stage.t list -> t
(** Raises [Invalid_argument] on an empty stage list.

    [flowcache] arms the megaflow fast path: {!run} first replays every
    packet with a valid cache entry (serving or dropping it without
    invoking any stage), pushes only the misses through the chain as a
    compacted slow sub-batch, memoises each miss's fused outcome, and
    re-assembles the output in exact arrival order. The pipeline owns
    the cache's lifecycle invalidations — {!revoke_stage},
    {!recover_stage}, a {!set_stage_skipped} transition and a failed
    {!run} all invalidate, so a revoked/restarted/degraded chain never
    serves stale verdicts. Chain-{e state} staleness is wired by
    construction: the cache's invalidation is subscribed through every
    hook the stage descriptors declare ({!Stage.hooks}), so a stage
    built over a rule DB or backend table only has to declare the
    owner's mutation hook — a descriptor that omits its hooks is the
    staleness bug the equivalence suite's negative controls catch.
    Raises
    [Invalid_argument] in [Copying] mode, whose per-boundary buffer
    re-homing the slot-matched install path cannot support. *)

val fused_groups : t -> string list list
(** The execution plan: stage names grouped as executed, in pipeline
    order. Under [Isolated], one list per protection domain (the fused
    groups); in the calls modes one singleton per stage, each of which
    pays its own [Call]. *)

val run : t -> Batch.t -> (Batch.t, Sfi.Sfi_error.t) result
(** The single entry point: push one batch through all stages, with
    the behaviour the pipeline's [mode] selects (plain calls,
    ownership-transferring rref invocations, per-boundary deep copies,
    or per-dereference tag validation). On [Error] — only possible in
    [Isolated] mode — every buffer the batch brought in {e and} every
    buffer the failed stage allocated after entry has been released
    back to the pool (the manager reclaiming the failed domain's
    resources). *)

val recover_stage : t -> int -> (unit, string) result
(** [Isolated] only: recover the domain backing stage [i] (the
    containing fused group's domain) and re-publish its proxy, making
    the failure transparent to subsequent batches. Raises
    [Invalid_argument] in other modes. *)

val failed_stage : t -> int option
(** Index of the first stage whose domain is failed, if any (for a
    fused group: the group's first member). *)

val last_error_stage : t -> int option
(** The stage whose invocation failed during the most recent {!run}
    ([None] after a successful one). Unlike {!failed_stage} this also
    identifies failures that leave the domain [Running] — e.g. an rref
    revoked mid-batch — which a supervisor must still react to. *)

val stage_domain : t -> int -> Sfi.Pdomain.t
(** [Isolated] only: the protection domain backing stage [i] — the
    containing fused group's domain, shared by all its members — what a
    supervisor matches manager lifecycle events against. Raises
    [Invalid_argument] in other modes or on a bad index. *)

val revoke_stage : t -> int -> bool
(** [Isolated] only: revoke the proxy of the group containing stage
    [i], in place (a fault-injection hook — the next batch through
    fails with [Revoked] while the domain itself stays [Running]). The
    proxy is re-published by {!recover_stage}. *)

val set_stage_skipped : t -> int -> bool -> unit
(** Graceful degradation: a skipped stage is routed around — batches
    flow past it untouched — until un-skipped. Successful batches that
    bypassed at least one stage are counted separately
    ({!batches_degraded}, [netstack.pipeline.degraded_batches]). *)

val batches_ok : t -> int
(** Successful batches, including degraded ones. *)

val batches_failed : t -> int

type stage_report = {
  sr_name : string;
  sr_cycles : int64;    (** Cycles attributed to the stage's domain. *)
  sr_entries : int;
  sr_panics : int;
  sr_generation : int;  (** Recoveries the stage has been through. *)
}

val stage_reports : t -> stage_report list
(** [Isolated] only: per-domain CPU and fault accounting, in pipeline
    order — one entry per fused group (the domain is the unit of
    isolation, so it is also the unit of accounting); its name joins
    the member stage names with ["+"]. Raises [Invalid_argument] for
    other modes. *)

(** {1 For tests}

    oracle: the count the fusion tests check degradation by. *)

val batches_degraded : t -> int
(** Successful batches that bypassed at least one skipped stage. *)
