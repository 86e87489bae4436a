(** Pipeline stages as kernel descriptors.

    A stage no longer carries an opaque batch closure; it {e declares}
    its kernel shape, and the {!Pipeline} compiles with it:

    - {!Rewrite} — a pure per-packet header rewrite: touches only the
      packet (and the batch's header plane) at its own index, never
      drops, never reorders. Fusible.
    - {!Filter} — a per-packet classify/drop decision with the same
      locality contract; [false] drops the packet (the pipeline
      releases its buffer). Fusible.
    - {!Opaque} — an arbitrary batch transformer (stateful NFs,
      fault injectors, anything that needs the whole batch). Never
      fused; acts as a fusion barrier.

    Under [Isolated] mode, runs of adjacent fusible kernels are
    compiled into a single fused group: one protection domain and one
    crossing per group instead of per stage ({!barrier} opts a stage
    out).

    [hooks] are the stage's invalidation points: each element is the
    subscription registrar of a piece of mutable state the stage's
    verdicts depend on (e.g. [Ruledb.on_mutate db],
    [Maglev.on_change mg]). A pipeline built with a {!Flowcache}
    subscribes the cache's invalidation through every declared hook, so
    stage authors wire staleness by construction instead of by
    call-site convention. *)

type kernel =
  | Rewrite of (Engine.t -> Batch.t -> int -> Packet.t -> unit)
      (** [f engine batch i p]: rewrite packet [p] (= index [i]) in
          place. Column writers ([Batch.set_col_*]) drop the flow
          memo themselves; a body that writes header bytes directly
          must call {!Batch.invalidate_hdr}. *)
  | Filter of (Engine.t -> Batch.t -> int -> Packet.t -> bool)
      (** Like {!Rewrite}, but returning [false] drops the packet. The
          index is the {e pre-compaction} index: header-plane
          operations against [i] are valid inside the callback. *)
  | Opaque of (Engine.t -> Batch.t -> Batch.t)
      (** The whole batch, in and out — the pre-descriptor contract. *)

type hook = (unit -> unit) -> unit
(** A subscription registrar: [hook f] arranges for [f] to run on every
    mutation of the state behind the hook. *)

type access =
  | Cols
      (** The body reads/writes header fields only through the batch's
          header-plane columns ({!Batch.col_ttl} ...) and its flow
          memo ({!Batch.flow}); it never touches wire bytes. The
          pipeline may defer byte writeback across any run of [Cols]
          stages. *)
  | Bytes
      (** The body may read or write raw packet bytes; the pipeline
          materializes the header plane before running it. The safe
          default — a [Bytes] marking is never wrong, only slower. *)

type t = {
  name : string;
  kernel : kernel;
  hooks : hook list;
  access : access;
}

val rewrite :
  name:string ->
  ?hooks:hook list ->
  ?access:access ->
  (Engine.t -> Batch.t -> int -> Packet.t -> unit) ->
  t

val filter :
  name:string ->
  ?hooks:hook list ->
  ?access:access ->
  (Engine.t -> Batch.t -> int -> Packet.t -> bool) ->
  t

val opaque :
  name:string -> ?hooks:hook list -> (Engine.t -> Batch.t -> Batch.t) -> t

val name : t -> string
val kernel : t -> kernel
val hooks : t -> hook list

val access : t -> access
(** {!Opaque} kernels are always [Bytes]. *)

val fusible : t -> bool

val process : t -> Engine.t -> Batch.t -> Batch.t
(** Run the stage standalone over one batch with exact pre-fusion
    semantics: [Rewrite]/[Filter] kernels traverse once, filter drops
    are released to the engine's pool in encounter order. *)

val barrier : t -> t
(** The same stage as an {!Opaque} kernel running {!process}, with the
    same name and hooks: a fusion barrier. A chain of barriers keeps
    one protection domain, and one crossing, per stage under
    [Isolated] — what per-boundary cost measurements ask for. In the
    calls modes it runs exactly as the original stage. *)

(** {1 For tests}

    hook: replacing a stage's hooks: [with_hooks []] severs it from cache
    invalidation, the negative control of the flowcache tests. *)

val with_hooks : hook list -> t -> t
(** Replace the declared hooks (e.g. [with_hooks []] severs a stage
    from cache invalidation — used by negative-control tests). *)
