(** Automatic checkpointing of arbitrary pointer-linked data structures
    — the paper's §5 library.

    A ['a t] is a {e descriptor} of the type ['a]: how to traverse it
    and deep-copy it. Descriptors are built inductively from
    combinators, playing the role of the paper's compiler plugin that
    "inductively generates an implementation of this trait for types
    comprised of scalar values and references to other checkpointable
    types". The {!rc} combinator is the custom implementation for
    reference-counted (i.e. aliased) nodes.

    Copying strategy is where the paper's point lives:

    - {!Naive} — traverse unique references blindly {e and} treat [Rc]
      like any other edge: a node reachable through two aliases is
      copied twice (Figure 3b — the snapshot is {e wrong}, not just
      slow: restoring it silently un-shares state).
    - {!Addr_set} — the conventional-language fix: a hash table of
      visited node identities, consulted for {e every} shared node
      (cost: one lookup per encounter, counted in {!stats}).
    - {!Rc_flag} — the paper's approach: because aliasing is explicit
      in the type ([rc] edges and nowhere else), only [Rc] wrappers
      participate in deduplication, via an O(1) generation-stamped
      scratch word in the cell itself ("sets an internal flag the
      first time checkpoint() is called") — zero hash lookups, and
      unique references are traversed with no checks at all.

    All strategies produce a fully independent copy; with [Addr_set]
    and [Rc_flag] the copy preserves the original's sharing
    structure. *)

type 'a t

(** {2 Combinators (the "derive")} *)

val int : int t
val bool : bool t
val string : string t

val list : 'a t -> 'a list t
val option : 'a t -> 'a option t
val pair : 'a t -> 'b t -> ('a * 'b) t

val mref : 'a t -> 'a ref t
(** A uniquely-owned mutable cell: copied without any visited check —
    the safe-Rust default. *)

val immutable : 'a t
(** A value the program never mutates (what Rust derives for [Copy] /
    frozen types): shared into the copy as-is. Using it on mutable
    state silently aliases the snapshot — the caller asserts
    immutability, exactly as a [derive] annotation would. *)

val iso : inject:('a -> 'b) -> project:('b -> 'a) -> 'b t -> 'a t
(** Derive a descriptor for ['a] through an isomorphism with ['b]
    (records/variants are checkpointed via their component tuples). *)

val rc : 'a t -> 'a Linear.Rc.t t
(** The custom implementation for explicitly-aliased nodes. Copies of
    the same cell are shared in the output. *)

val delay : (unit -> 'a t) -> 'a t
(** For recursive types: the thunk is forced on first use. *)

(** {2 Checkpointing} *)

type strategy = Naive | Addr_set | Rc_flag

type stats = {
  nodes : int;           (** Descriptor nodes visited (or, for an
                             incremental pass, covered: dirty + reused). *)
  rc_encounters : int;   (** Times an [rc] edge was traversed. *)
  rc_copies : int;       (** Distinct cell copies made. *)
  rc_dedup_hits : int;   (** Encounters resolved to an existing copy. *)
  hash_lookups : int;    (** Visited-set probes ([Addr_set] only; the
                             incremental engine's cell-map probes). *)
  dirty_nodes : int;     (** Nodes actually (re)copied. A full traversal
                             copies everything, so here this equals
                             [nodes]; {!Incr} passes report only the
                             mutated region. *)
  reused_nodes : int;    (** Nodes structurally shared from the previous
                             snapshot instead of copied (always 0 for a
                             full traversal). *)
}

val checkpoint : ?strategy:strategy -> 'a t -> 'a -> 'a * stats
(** [checkpoint desc v] returns an independent deep copy and the
    traversal statistics. Default strategy: [Rc_flag].

    Under [Naive], a cell reachable [k] times yields [k] copies
    ([rc_copies] counts them all, [rc_dedup_hits] stays 0). *)

(** {1 For tests}

    model, oracle: §5's combinators for the other explicitly-shared
    types, the array container, and the predicate [test/test_chkpt.ml] checks copy
    counts with. No experiment checkpoints these shapes; the tests pin
    each combinator's copy semantics. *)

val array : 'a t -> 'a array t

val arc : 'a t -> 'a Linear.Arc.t t
(** "[Arc] can be extended similarly" (§5). Behaves like {!rc} under
    every strategy, deduplicating by cell id within one checkpoint
    (Arc has no scratch word to stamp). One checkpoint runs on one
    domain; the cell's counts are atomic, so other domains may clone
    and drop handles meanwhile. *)

val weak : 'a t -> 'a Linear.Rc.weak t
(** §5's "external pointers": "such pointers, which do not own the data
    they point to, must be handled in a special way during pointer
    traversal". The special way: a weak edge never causes a copy. If
    its target cell was already copied earlier in this traversal, the
    copy's weak points at the {e copied} cell (topology preserved); if
    the target is dead, or lies outside the traversed graph, the copy
    gets a dangling weak — snapshots never resurrect state they do not
    own. Forward references only: a weak edge reached {e before} its
    owning [rc] edge also comes out dangling (back-edges into cells
    still under construction cannot be resolved by a one-pass
    traversal). *)

val mutex : 'a t -> 'a Linear.Mutex_cell.t t
(** §2: dynamically-enforced single ownership ([Mutex<T>]) "is explicit
    in the object's type signature, which enables us to handle such
    objects in a special way as described in section 5". The special
    handling: the checkpointer takes the lock, copies the content
    consistently, and produces a fresh unlocked cell — so a concurrent
    writer can never tear the snapshot. *)

val copies_expected : stats -> aliases:int -> distinct:int -> bool
(** [true] iff the traversal met [aliases] rc edges and made exactly
    [distinct] copies, resolving the rest by deduplication (test
    helper for the Figure-3 scenario). *)
