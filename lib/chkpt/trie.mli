(** The firewall rule database of Figure 3: a binary trie over IPv4
    destination prefixes whose leaves point to {e shared} rule objects
    through [Rc].

    "Multiple leaves of the trie can point to the same rule, causing
    this rule to be encountered multiple times during pointer
    traversal, potentially leading to redundant copies of the rule" —
    this structure is the checkpointing experiments' subject. Rules
    carry a mutable hit counter so snapshots/rollbacks have observable
    state to preserve. *)

type action = Allow | Deny

type rule = {
  rule_id : int;
  action : action;
  description : string;
  mutable hits : int;
}

type shared_rule = rule Linear.Rc.t

val make_rule : id:int -> ?description:string -> action -> shared_rule

type t

val create : unit -> t

val insert : t -> prefix:int32 -> len:int -> rule:shared_rule -> unit
(** Map the [len]-bit prefix of [prefix] to [rule] (the leaf takes its
    own strong handle — this is where aliasing enters the structure).
    [len] must be in [\[0, 32\]]; a later insert on the same prefix
    replaces the rule. *)

val lookup : t -> int32 -> rule option
(** Longest-prefix match; bumps the matched rule's [hits]. *)

val node_count : t -> int
val leaf_count : t -> int
(** Leaves = nodes holding a rule handle. *)

val distinct_rules : t -> int
(** Number of distinct rule cells reachable (< [leaf_count] when rules
    are shared). *)

val total_hits : t -> int
(** Sum of [hits] over {e distinct} rules. *)

val sharing_preserved : t -> bool
(** [true] iff any two leaves with the same [rule_id] alias the same
    cell — holds for the original and for [Addr_set]/[Rc_flag] copies,
    fails for [Naive] copies of shared databases. *)

val render : t -> string
(** Deterministic structural dump: one line per node in preorder, cells
    numbered in first-visit order. Captures structure, rule content and
    leaf aliasing while ignoring tracking metadata and allocation-order
    cell ids — two tries render equal iff they are observationally
    identical. The byte-identity oracle for the incremental engine's
    tests. *)

(** {2 Incremental tracking}

    The trie is uniquely owned, so every structural mutation passes
    through {!insert}: stamping the walked root path with a
    generation is a {e complete} dirty record (DESIGN.md §11). Hit
    bumps from {!lookup} dirty only the rule {e cell}, which the sync
    reconciles in place — a steady-state lookup-heavy trie stays
    structurally clean and syncs in O(dirty cells). *)

val tracker : t -> t Incr.tracker
(** Attach dirty tracking and a shadow snapshot to the trie (write
    barriers switch on from here; at most one tracker per trie —
    attaching twice raises [Invalid_argument]). [sync] brings the
    shadow up to date in one walk touching only dirty regions; [restore] rolls
    the live trie back to the last sync, also in O(dirty). Restored
    state is byte-identical under {!render}, including leaf aliasing. *)

val desc : t Checkpointable.t
(** The derived descriptor (what the paper's compiler plugin would
    emit for this type). *)

(** {1 For tests}

    oracle: a lookup that stamps nothing, so a probe does not perturb
    the state under test, and the stamp count the dirty-tracking
    property bounds [dirty_nodes] by. *)

val lookup_quiet : t -> int32 -> rule option
(** {!lookup} without mutating [hits]. *)

val stamped_since_sync : t -> int
(** Distinct nodes stamped dirty since the last sync — an upper bound
    (over-approximation) on the nodes any following incremental pass
    may rebuild; the qcheck suite checks [dirty_nodes <= stamped]. *)
