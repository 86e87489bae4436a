(** Deterministic Safe-dialect program generator — the scaled corpus
    behind E21.

    The current hand-written examples top out at a few hundred
    statements (store-32); measuring incremental reverification needs
    programs 10–100× that with deep, wide call graphs, so that
    cold-vs-warm compares graph traversal rather than constant
    overhead. [generate] builds such programs from a {!spec} seeded
    like every other stochastic component in this repository
    ({!Cycles.Rng}, SplitMix64): equal specs yield byte-identical
    programs.

    Shape: [funcs] functions arranged in chains of [depth] (function
    [i] calls [i+1] within its chain, plus optional wider forward
    calls inside the chain), [main] calling each chain root. Calls
    only ever go forward within a chain, so the graph is acyclic and
    the transitive-caller cone of any function is bounded by its
    chain prefix ([< depth] functions) — editing 1% of bodies dirties
    a small, predictable fraction of all summaries. Each chain owns a
    channel/category pair and generated flows respect the bounds, so
    the pristine program verifies clean. *)

type spec = {
  funcs : int;      (** Number of functions (>= 1). *)
  depth : int;      (** Chain length; bounds every dirty cone. *)
  body_len : int;   (** Filler statements per body (>= 0). *)
  channels : int;   (** Channel/category count (>= 1). *)
  seed : int64;     (** SplitMix64 seed. *)
}

val default : spec
(** 500 functions, depth 10, 8 channels — the E21 workload. *)

val generate : spec -> Ast.program
(** Deterministic in [spec]; passes {!Ast.validate} and
    {!Ownership.check}, and verifies clean under every Safe-dialect
    strategy. Raises [Invalid_argument] on a degenerate spec. *)

val edit : seed:int64 -> edits:int -> spec -> Ast.program -> Ast.program * string list
(** [edit ~seed ~edits spec p] applies a deterministic edit script to
    [edits] distinct functions chosen by seeded shuffle, returning
    the edited program and the names of the edited functions.
    Mutations are a mix of value bumps (fingerprint changes, summary
    does not), body growth (summary changes, labels do not) and label
    retags (flows change — these can surface findings). The result
    stays valid; [p] must be a [generate]d program (mutations assume
    its body shape). *)

val transitive_callers : Ast.program -> string list -> string list
(** The dirty cone: the given functions plus every function that
    transitively calls one of them, sorted. [Summary_cache.reverify]
    must recompute at most this set. *)

(** {1 For tests}

    hook: the generated names the edit properties pick functions by. *)

val func_name : int -> string
