(** Incremental summary-cached verification — O(changed summaries)
    reverification after an edit.

    {!Summary} already exploits the paper's §4 observation (no
    aliasing ⇒ a function's label effect is confined to its
    arguments) to verify compositionally, but every verification
    still rebuilds all summaries. This module caches them across
    verifications of {e different} program versions, keyed on an
    FNV-64 fingerprint of the function's body AST {e plus the
    fingerprints of its callees' summaries} — so an edit invalidates
    exactly the dirty cone above it (the edited function and its
    transitive callers), and [reverify] recomputes only those
    summaries plus the always-rerun main pass, which grounds again only
    the calls in [main] whose callee summary, arguments or pc changed
    ({!Summary.check_main}).

    Why the fingerprint is a complete invalidation record: in the
    safe dialect a summary is a pure function of (body AST, callee
    summaries) — no aliasing means no hidden state a summary could
    depend on — and both inputs are covered directly. Keying on the
    callees' {e summary} fingerprints (not their content) also gives
    the build-system "early cutoff": an edit whose recomputed summary
    comes out identical stops invalidation right there, so its
    callers stay hits. Channel bounds are deliberately {e not}
    fingerprinted: they are consulted only by the main-pass ground
    check, which every [reverify] reruns (its per-call memo, kept in
    the handle, drops every entry when a bound changes), so policy
    edits are always picked up at zero invalidation cost. DESIGN.md §16
    develops the argument.

    Nothing cached depends on where a function sits in the file: the
    AST keeps a body's lines relative to its header ({!Ast.func}), so
    body fingerprints, summary {!Summary.site}s and the cached
    ownership violations ({!Ownership.func_violations}) are relative
    as they come. A function that only moved — a line inserted above
    it, then a reparse — is a hit. Absolute lines are rebuilt from the
    current program when the report is assembled: by
    {!Summary.check_main} for failing checks, and here, with
    {!Ownership.shift} by the header line, for ownership violations.

    The warm path is engineered to be O(dirty cone) with small-O(n)
    constants: fingerprints are unboxed native-int FNV streamed over
    the AST (no serialization buffer) in one walk that also collects
    the callee list, a function whose body is physically the one
    fingerprinted last time, under an equal name and parameter list,
    skips rehashing entirely (the witness: bodies are immutable, and
    {!Parse.program} hands back the previous body of every function
    whose body text did not change under the same name, wherever it
    moved), validation runs incrementally
    ({!Ast.validate_incremental}) while a declaration fingerprint
    holds, and per-body ownership violations are cached alongside each
    summary ({!Ownership.func_violations} is per-body independent).
    What a call still pays for every function is one pass over the
    declarations (a per-call table of them, which is also where the
    declaration fingerprint is folded) and one lookup of its cache
    entry; a warm call gathers no cached ownership violations at all
    while no entry holds one. The main pass walks all of [main] and
    rebases and sorts every finding, but takes the ground checks of each
    call whose callee summary is physically the cached entry's, with
    equal argument syms and pc, from the handle's memo of the last
    pass.

    Hit/miss/recompute counts are recorded on the [create] registry's
    [ifc.summary.hits] / [ifc.summary.misses] /
    [ifc.summary.recomputed] counters and returned per call. *)

type t
(** A persistent cache handle. Feed successive versions of a program
    to {!reverify} against the same handle; the cache converges to
    one entry per declared function. *)

type stats = {
  hits : int;        (** Summaries reused from the cache. *)
  misses : int;      (** Functions never seen before (cold). *)
  recomputed : int;  (** Summaries rebuilt: misses + stale fingerprints. *)
  rehashed : int;    (** Bodies whose fingerprint was recomputed: those
                         that failed the physical-identity witness. *)
  transfers : int;   (** Transfer applications spent: rebuilt summaries
                         + the main pass. *)
}

val create : telemetry:Telemetry.Registry.t -> unit -> t
(** The [ifc.summary.*] counters are minted on [telemetry]. *)

val reverify :
  ?sever_callee_fps:bool ->
  t ->
  Ast.program ->
  (Abstract.report * Ownership.violation list * stats, string) result
(** Verify [program] end-to-end — validation, ownership, label flows —
    reusing every cached result whose fingerprint still matches and
    recomputing the rest bottom-up in dependency order. The verdict
    components are byte-identical to a from-scratch run: findings
    match {!Summary.analyze_compositional} and the violation list
    matches {!Ownership.check}, because a matching fingerprint pins
    everything the cached value was computed from. The report's
    [transfers] counts only work actually performed, which is the E21
    speedup metric.

    Validation runs first in spirit: a program that fails
    {!Ast.validate} returns [Error] with the same message
    {!Verifier.verify} would produce, and the cache is left exactly
    as it was (entries are staged and committed only on success).
    While the declaration fingerprint (dialect, channel names,
    arities) is stable, only [main] and edited bodies are revalidated
    — see {!Ast.validate_incremental} for the soundness argument.

    For tests: [?sever_callee_fps]. [true] drops the callee-summary
    term from the fingerprint, leaving callers stale when only a
    callee's behaviour changed — the negative control showing the
    term is load-bearing. Use the same flag for every call on a given
    handle; mixing modes just forces recomputes.

    [Error] for Aliased-dialect programs. *)

(** {1 For tests}

    oracle: the entry count and reset that [test/test_summary_cache.ml] pins the
    cache's pruning and the cold path with. *)

val size : t -> int
(** Cached entries (= functions of the last committed program). *)

val clear : t -> unit
(** Forget every entry and the main pass's memo: the next {!reverify}
    is cold. *)
