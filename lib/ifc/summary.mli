(** Compositional IFC via per-function summaries — the paper's §4
    closing observation: "in the absence of aliasing, the effect of
    every function on security labels is confined to its input
    arguments and can be summarized by analyzing the code of the
    function in isolation from the rest of the program".

    A summary gives, for each parameter, the label of its cell after
    the call as a {!sym}bolic join of a constant and a subset of the
    {e input} parameter labels, plus the set of channel outputs and
    assertions the function performs (also symbolic). Summaries are
    computed once per function, bottom-up over the (acyclic) call
    graph; call sites then apply them in O(|summary|) instead of
    re-analysing the body — E7 measures exactly this saving.

    Only valid for the Safe dialect: with aliasing, a callee could
    change the label of state not passed to it at all. *)

module Int_set : Set.S with type elt = int

type sym = { const : Label.t; deps : Int_set.t }
(** Denotes [const ⊔ ⊔ {label(param i) | i ∈ deps}]. *)

type site = { fn : string; rel : int }
(** Where a sink statement sits, independent of where its function
    sits in the file: [fn] holds the statement and [rel] is its line,
    which the AST already keeps relative to [fn]'s header
    ({!Ast.func}[.line], the site's base). [main]'s own statements use
    [fn = ""] and keep their absolute line in [rel]. *)

type t = {
  fname : string;
  param_out : sym array;       (** Post-call label of each argument's cell. *)
  param_moved : bool array;    (** Whether the body consumes the parameter. *)
  outputs : (site * string * sym) list;
      (** (site, channel, data ⊔ pc) flows the body performs, its
          callees' included: a re-emitted flow keeps the callee's
          site. *)
  asserts : (site * string * sym * Label.t) list;
}
(** No absolute line appears in a summary, so a function that only
    moved in the file has the same summary — the property
    {!Summary_cache} keys on. {!check_main} turns the sites of failing
    checks back into absolute lines. *)

val summarize_one :
  program:Ast.program -> summaries:(string, t) Hashtbl.t -> Ast.func -> t * int
(** Summarize a single function against an explicit summary table
    (which must already hold entries for all its callees — see
    {!dependency_order}). Stores the result into [summaries] and
    returns it together with the number of transfer applications
    spent. This is the unit of work {!Summary_cache} memoizes. *)

type main_memo
(** What {!check_main} ground at each call in [main], for the next
    pass to reuse. It holds only the calls of the last pass, so it is
    bounded by the current [main]. *)

val main_memo : unit -> main_memo
(** An empty memo: the next {!check_main} through it grounds every
    call. *)

val check_main :
  memo:main_memo ->
  program:Ast.program ->
  find_func:(string -> Ast.func option) ->
  summaries:(string, t) Hashtbl.t ->
  Abstract.report
(** The main-body pass alone: runs [main] symbolically against the
    given summary table and ground-checks every output and assertion
    against the channel bounds as it is emitted, its callees' included.
    A failing check's site is rebased to an absolute line against
    [find_func name], which must return the first function of
    [program] declared under [name] (as in
    {!Ast.validate_incremental}: the caller supplies the table it
    already holds), so findings point into the current text.
    The report's [transfers] covers only this pass. Channel bounds are
    read here and {e only} here — which is why {!Summary_cache} can
    leave them out of its fingerprints.

    {b Incremental.} A call in [main] re-emits its callee's flows,
    composed with its argument syms and the pc, and grounds them; the
    failing checks that come out depend on nothing else but the
    channel bounds. So [memo] keeps, per call, those failing checks
    before the rebase (site, subject, label, bound, what), and a call
    whose callee summary is {e physically} the one it was ground with
    (summaries are immutable once built), with equal argument syms and
    pc, takes them from there instead; every entry is dropped when the
    channel declarations differ from the last pass's. The walk of
    [main], the post-call writeback, [transfers], the rebase and the
    sort stay whole, so the report is the one an empty memo gives. The
    pass replaces [memo] with the calls it met, building the new table
    while it reads the old one. *)

val summarize : Ast.program -> (t list, string) result
(** Summaries for every function, in dependency order. [Error] for
    Aliased-dialect programs (or recursion, which {!Ast.validate}
    rejects anyway). The returned count of transfer applications is
    available via {!analyze_compositional}. *)

val analyze_compositional : Ast.program -> (Abstract.report, string) result
(** Full verification of [main] using summaries at call sites. The
    report's [transfers] includes both summary construction and the
    main-body pass — directly comparable with
    [Abstract.analyze Exact_ownership], which inlines every call.
    Every call builds every summary afresh, and the main pass runs
    through an empty {!main_memo}. *)
