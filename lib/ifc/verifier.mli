(** The verification front-end — our stand-in for the SMACK-based
    toolchain of §4 ("we extended the SMACK verifier with an early
    version of the Rust frontend").

    [verify] validates the program, runs the linearity (ownership)
    check where applicable, picks or accepts an analysis strategy, and
    returns a combined report with a verdict and a deterministic cost
    metric (transfer-function applications, plus points-to solver
    iterations when Andersen runs). *)

type strategy =
  | Exact
      (** Flow-sensitive abstract interpretation with strong updates —
          sound {e because} the safe dialect has no aliasing. The
          paper's proposal. Safe dialect only. *)
  | Compositional
      (** Same soundness, function summaries instead of inlining (§4's
          scalability improvement). Safe dialect only. *)
  | Incremental
      (** Compositional with a {!Summary_cache}: identical findings,
          and with a persistent handle ({!reverify}) an edit only
          recomputes its dirty cone. Via [verify] the cache is fresh,
          i.e. a cold run. Safe dialect only. *)
  | Naive_no_alias
      (** Conventional language, alias step skipped: fast but unsound
          (misses the line-17 exploit). *)
  | Andersen
      (** Conventional language done right: points-to + weak updates.
          Sound, slower, less precise. *)

type verdict = Verified | Rejected

type report = {
  strategy : strategy;
  verdict : verdict;
  ownership_errors : Ownership.violation list;
      (** Linearity violations (Safe-dialect strategies only) — the
          rustc side of the §4 story. *)
  findings : Abstract.finding list;     (** IFC flow violations. *)
  transfers : int;
  alias_locations : int;                (** 0 unless Andersen ran. *)
  alias_iterations : int;
}

val strategy_name : strategy -> string

val verify : ?strategy:strategy -> Ast.program -> (report, string) result
(** [strategy] defaults to [Exact] for Safe programs and [Andersen] for
    Aliased ones. [Error] on validation failure or a dialect/strategy
    mismatch. *)

val reverify :
  Summary_cache.t -> Ast.program -> (report * Summary_cache.stats, string) result
(** Incremental verification against a persistent cache handle:
    validates, runs the ownership check (always whole-program — it is
    linear and cheap), and reverifies flows reusing every summary
    whose fingerprint still matches. The report (verdict, findings,
    ownership errors) is identical to [verify ~strategy:Compositional]
    on the same program; only [transfers] — work actually performed —
    shrinks on warm runs. *)

val pp_report : Format.formatter -> report -> unit
