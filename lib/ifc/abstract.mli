(** Flow-sensitive taint abstract interpretation over the {!Label}
    lattice — the paper's §4 analysis ("we formulate IFC as the problem
    of verification of an abstract interpretation of the program",
    with a program-counter variable for implicit flows).

    The [strategy] fixes how memory is abstracted, and is the crux of
    the whole section:

    - {!Exact_ownership} — the Rust/safe-dialect case. Because each
      cell has exactly one owner, "variable → label" with strong
      updates is a {e precise and sound} abstraction: no cell graph, no
      alias sets, labels may change over time. Calls are inlined by
      alpha-renaming (or summarised — see {!Summary}).
    - {!No_alias_info} — a conventional language analysed {e without}
      alias analysis: [Alias] is (wrongly) treated like a copy, so a
      later write through one name is invisible through the other.
      Fast, but unsound: it misses the paper's line-17 exploit. This
      baseline exists to show why the alias step cannot simply be
      skipped in C-like languages.
    - {!Points_to} — the conventional remedy: Andersen may-alias sets
      with weak (join-only) updates. Sound, but imprecise — e.g.
      declassification is lost through may-aliases, and any two
      possibly-aliased buffers share taints forever.

    Findings report the offending line, the inferred label and the
    violated bound. *)

type strategy =
  | Exact_ownership
  | No_alias_info
  | Points_to of Alias.result

type what = Leaky_output of string | Failed_assert

type finding = {
  line : int;
  subject : string;       (** The variable whose data flows. *)
  label : Label.t;        (** Inferred taint (including pc). *)
  bound : Label.t;        (** The channel bound / asserted bound. *)
  what : what;
}

type report = {
  findings : finding list;  (** Sorted by line, de-duplicated. *)
  transfers : int;          (** Transfer-function applications — the
                                deterministic cost metric used by E7. *)
}

val analyze : strategy -> Ast.program -> report
(** The program should already pass {!Ast.validate}. Use of a moved or
    unbound variable is abstracted as ⊥ (the {!Ownership} checker owns
    that class of errors). *)

val finding_to_string : finding -> string
