(** Andersen-style points-to analysis for Mir — the machinery a
    {e conventional} language needs before it can do IFC at all.

    Abstract locations are allocation sites ([Alloc]/[Copy] statement
    lines, absolute: a function body's relative lines are rebased to
    its header, so two functions' sites never merge). The analysis is inclusion-based and flow-insensitive:
    [Move], [Alias] and call bindings generate ⊇ constraints that are
    iterated to a fixpoint. Variables inside a function body are
    namespaced as ["fname::var"]; main's variables keep their names.

    This is the "expensive alias analysis step" the paper's approach
    removes (§4: "our methodology is similar to Zanioli et al., sans
    the expensive alias analysis step"): sound for the Aliased dialect
    but imprecise — any two variables that {e may} alias share label
    updates forever, and the constraint solving itself is the dominant
    cost that E7 measures. *)

module Int_set : Set.S with type elt = int

type result

val analyze : Ast.program -> result

val points_to : result -> string -> Int_set.t
(** Points-to set of a (namespaced) variable; empty if unknown. *)

val location_count : result -> int
val constraint_iterations : result -> int
(** Fixpoint rounds the solver needed (a cost signal for E7). *)

val namespaced : fname:string -> string -> string
(** The key under which a function-body variable is tracked. *)

(** {1 For tests}

    oracle: the pairwise query the points-to tests check the analysis by. *)

val may_alias : result -> string -> string -> bool
