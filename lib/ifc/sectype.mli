(** The security-type-system baseline (Myers–Liskov style [29]).

    §4: "An alternative to alias analysis is a security type system,
    where an object's type includes its security label that cannot
    change, making aliasing safe ... it introduces the overhead of
    extra memory allocation and copying."

    Here each variable's label is {e fixed} at its [Alloc] (its
    declared type); every statement must respect the declarations:
    writes may not exceed the destination's declared label, and
    [Move]/[Alias] require {e equal} declarations (an object cannot
    change type by changing hands). [Declassify] is rejected outright —
    labels cannot change.

    {!repair} mechanically applies the paper's remedy: every
    ill-typed-but-upward [Move]/[Alias] becomes a [Copy] (allocate a
    new vector at the destination's type and copy the content). The
    run-time price of that remedy is then measured by executing the
    repaired program ({!Interp.run} reports copies and bytes). *)

type violation = { line : int; reason : string }

val check : Ast.program -> (unit, violation list) result
(** [main]-only discipline check against declared labels. Functions are
    checked with parameters assumed to have the labels of the actual
    arguments at each (monomorphised) call site. *)

val repair : Ast.program -> Ast.program * int
(** Replace every upward ill-typed [Move]/[Alias] with [Copy]; returns
    the transformed program and the number of rewrites. Downward flows
    (which no copy can fix) are left in place for {!check} to reject. *)
