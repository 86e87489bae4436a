(** Concrete syntax for Mir.

    Lets programs be written as text and fed straight to the verifier —
    the front-half of the paper's toolchain (their prototype used "Rust
    macros to transform the program"; ours is a small surface language
    with the same constructs). Line numbers in diagnostics are real
    source lines.

    Grammar (one statement per line; '#' comments; indentation free):
    {v
    dialect safe | dialect aliased          (optional header, default safe)
    channel NAME bound LABEL

    fn NAME(PARAM, ...) {
      STMT...
    }

    let X = vec![] : LABEL                  Alloc
    X.push(INT : LABEL)                     Const_write
    X.append(copy Y)                        Append
    let X = move Y                          Move
    let X = &Y                              Alias (aliased dialect)
    let X = Y.clone()                       Copy
    declassify X to LABEL                   Declassify
    if X { ... } else { ... }               If ('else' optional)
    while X { ... }                         While
    output X -> CHANNEL                     Output
    assert label(X) <= LABEL                Assert_leq
    F(move X, &Y, ...)                      Call

    LABEL ::= public | {a,b,...}
    v} *)

type error = { eline : int; message : string }

val program : string -> (Ast.program, error) result
(** Parse a whole compilation unit. The result still needs
    {!Ast.validate} (the parser checks syntax only).

    One pass over the source, linear in its length: a cursor walks it
    line by line and matches each statement in place, so no line is
    ever copied; only identifiers, integer literals and error text are.
    The ASTs and the [{eline; message}] of every malformed input are
    exactly those of the earlier line-list parser, which the test suite
    keeps as a differential oracle. *)

val label : string -> (Label.t, string) result
(** Parse just a label (["public"], ["{secret}"], ["{a,b}"]). *)

val to_source : Ast.program -> string
(** Render a program in the concrete syntax, into one buffer;
    [program (to_source p)] reparses to an equal program up to
    statement line numbers. *)

val error_to_string : error -> string
