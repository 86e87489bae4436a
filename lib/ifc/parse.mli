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
    {!Ast.validate} (the parser checks syntax only). A function's
    [line] is its header's source line and its statements' lines are
    relative to it ({!Ast.func}); [main]'s are source lines, as are the
    lines of errors.

    One pass over the source, linear in its length: a cursor walks it
    line by line and matches each statement in place, so no line is
    ever copied; only identifiers, integer literals and error text are.
    The ASTs and the [{eline; message}] of every malformed input are
    exactly those of the earlier line-list parser, which the test suite
    keeps as a differential oracle.

    {b Incremental.} The parser keeps a memo of the last unit it parsed
    successfully: for each function name, its body's AST, its length in
    lines, and its bytes (from the line after the header through the
    closing line) as a length and a hash in two 63-bit native-int lanes,
    filled by one allocation-free pass over the bytes' 8-byte words.
    After a header, the body stored under the same name is a hit if that
    many bytes fit in the text after the header, they hash to the stored
    lanes, and they end where the stored body's closing line ended: at a
    ['\n'], or at the end of both texts, so a last [}] without a newline
    never matches a line that now goes on. A hit is not parsed again:
    the previous body is returned {e physically}, wherever the function
    moved, and only the header is parsed fresh. There is no scan to
    delimit a body, so a reparse after an edit costs the headers,
    [main], one hash per body and the edited bodies, and a
    {!Summary_cache} sees every untouched body as the one it already
    fingerprinted. A function renamed, or a name declared twice, only
    costs misses.

    A hit is what a full parse would give, up to a collision of the two
    lanes. The memo only holds bodies the full parser parsed
    successfully; that parse reads no byte past the body's closing
    line, and lines relative to the header make its AST independent of
    where the body sits. Equal bytes, ending the closing line the same
    way, therefore parse to the equal AST and end on the equal line.
    The hash is not cryptographic. Two bodies of one length that differ
    only within one 8-byte word, or only in their last 0-7 bytes, never
    collide; any other difference collides only if both lanes do. The
    lanes do not defend against text crafted to collide with the
    previous unit, so call {!forget} before parsing text you do not
    trust.

    The memo is bounded by the last successful unit: one entry per
    function name in it, holding a length, two ints and the body it
    already shares with that unit's AST, never source text. A failed
    parse leaves it as it was. It is replaced whole, through an
    [Atomic.t], when a parse succeeds, and a published memo is never
    written again, so parses on several domains are safe: each reads
    one published memo, and the last to succeed publishes its own. *)

val to_source : Ast.program -> string
(** Render a program in the concrete syntax, into one buffer;
    [program (to_source p)] reparses to an equal program up to
    lines: the reparse carries the header and statement lines of the
    rendered text, one statement per line. *)

val error_to_string : error -> string

(** {1 For tests}

    oracle: the cold parse that [test/test_parse.ml] diffs the memo against,
    and the label grammar alone, which it pins. *)

val forget : unit -> unit
(** Empty the memo, so that the next {!program} parses cold. For tests,
    measurements and untrusted text; up to a collision of the hash
    lanes, the result of {!program} never depends on it. *)

val label : string -> (Label.t, string) result
(** Parse just a label (["public"], ["{secret}"], ["{a,b}"]). *)
