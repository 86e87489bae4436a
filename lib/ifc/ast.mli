(** The Mir intermediate language — a miniature Rust-like IR over
    vectors and ownership, in which the paper's §4 programs are encoded
    and analysed.

    Mir has two dialects:

    - [Safe] — the Rust model: values move ({!constructor:Move}),
      aliasing is not expressible, [use after move] is a (static)
      ownership error. This is the dialect our IFC analysis targets.
    - [Aliased] — the "conventional language" baseline: the extra
      {!constructor:Alias} statement makes two variables denote the
      same heap cell, exactly the situation that forces conventional
      IFC through alias analysis.

    The same program can usually be written in both dialects by
    swapping [Move]/[Alias] — which is how the paper's line-14/17
    exploit is compared across languages.

    Values are vectors of labelled integers; a heap {e cell} holds one
    vector. Statements carry source line numbers so diagnostics can
    reproduce the paper's "error in line 16" narrative. A function's
    statements carry lines relative to the function ({!func}), so a
    body means the same wherever the function sits in the file. *)

type arg_mode =
  | By_move    (** The caller's variable is consumed. *)
  | By_borrow  (** The callee operates on the caller's cell; the
                   binding survives the call. *)

type op =
  | Alloc of { var : string; label : Label.t }
      (** [var = Vec::new()], whose {e source} label (taint of data it
          will receive from its input) is [label]. An empty vec with a
          label models the paper's [#\[label(...)\] let v = vec!...]. *)
  | Const_write of { dst : string; value : int; label : Label.t }
      (** Append one literal element carrying [label] — data arriving
          from an input source with that sensitivity. *)
  | Append of { dst : string; src : string }
      (** [dst.append(&mut src_copy)]: copy [src]'s elements into
          [dst]'s cell. No aliasing is created; [src] stays live. *)
  | Move of { dst : string; src : string }
      (** Ownership transfer: [dst] now denotes [src]'s cell; [src] is
          dead. (Both dialects.) *)
  | Alias of { dst : string; src : string }
      (** [dst = &src] — {e Aliased dialect only}: both variables now
          denote the same cell. *)
  | Copy of { dst : string; src : string }
      (** Deep clone into a fresh cell (the "allocate a new vector and
          copy over the content" a security type system forces). *)
  | Declassify of { var : string; label : Label.t }
      (** Trusted relabelling of the cell to exactly [label]. *)
  | If of { cond : string; then_ : stmt list; else_ : stmt list }
      (** Branch on [cond]'s first element (≠ 0); creates implicit
          flows from [cond]'s label. *)
  | While of { cond : string; body : stmt list }
  | Output of { channel : string; src : string }
      (** Send [src]'s data over a channel; legal iff the data's label
          (joined with the pc) is below the channel's bound. *)
  | Call of { func : string; args : (string * arg_mode) list }
  | Assert_leq of { var : string; label : Label.t }
      (** A specification assertion (how the secure-store bounds are
          stated, per the paper: "security-label bounds were specified
          ... through the use of assertions"). *)

and stmt = { line : int; op : op }
(** [line] is absolute in [main] and relative to the enclosing
    function's [line] in a function body. *)

type func = {
  fname : string;
  params : string list;
  line : int;
      (** The line of the [fn] header in the source; 0 for functions
          built in code, whose statement lines are then absolute. A
          body statement sits at [line + stmt.line]. Diagnostics
          (validation errors, ownership violations, findings,
          {!pp_program}, {!Interp} and {!Sectype} errors) report that
          absolute line; everything cached about a body
          ({!Summary_cache}, the parser's memo) keeps the relative
          one. *)
  body : stmt list;
}

type channel = {
  cname : string;
  bound : Label.t;  (** Upper bound on the labels of data sent. *)
}

type dialect = Safe | Aliased

type program = {
  dialect : dialect;
  channels : channel list;
  funcs : func list;
  main : stmt list;
}

val stmt : int -> op -> stmt

val program :
  ?dialect:dialect -> ?channels:channel list -> ?funcs:func list -> stmt list -> program
(** [dialect] defaults to [Safe]. *)

val find_func : program -> string -> func option
val find_channel : program -> string -> channel option

val iter_stmts : (stmt -> unit) -> stmt list -> unit
(** Pre-order traversal, descending into [If]/[While] blocks. *)

(** {2 Well-formedness}

    {!validate} rejects structurally broken programs: [Alias] in the
    Safe dialect, outputs on undeclared channels, calls to unknown
    functions, arity mismatches, (mutual) recursion, and duplicate
    function/channel/parameter names. *)

type validation_error = { vline : int; reason : string }

val validate : program -> (unit, validation_error list) result

val validate_incremental :
  program ->
  find_func:(string -> func option) ->
  dirty:func list ->
  (unit, validation_error list) result
(** {!validate} restricted to [main], the [dirty] functions, and call
    cycles reachable from them. [find_func name] must return the first
    function of the program declared under [name], as {!validate}
    resolves calls; the caller supplies it so that a table it already
    holds is not rebuilt. Sound only when every function outside
    [dirty] is byte-identical to one in a program that already passed
    {!validate} under the same declarations (dialect, channel names,
    function arities): per-statement validity depends on nothing else,
    and a new call cycle must pass through an edited function — edges
    out of unchanged bodies are unchanged, and a cycle made only of
    those existed in the already-validated program. {!Summary_cache}
    maintains exactly this invariant via its declaration fingerprint
    and falls back to the full {!validate} when it breaks. *)

val stmt_count : program -> int
(** Total statements including nested blocks and function bodies. *)

val pp_program : Format.formatter -> program -> unit
(** Prints absolute lines throughout. *)
