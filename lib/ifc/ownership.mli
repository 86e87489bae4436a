(** The static ownership (linearity) checker — our stand-in for the
    part of rustc that rejects the paper's line-17 exploit with
    "use of moved value".

    Tracks, flow-sensitively, whether each variable is live, moved, or
    unbound. [Move] and [By_move] call arguments consume their source;
    any later use is reported at the offending line together with the
    line of the move — the §2/§4 "binding v1 was consumed by take()"
    error.

    Control flow is handled conservatively: a variable moved on either
    branch of an [If] counts as moved afterwards, and [While] bodies
    are iterated to a fixpoint so a move in iteration {i n} is caught
    by the use in iteration {i n+1}. *)

type kind =
  | Use_after_move of { moved_at : int }
  | Unbound
  | Move_of_moved of { moved_at : int }

type violation = { line : int; var : string; kind : kind }

val check : Ast.program -> (unit, violation list) result
(** Checks [main] and every function body (parameters start live).
    Violations are sorted by line and de-duplicated. Also checks
    function bodies reached via calls with the caller's argument
    states. The program should already pass {!Ast.validate}. *)

(** {2 Per-body pieces}

    The check is per-body independent — no state flows between [main]
    and the function bodies — so {!Summary_cache} caches each
    function's violations keyed on its body fingerprint and reassembles
    the whole-program result. [check p] is exactly
    [finalize (List.rev (main_violations p.main @ concat-map
    (fun f -> map (shift f.line) (func_violations f)) p.funcs))]. *)

val main_violations : Ast.stmt list -> violation list
(** Violations of a main block, in discovery order (not deduplicated). *)

val func_violations : Ast.func -> violation list
(** Violations of one function body, parameters live, discovery order.
    Lines (and [moved_at]) are the body's own, relative to the
    function's header ({!Ast.func}). *)

val shift : int -> violation -> violation
(** [shift d v] moves [v]'s line and [moved_at] down by [d] lines:
    [shift f.line] makes a {!func_violations} entry absolute. *)

val finalize : violation list -> (unit, violation list) result
(** De-duplicate and sort, as {!check} does before reporting. *)

val violation_to_string : violation -> string
