(** The dynamic (concrete) semantics of Mir, with element-level taint —
    the experiment's ground truth.

    Every vector element carries the label of the input that produced
    it, propagated through copies and moves. Sending data on a channel
    records an event; an event whose element labels exceed the
    channel's bound is a {e leak} — an actual end-to-end disclosure,
    independent of what any static analysis believes.

    This is how we demonstrate that the paper's line-17 aliasing
    exploit really discloses the secret in the conventional dialect
    (the run leaks), while the static verifier's job is to predict such
    runs without executing them. Note the usual limitation of dynamic
    taint: implicit flows (through branches not taken) are invisible
    here — that is exactly why the paper insists the check "must be
    performed statically". *)

type element = { value : int; taint : Label.t }

type event = {
  eline : int;
  channel : string;
  bound : Label.t;
  data : element list;
}

type leak = event  (** An event whose data exceeds the channel bound. *)

type outcome = {
  events : event list;     (** All channel outputs, in order. *)
  leaks : leak list;
  assertion_failures : (int * string * Label.t * Label.t) list;
      (** (line, var, actual joined taint, asserted bound). *)
  copies : int;            (** Deep copies performed ([Copy] statements). *)
  bytes_copied : int;      (** Total elements duplicated by them. *)
  steps : int;             (** Statements executed. *)
}

exception Runtime_error of { line : int; message : string }
(** Unbound/moved variables at run time, fuel exhaustion, etc. A
    program that passes {!Ast.validate} and {!Ownership.check} never
    raises this in the Safe dialect. *)

val run : ?fuel:int -> Ast.program -> outcome
(** Execute [main]. [fuel] (default 100_000) bounds executed
    statements; exceeding it raises {!Runtime_error}. For tests:
    [?fuel], which the fuel-exhaustion cases lower. *)

val event_taint : event -> Label.t
(** Join of the element taints of an event. *)
