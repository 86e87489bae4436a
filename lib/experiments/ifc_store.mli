(** E6 — §4's verification case study: "We implemented and verified a
    simple secure data store ... As a sanity check, we seeded a bug
    into checking of security access in the implementation. SMACK
    discovered the injected bug." Plus the security-type-system
    comparison: fixed labels force allocate-and-copy where Rust moves.

    Two parts:
    - store verification: the clean store verifies; the seeded-bug
      variant is rejected at exactly the seeded line (under both the
      monolithic and the compositional analysis), and the dynamic run
      confirms the disclosure is real;
    - copy overhead: the benign buffer program written Rust-style
      (moves) vs security-type style (repair inserts copies), with the
      runtime copy counts of each. *)

type store_row = {
  variant : string;
  strategy : string;
  verdict : string;
  finding_lines : int list;
  expected_line : int option;   (** The seeded line, when bug present. *)
  dynamic_leaks : int;
}

type copy_row = {
  version : string;
  discipline : string;         (** Which checker accepts this version. *)
  accepted : bool;
  copies_inserted : int;       (** Static rewrites by the sectype repair. *)
  runtime_copies : int;
  runtime_bytes_copied : int;
}

type result = { store : store_row list; copies : copy_row list }

val run : ?clients:int -> unit -> result
(** For tests: [?clients], which the smoke test shrinks. *)

val print : result -> unit
