(** E9 — checkpoint cost and fidelity at scale.

    Sweeps synthetic firewall databases (rules × alias factor — how
    many prefixes point at each rule) and reports, per strategy, the
    work done and the snapshot quality. The conventional baseline's
    extra cost is the visited-set lookup per shared-node encounter;
    the naive baseline's failure is memory blow-up {e and} a
    semantically wrong snapshot. *)

type row = {
  rules : int;
  alias_factor : int;          (** Leaves per rule. *)
  leaves : int;
  trie_nodes : int;
  naive_copies : int;          (** = leaves: one per encounter. *)
  dedup_copies : int;          (** = rules, for both sound strategies. *)
  addr_set_lookups : int;
  rc_flag_lookups : int;       (** Always 0. *)
  naive_overcopy : float;      (** naive_copies / dedup_copies. *)
}

val run : unit -> row list
(** (rules, alias factor) pairs sweeping 100..2000 rules at alias
    factors 2 and 4. *)

val make_database :
  rng:Cycles.Rng.t ->
  rules:int ->
  alias_factor:int ->
  Chkpt.Trie.t * (int32 * Chkpt.Trie.shared_rule) array
(** Build a random /24-prefix database with the given sharing, and
    its leaves in insertion order: each prefix with a handle on its
    rule. Also used by E16 ({!Ckpt_incr}) and
    [examples/firewall_checkpoint.ml]. *)

val print : row list -> unit
