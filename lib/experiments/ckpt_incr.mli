(** E16 (extension): incremental dirty-tracking checkpoints.

    Sweeps dirty ratio in {0, 1, 10, 50, 100}% over the fig3 firewall
    database under {!Chkpt.Trie.tracker}.
    Deterministic columns (dirty/reused node counts, the
    [chkpt.dirty_ratio_pct] gauge, restore byte-identity via
    {!Chkpt.Trie.render}, sharing preservation) are golden-diffed in
    CI; wall-clock columns back the >= 10x-at-1%-dirty claim against
    the full-traversal baseline. *)

type row = {
  dirty_pct : int;
  leaves_touched : int;
  dirty_nodes : int;
  reused_nodes : int;
  reuse_pct : float;
  ratio_gauge : int;
  restore_ok : bool;
  sharing_ok : bool;
  incr_ns : float;
  speedup : float;
}

val run : ?iters:int -> ?full_iters:int -> unit -> float * row list
(** Returns (full-traversal baseline ns, rows). The deterministic row
    fields do not depend on [iters]/[full_iters] (per-round stats are
    stable from the second mutation round on). *)

val print : float * row list -> unit
(** Full table including wall-clock columns. *)

val print_stats : row list -> unit
(** Deterministic columns only — byte-stable across runs and machines;
    diffed against [test/golden/ckpt_incr_stats.txt] in CI. *)
