(** E16 (extension): incremental dirty-tracking checkpoints.

    Sweeps dirty ratio in {0, 1, 10, 50, 100}% over the fig3 firewall
    database under {!Chkpt.Trie.tracker}. The deterministic section
    (dirty/reused node counts, the [chkpt.dirty_ratio_pct] gauge,
    restore byte-identity via {!Chkpt.Trie.render}, sharing
    preservation) is [test/golden/ckpt_incr_stats.txt]; the wall-clock
    section backs the >= 10x-at-1%-dirty claim against the
    full-traversal baseline. *)

type row = {
  dirty_pct : int;
  leaves_touched : int;
  dirty_nodes : int;
  reused_nodes : int;
  reuse_pct : float;
  ratio_gauge : int;
  restore_ok : bool;
  sharing_ok : bool;
}

val run_stats : unit -> row list
(** No clock is read: every field is a pure function of the database
    and the dirty sweep. *)

val print_stats : row list -> unit

type wall = {
  w_full_ns : float;  (** Mean ns per full-traversal checkpoint (12 runs). *)
  w_sync_ns : (int * float) list;
      (** Mean ns per incremental sync (30 rounds), by dirty%. *)
}

val run_wall : unit -> wall
val print_wall : wall -> unit
