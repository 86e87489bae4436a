(** E21 (extension): incremental summary-cached IFC reverification.

    Generate a deterministic Safe-dialect program with a deep, wide
    call graph ({!Ifc.Gen}), verify it cold through a persistent
    {!Ifc.Summary_cache}, then repeatedly edit ~1% of the function
    bodies and reverify. The deterministic section reports
    hit/miss/recompute counts, the dirty-cone bound, transfer-count
    speedup vs a from-scratch compositional run on the same edited
    program, and whether the cached report is byte-identical to the
    cold one (verdict, ownership errors, findings — the fields that
    may not differ). The wall section races warm reverification
    against cold whole-program compositional analysis with a >= 10x
    target. *)

type round = {
  r_round : int;
  r_edited : int;
  r_cone : int;
  r_stats : Ifc.Summary_cache.stats;
  r_cold_transfers : int;
  r_verdict : string;
  r_findings : int;
  r_cold_equal : bool;
  r_cone_ok : bool;
}

type stats = {
  s_funcs : int;
  s_depth : int;
  s_stmts : int;
  s_cold : Ifc.Summary_cache.stats;
  s_cold_verdict : string;
  s_rounds : round list;
  s_telemetry : Telemetry.Registry.t;
}

val run_stats : unit -> stats
(** A 500-function program, 5 bodies edited in each of 3 rounds.
    Deterministic; the printed block is [test/golden/reverify_stats.txt]. *)

val print_stats : stats -> unit

type wall = {
  w_funcs : int;
  w_edits : int;
  w_cold_ms : float;
  w_warm_ms : float;
  w_speedup : float;
  w_equal : bool;
}

val run_wall : unit -> wall
(** The same program; best of 5 edit rounds. *)

val print_wall : wall -> unit
